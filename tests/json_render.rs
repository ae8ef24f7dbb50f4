//! Property: the zero-copy `Json::render_into` (what the server's
//! reactor uses to render every response body into a reused
//! per-connection buffer) is byte-identical to the allocating
//! `Json::render`, for arbitrary JSON trees and for realistic server
//! response shapes — including when the target buffer is reused dirty
//! across renders, exactly as the reactor reuses its scratch string.

use lshe_corpus::json::Json;
use proptest::prelude::*;

/// Decodes a fuel script into an arbitrary JSON tree: every byte drives
/// one structural choice, so shrinking the script shrinks the tree.
fn decode(fuel: &[u64], depth: usize) -> (Json, usize) {
    let Some(&word) = fuel.first() else {
        return (Json::Null, 0);
    };
    let rest = &fuel[1..];
    let pick = if depth >= 4 { word % 4 } else { word % 6 };
    match pick {
        0 => (Json::Null, 1),
        1 => (Json::Bool(word & 8 != 0), 1),
        2 => {
            // Numbers the server actually emits (counts, micros,
            // estimates) plus hostile ones: negatives, fractions,
            // huge magnitudes, and non-finite (rendered as null).
            let n = match (word >> 3) % 6 {
                0 => word as f64,
                1 => -((word >> 7) as f64),
                2 => (word as f64) / 997.0,
                3 => (word as f64) * 1e150,
                4 => f64::NAN,
                _ => f64::INFINITY,
            };
            (Json::num(n), 1)
        }
        3 => {
            // Strings that exercise every escape class the writer has.
            let corpus = [
                "",
                "plain",
                "with \"quotes\" and \\backslashes\\",
                "control\u{0}\u{1f}\ttab\nnewline\rcr",
                "unicode: ∂éçt — 表 🚀",
                "/query?x=1&y=2",
            ];
            (
                Json::Str(corpus[(word >> 3) as usize % corpus.len()].to_owned()),
                1,
            )
        }
        4 => {
            let want = ((word >> 3) % 4) as usize;
            let mut items = Vec::new();
            let mut used = 1;
            for _ in 0..want {
                let (child, n) = decode(&rest[used - 1..], depth + 1);
                items.push(child);
                used += n;
                if used > rest.len() {
                    break;
                }
            }
            (Json::Arr(items), used)
        }
        _ => {
            let want = ((word >> 3) % 4) as usize;
            let mut fields = Vec::new();
            let mut used = 1;
            for i in 0..want {
                let (child, n) = decode(&rest[used - 1..], depth + 1);
                fields.push((format!("k{i}\"esc"), child));
                used += n;
                if used > rest.len() {
                    break;
                }
            }
            (Json::Obj(fields), used)
        }
    }
}

/// A realistic `/query` response body, the hot shape on a serving path.
fn query_response(hits: usize, cached: bool) -> Json {
    Json::Obj(vec![
        (
            "hits".to_owned(),
            Json::Arr(
                (0..hits)
                    .map(|i| {
                        Json::Obj(vec![
                            ("id".to_owned(), Json::num(i as f64)),
                            ("table".to_owned(), Json::Str(format!("t{i}"))),
                            ("column".to_owned(), Json::Str("col \"x\"".to_owned())),
                            ("estimate".to_owned(), Json::num(0.7 + i as f64 / 100.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("count".to_owned(), Json::num(hits as f64)),
        ("cached".to_owned(), Json::Bool(cached)),
        ("generation".to_owned(), Json::num(3.0)),
        ("query_time_us".to_owned(), Json::num(123.0)),
    ])
}

proptest! {
    /// Headline property: render_into ≡ render, byte for byte, for
    /// arbitrary trees — including into a dirty, reused buffer.
    #[test]
    fn render_into_matches_render(
        script in prop::collection::vec(0u64..u64::MAX, 1..48),
    ) {
        let (value, _) = decode(&script, 0);
        let allocating = value.render();

        // Fresh buffer.
        let mut buf = String::new();
        value.render_into(&mut buf);
        prop_assert_eq!(&buf, &allocating);

        // Reused buffer with junk capacity, cleared between renders —
        // the reactor's scratch-string discipline.
        let mut scratch = String::with_capacity(4096);
        scratch.push_str("LEFTOVER PREVIOUS RESPONSE");
        scratch.clear();
        value.render_into(&mut scratch);
        prop_assert_eq!(&scratch, &allocating);

        // Append semantics: rendering after existing content must only
        // ever append (the buffer's prefix is untouched).
        let mut tail = String::from("prefix:");
        value.render_into(&mut tail);
        prop_assert_eq!(&tail[.."prefix:".len()], "prefix:");
        prop_assert_eq!(&tail["prefix:".len()..], &allocating);

        // Render → parse → render is the identity, and the parse gives
        // back the tree itself: a number keeps the text it rendered as.
        let reparsed = Json::parse(&allocating);
        prop_assert!(reparsed.is_ok(), "unparseable output: {}", allocating);
        let reparsed = reparsed.expect("parsed");
        prop_assert_eq!(&reparsed, &value);
        prop_assert_eq!(reparsed.render(), allocating);
    }
}

#[test]
fn server_response_corpus_is_identical_across_renderers() {
    // Deterministic sweep over the response shapes the server emits,
    // rendered through ONE reused scratch buffer in sequence — any
    // cross-contamination between renders would break equality.
    let corpus: Vec<Json> = (0..32)
        .map(|i| query_response(i % 7, i % 2 == 0))
        .chain([
            Json::Obj(vec![
                ("status".to_owned(), Json::Str("ok".to_owned())),
                ("domains".to_owned(), Json::num(6.0)),
            ]),
            Json::Obj(vec![(
                "error".to_owned(),
                Json::Str("field \"values\" must not be empty".to_owned()),
            )]),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
        ])
        .collect();
    let mut scratch = String::new();
    for value in &corpus {
        let allocating = value.render();
        scratch.clear();
        value.render_into(&mut scratch);
        assert_eq!(scratch, allocating, "renderers diverged on {allocating}");
    }
}
