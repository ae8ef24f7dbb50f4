//! A minimal JSON parser and JSON-Lines ingestion.
//!
//! Open-data portals publish "a mixture of relational (CSV and
//! spreadsheet), semi-structured (JSON and XML) … formats" (§1 of the
//! paper). This module covers the JSON side: a small, dependency-free
//! recursive-descent parser plus an ingestion path that turns a JSON-Lines
//! document (one object per line — the common bulk-export format) into
//! domains, one per top-level scalar field.
//!
//! The parser accepts the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) but the ingestion deliberately flattens
//! only **top-level scalar fields** — nested structure rarely maps onto the
//! "column = domain" model, and the paper's corpora are tabular.

use crate::catalog::{Catalog, DomainId, DomainMeta};
use crate::domain::Domain;
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as its source text (lossless, hashable).
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (field order preserved by sorted key).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The canonical byte representation of a *scalar* used for domain
    /// hashing, or `None` for null / arrays / objects.
    #[must_use]
    pub fn scalar_bytes(&self) -> Option<Vec<u8>> {
        match self {
            Self::Bool(b) => Some(if *b {
                b"true".to_vec()
            } else {
                b"false".to_vec()
            }),
            Self::Number(n) => Some(n.as_bytes().to_vec()),
            Self::String(s) => Some(s.as_bytes().to_vec()),
            Self::Null | Self::Array(_) | Self::Object(_) => None,
        }
    }
}

/// JSON parse errors with byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap, the same as `lshe-serve`'s request parser: one line
/// of `[[[[…` from a file must be a skipped line, not a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &'static [u8], value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        Ok(JsonValue::Number(text.to_owned()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected opening quote")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \u-escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\', "expected low surrogate")?;
                                self.expect(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unexpected low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (1–4 bytes).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let value = self.value(depth + 1)?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
/// [`JsonError`] with a byte offset on malformed input (including trailing
/// non-whitespace, and arrays or objects nested more than 64 deep).
pub fn parse_json(input: &[u8]) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input,
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

impl Catalog {
    /// Ingests a JSON-Lines buffer (one object per non-empty line): every
    /// top-level scalar field becomes a domain named after the field, with
    /// the field's distinct values across all lines. Fields with fewer than
    /// `min_size` distinct values are skipped, mirroring
    /// [`Catalog::ingest_csv`].
    ///
    /// Lines that fail to parse or are not objects are counted, not fatal —
    /// real open-data exports are messy, and a single bad record should not
    /// abort a bulk ingest. Returns `(ids, skipped_lines)`.
    pub fn ingest_jsonl(
        &mut self,
        table_name: &str,
        data: &[u8],
        min_size: usize,
    ) -> (Vec<DomainId>, usize) {
        let mut columns: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();
        let mut skipped = 0usize;
        for line in data.split(|&b| b == b'\n') {
            let trimmed: &[u8] = {
                let mut t = line;
                while t.first().is_some_and(|b| b.is_ascii_whitespace()) {
                    t = &t[1..];
                }
                while t.last().is_some_and(|b| b.is_ascii_whitespace()) {
                    t = &t[..t.len() - 1];
                }
                t
            };
            if trimmed.is_empty() {
                continue;
            }
            match parse_json(trimmed) {
                Ok(JsonValue::Object(fields)) => {
                    for (key, value) in fields {
                        if let Some(bytes) = value.scalar_bytes() {
                            columns.entry(key).or_default().push(bytes);
                        }
                    }
                }
                _ => skipped += 1,
            }
        }
        let mut ids = Vec::new();
        for (column, values) in columns {
            let domain = Domain::from_bytes_values(values.iter().map(Vec::as_slice));
            if domain.len() >= min_size {
                ids.push(self.push(domain, DomainMeta::new(table_name, column)));
            }
        }
        (ids, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JsonValue {
        parse_json(s.as_bytes()).expect("valid JSON")
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("null"), JsonValue::Null);
        assert_eq!(parse("true"), JsonValue::Bool(true));
        assert_eq!(parse("false"), JsonValue::Bool(false));
        assert_eq!(parse("42"), JsonValue::Number("42".into()));
        assert_eq!(parse("-3.25e+2"), JsonValue::Number("-3.25e+2".into()));
        assert_eq!(parse("\"hi\""), JsonValue::String("hi".into()));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\tA""#),
            JsonValue::String("a\"b\\c\nd\tA".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""😀""#), JsonValue::String("😀".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#);
        let JsonValue::Object(o) = v else {
            panic!("expected object")
        };
        assert_eq!(o.len(), 2);
        let JsonValue::Array(a) = &o["a"] else {
            panic!("expected array")
        };
        assert_eq!(a.len(), 3);
        assert_eq!(o["c"], JsonValue::String("x".into()));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" \n\t{ \"k\" :\r[ ] } ");
        assert_eq!(
            v,
            JsonValue::Object(BTreeMap::from([("k".into(), JsonValue::Array(vec![]))]))
        );
    }

    #[test]
    fn errors_have_offsets() {
        let err = parse_json(b"{\"a\": }").unwrap_err();
        assert_eq!(err.at, 6);
        assert!(parse_json(b"[1, 2").is_err());
        assert!(parse_json(b"12x").is_err()); // trailing garbage
        assert!(parse_json(b"\"\\u12").is_err());
        assert!(parse_json(b"\"\\ud800x\"").is_err()); // lone high surrogate
        assert!(parse_json(b"01").is_err() || parse_json(b"01").is_ok()); // leading zeros tolerated
    }

    #[test]
    fn deep_nesting_is_a_typed_error_and_a_skipped_line() {
        let nested = |depth: usize| [b"[".repeat(depth), b"]".repeat(depth)].concat();
        // The outermost value is at depth 0.
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!((err.message, err.at), ("nesting too deep", MAX_DEPTH + 1));
        // Deep enough to overflow a test thread's stack without the cap.
        let hostile = b"[".repeat(200_000);
        assert_eq!(parse_json(&hostile).unwrap_err(), err);
        let objects = b"{\"k\":".repeat(200_000);
        assert_eq!(
            parse_json(&objects).unwrap_err().message,
            "nesting too deep"
        );
        let lines = [b"{\"v\": 1}\n", &hostile[..], b"\n{\"v\": 2}\n"].concat();
        let mut catalog = Catalog::new();
        let (ids, skipped) = catalog.ingest_jsonl("t", &lines, 2);
        assert_eq!((ids.len(), skipped), (1, 1));
    }

    #[test]
    fn scalar_bytes_mapping() {
        assert_eq!(parse("true").scalar_bytes(), Some(b"true".to_vec()));
        assert_eq!(parse("1.5").scalar_bytes(), Some(b"1.5".to_vec()));
        assert_eq!(parse("\"x\"").scalar_bytes(), Some(b"x".to_vec()));
        assert_eq!(parse("null").scalar_bytes(), None);
        assert_eq!(parse("[]").scalar_bytes(), None);
    }

    #[test]
    fn jsonl_ingestion() {
        let data = br#"
{"city": "Toronto", "population": 2930000, "capital": false}
{"city": "Ottawa", "population": 994837, "capital": true}
{"city": "Montreal", "population": 1780000, "capital": false}
not json at all
{"city": "Toronto", "population": 2930000, "nested": {"ignored": 1}}
"#;
        let mut catalog = Catalog::new();
        let (ids, skipped) = catalog.ingest_jsonl("cities", data, 2);
        assert_eq!(skipped, 1);
        // city: 3 distinct; population: 3 distinct; capital: 2 distinct;
        // nested is non-scalar → ignored.
        assert_eq!(ids.len(), 3);
        let names: Vec<&str> = ids
            .iter()
            .map(|&id| catalog.meta(id).column.as_str())
            .collect();
        assert_eq!(names, vec!["capital", "city", "population"]);
        let city_id = ids[1];
        assert_eq!(catalog.domain(city_id).len(), 3);
    }

    #[test]
    fn jsonl_min_size_filters() {
        let data = b"{\"a\": 1, \"b\": 2}\n{\"a\": 1, \"b\": 3}\n";
        let mut catalog = Catalog::new();
        let (ids, _) = catalog.ingest_jsonl("t", data, 2);
        // a has 1 distinct value (dropped), b has 2.
        assert_eq!(ids.len(), 1);
        assert_eq!(catalog.meta(ids[0]).column, "b");
    }

    #[test]
    fn json_and_csv_values_share_the_universe() {
        // The same value ingested via JSON and CSV must hash identically,
        // so cross-format joins work.
        let mut catalog = Catalog::new();
        let (ids, _) = catalog.ingest_jsonl("j", b"{\"v\": \"Toronto\"}\n{\"v\": \"Ottawa\"}\n", 2);
        let csv_ids = catalog
            .ingest_csv_bytes("c", bytes::Bytes::from_static(b"v\nToronto\nOttawa\n"), 2)
            .expect("csv");
        assert_eq!(
            catalog.domain(ids[0]),
            catalog.domain(csv_ids[0]),
            "cross-format value universes diverged"
        );
    }
}
