//! Checks the bars the repository holds its recorded numbers to, naming
//! each violated bar and exiting non-zero.
//!
//! ```text
//! cargo run --release -p lshe-bench --bin bench_gate -- mutation.out [perfbench.out] [accuracy.out]
//! ```
//!
//! Each argument is a file, whose document is the whole file or its last
//! line. The output of `mutation_path` — a document with a `mutation`
//! object, as is `BENCH_mutation.json` — is held to the commit-flatness and
//! write-amplification bars; the output of a traced `perfbench run` — a
//! document with a `metrics` object — to the two load-path bars, in
//! perfbench's metric names; the output of `accuracy` — a document with an
//! `accuracy` object — to the curve recorded in `BENCH_accuracy.json`, cell
//! by cell.

use lshe_corpus::json::{Json, JsonError};
use std::process::ExitCode;

use Cmp::{Ge, Le};

enum Cmp {
    Le,
    Ge,
}

/// `(lhs, cmp, factor, rhs)`: the bar `lhs cmp factor × rhs` over two named
/// numbers of the document, an absent `rhs` standing for 1.
struct Bar(&'static str, Cmp, f64, Option<&'static str>);

/// Over `mutation.metrics` of `mutation_path`'s output. A seal — and
/// `Engine::commit_staged` around it, unless a commit copies the base —
/// costs O(staged delta), so both stay flat across the 10x corpus sweep,
/// while the rebuild they replaced grows with the corpus: the O(corpus)
/// work left the commit path, it did not just get faster. The churn's
/// leveled merges rewrite each inserted entry once per level it climbs:
/// at level-0 capacity 128 and fanout 4, at most three levels, into
/// segments of up to 8 192 entries.
const MUTATION_BARS: &[Bar] = &[
    Bar("seal_flatness_10x", Le, 2.0, None),
    Bar("engine_commit_flatness_10x", Le, 2.0, None),
    Bar("rebuild_growth_10x", Ge, 4.0, None),
    Bar("leveled_write_amp_20k", Le, 3.0, None),
];

/// Over `metrics` of a traced perfbench result: serving from the mapping
/// costs at most 1.2x a heap query, and the structural mmap open (us) is at
/// least 100x faster than the heap load (s).
const LOAD_BARS: &[Bar] = &[
    Bar("store.mmap_query_ratio", Le, 1.2, None),
    Bar("serve.container.load_s", Ge, 100e-6, Some("store.open_us")),
];

/// The recorded accuracy curve. Each cell holds its metrics and, per
/// metric, a `tol`: the metric's spread over five other seeds.
const ACCURACY: &str = include_str!("../../../../BENCH_accuracy.json");

impl Bar {
    fn check(&self, number: impl Fn(&str) -> Option<f64>) -> Result<(), String> {
        let Self(lhs, cmp, factor, rhs) = self;
        let get = |name: &str| number(name).ok_or(format!("{name}: missing or not a number"));
        let value = get(lhs)?;
        let (bound, of) = match rhs {
            Some(rhs) => (factor * get(rhs)?, format!(" = {factor} x {rhs}")),
            None => (*factor, String::new()),
        };
        let (holds, sign) = match cmp {
            Le => (value <= bound, "<="),
            Ge => (value >= bound, ">="),
        };
        if holds {
            return Ok(());
        }
        Err(format!("{lhs} = {value}, bar is {sign} {bound}{of}"))
    }
}

fn broken(bars: &[Bar], number: impl Fn(&str) -> Option<f64>) -> Vec<String> {
    let failed = bars.iter().filter_map(|bar| bar.check(&number).err());
    failed.collect()
}

/// A `params` mismatch, or else each recorded cell `measured` lacks or
/// holds more than the cell's `tol` below its recorded value.
fn accuracy_violations(measured: &Json, recorded: &Json) -> Vec<String> {
    let (got, want) = (measured.get("params"), recorded.get("params"));
    if got != want {
        let [got, want] = [got, want].map(|p| p.map(Json::render).unwrap_or_default());
        return vec![format!("params: {got}, recorded {want}")];
    }
    let Some(Json::Obj(cells)) = recorded.get("cells") else {
        return vec!["recorded cells: not an object".to_owned()];
    };
    let mut out = Vec::new();
    for (key, want) in cells {
        let Some(got) = measured.get("cells").and_then(|c| c.get(key)) else {
            out.push(format!("{key}: missing"));
            continue;
        };
        for metric in ["precision", "recall", "tail_recall"] {
            let Some(recorded) = want.get(metric).and_then(Json::as_f64) else {
                continue;
            };
            let tol = want.get("tol").and_then(|t| t.get(metric)?.as_f64());
            let bar = recorded - tol.unwrap_or(0.0);
            match got.get(metric).and_then(Json::as_f64) {
                Some(value) if value >= bar => {}
                Some(value) => out.push(format!(
                    "{key}: {metric} = {value:.4}, bar is >= {bar:.4} = {recorded:.4} - tol"
                )),
                None => out.push(format!("{key}: {metric} missing or not a number")),
            }
        }
    }
    out
}

/// Every bar of its kind the document violates; empty when all hold.
fn violations(doc: &Json) -> Vec<String> {
    if let Some(measured) = doc.get("accuracy") {
        let baseline = Json::parse(ACCURACY).expect("BENCH_accuracy.json parses");
        let recorded = baseline.get("accuracy").expect("it holds the curve");
        return accuracy_violations(measured, recorded);
    }
    if let Some(metrics) = doc.get("metrics") {
        return broken(LOAD_BARS, |name| metrics.get(name)?.get("value")?.as_f64());
    }
    let metrics = doc.get("mutation").and_then(|m| m.get("metrics"));
    let number = |name: &str| metrics?.get(name)?.as_f64();
    let mut out = broken(MUTATION_BARS, number);
    for series in ["commit_seal_us", "compact_rebuild_us", "engine_commit_us"] {
        for point in ["1x", "2x", "4x", "10x", "20x"] {
            let key = format!("{series}_{point}");
            if number(&key).is_none() {
                out.push(format!("{key}: missing or not a number"));
            }
        }
    }
    out
}

/// Parses `text` — or, a bin printing its tables first, its last line —
/// and checks it.
fn gate(text: &str) -> Result<Vec<String>, JsonError> {
    let text = text.trim_end();
    let doc = Json::parse(text).or_else(|whole| {
        let last = text.lines().last().unwrap_or_default();
        Json::parse(last).map_err(|_| whole)
    })?;
    Ok(violations(&doc))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: bench_gate <mutation_path output | traced perfbench output | accuracy output>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| gate(&text).map_err(|e| e.to_string()));
        let broken = checked.unwrap_or_else(|e| vec![e]);
        if broken.is_empty() {
            println!("{path}: every bar holds");
        }
        failed |= !broken.is_empty();
        broken.iter().for_each(|b| eprintln!("{path}: {b}"));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../../BENCH_mutation.json");

    /// The committed baseline's `mutation.metrics`, edited by `edit`, as
    /// the last line of a `mutation_path` run would print it.
    fn baseline_with(edit: impl FnOnce(&mut Vec<(String, Json)>)) -> Vec<String> {
        let mut doc = Json::parse(BASELINE).expect("parses");
        let mutation = field(&mut doc, "mutation");
        let Json::Obj(metrics) = field(mutation, "metrics") else {
            panic!("metrics is an object");
        };
        edit(metrics);
        let line = Json::obj(vec![("mutation", mutation.clone())]);
        gate(&format!("domains\tcommit_seal_us\n{}\n", line.render())).expect("parses")
    }

    /// `metrics[key]` replaced, or removed.
    fn set(key: &str, value: Option<f64>) -> impl FnOnce(&mut Vec<(String, Json)>) + '_ {
        move |metrics| {
            metrics.retain(|(k, _)| k != key);
            metrics.extend(value.map(|v| (key.to_owned(), Json::num(v))));
        }
    }

    #[test]
    fn committed_baseline_holds_every_bar() {
        assert_eq!(gate(BASELINE), Ok(Vec::new()));
        assert_eq!(baseline_with(|_| {}), Vec::<String>::new());
    }

    #[test]
    fn each_violated_or_absent_bar_is_named_alone() {
        for (key, bad) in [
            ("seal_flatness_10x", Some(2.5)),
            ("engine_commit_flatness_10x", Some(3.0)),
            ("rebuild_growth_10x", Some(3.9)),
            ("leveled_write_amp_20k", Some(3.1)),
            ("rebuild_growth_10x", None),
            ("leveled_write_amp_20k", None),
        ] {
            let broken = baseline_with(set(key, bad));
            assert_eq!(broken.len(), 1, "{key}: {broken:?}");
            assert!(broken[0].contains(key), "{key}: {broken:?}");
        }
    }

    #[test]
    fn an_o_corpus_seal_is_named() {
        // A commit that rebuilds the base grows with the corpus as the
        // rebuild does: seal_flatness_10x reads rebuild_growth_10x.
        let doc = Json::parse(BASELINE).expect("parses");
        let metrics = doc.get("mutation").and_then(|m| m.get("metrics"));
        let growth = metrics.and_then(|m| m.get("rebuild_growth_10x")?.as_f64());
        let broken = baseline_with(set("seal_flatness_10x", growth));
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].starts_with("seal_flatness_10x = "), "{broken:?}");
    }

    #[test]
    fn a_missing_sweep_point_is_named() {
        let key = "engine_commit_us_4x";
        let broken = baseline_with(set(key, None));
        assert_eq!(broken, [format!("{key}: missing or not a number")]);
    }

    #[test]
    fn malformed_documents_are_typed_errors_and_wrong_shapes_fail_every_bar() {
        for text in ["", "{\"mutation\": {", "not json\nnor this"] {
            assert!(gate(text).is_err(), "{text:?}");
        }
        for text in [
            "[]",
            "{\"mutation\": 3}",
            "{\"speedups\": {}, \"benches\": {}}",
        ] {
            assert_eq!(gate(text).expect("parses").len(), 4 + 15, "{text}");
        }
    }

    #[test]
    fn perfbench_result_line_is_held_to_the_load_path_bars() {
        let run = |ratio: f64, load_s: f64, open_us: f64| {
            let metric = |v: f64| Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(""))]);
            let metrics = Json::obj(vec![
                ("store.mmap_query_ratio", metric(ratio)),
                ("serve.container.load_s", metric(load_s)),
                ("store.open_us", metric(open_us)),
            ]);
            let line = Json::obj(vec![("correct", Json::Bool(true)), ("metrics", metrics)]);
            gate(&format!("metric  value  unit\n{}\n", line.render())).expect("parses")
        };
        assert!(run(0.9, 0.05, 4.0).is_empty());
        let slow_queries = run(1.3, 0.05, 4.0);
        assert_eq!(slow_queries.len(), 1);
        assert!(slow_queries[0].contains("store.mmap_query_ratio"));
        // 0.05 s against 600 us is 83x.
        let slow_open = run(0.9, 0.05, 600.0);
        assert_eq!(slow_open.len(), 1);
        assert!(slow_open[0].contains("serve.container.load_s"));
        let absent = gate("{\"metrics\": {}}").expect("parses");
        assert_eq!(absent.len(), 2);
    }

    /// `obj[key]`, which must be there.
    fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(fields) = obj else {
            panic!("{key}: parent is an object");
        };
        let found = fields.iter_mut().find(|(k, _)| k == key);
        &mut found.unwrap_or_else(|| panic!("{key} is there")).1
    }

    /// The committed accuracy curve with `edit` applied to its `accuracy`.
    fn accuracy_with(edit: impl FnOnce(&mut Json)) -> Vec<String> {
        let mut doc = Json::parse(ACCURACY).expect("parses");
        edit(field(&mut doc, "accuracy"));
        gate(&format!("# accuracy\n{}\n", doc.render())).expect("parses")
    }

    /// The committed curve with `cells[key][metric]` lowered by `by(tol)`.
    fn lowered(key: &str, metric: &str, by: impl Fn(f64) -> f64) -> Vec<String> {
        accuracy_with(|acc| {
            let cell = field(field(acc, "cells"), key);
            let tol = field(field(cell, "tol"), metric).as_f64().expect("tol");
            let value = field(cell, metric);
            *value = Json::num(value.as_f64().expect("value") - by(tol));
        })
    }

    const SHIPPED_ALL_05: &str = "threshold/shipped (built)/all/0.5";

    #[test]
    fn committed_accuracy_curve_holds() {
        assert_eq!(gate(ACCURACY), Ok(Vec::new()));
    }

    #[test]
    fn an_accuracy_cell_lowered_past_its_tol_is_named_alone() {
        let skew = "skew/LSH Ensemble (32)/subset 10/0.5";
        assert_eq!(
            lowered(skew, "recall", |tol| 0.99 * tol),
            Vec::<String>::new()
        );
        for (key, metric) in [(skew, "recall"), (SHIPPED_ALL_05, "tail_recall")] {
            let broken = lowered(key, metric, |tol| 1.01 * tol);
            assert_eq!(broken.len(), 1, "{broken:?}");
            assert!(
                broken[0].starts_with(&format!("{key}: {metric} = ")),
                "{broken:?}"
            );
        }
    }

    #[test]
    fn a_missing_accuracy_cell_is_named() {
        let key = "num_perm/m=512/all/0.5";
        let broken = accuracy_with(|acc| {
            let Json::Obj(cells) = field(acc, "cells") else {
                panic!("cells is an object");
            };
            cells.retain(|(k, _)| k != key);
        });
        assert_eq!(broken, [format!("{key}: missing")]);
    }

    #[test]
    fn an_accuracy_params_mismatch_is_named() {
        let broken =
            accuracy_with(|acc| *field(field(acc, "params"), "domains") = Json::uint(2000));
        let recorded = r#"{"domains":20000,"queries":300,"seed":42}"#;
        let measured = recorded.replace("20000", "2000");
        assert_eq!(broken, [format!("params: {measured}, recorded {recorded}")]);
    }

    #[test]
    fn the_probes_shipped_precision_drop_fails_the_gate() {
        // Widening ESTIMATE_SLACK from 0.1 to 0.3 took the shipped index's
        // precision at t = 0.5 from 0.909 to 0.783.
        let broken = lowered(SHIPPED_ALL_05, "precision", |_| 0.126);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].starts_with(&format!("{SHIPPED_ALL_05}: precision = ")));
    }
}
