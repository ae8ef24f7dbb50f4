//! `perfbench selfcheck`: two independent sets of runs of the same build
//! must agree within the benchmark's own bounds, or no comparison made
//! with it means anything.

use crate::config::{Declared, Workload};
use crate::estimators::median;
use crate::run::{self, Report, RunArgs};
use std::io;
use std::path::Path;

/// Results that are counts or pure functions of the served answers: for a
/// given `(workload, seed)` they must repeat exactly, not just closely.
const EXACT: [&str; 3] = ["recall", "precision", "disk_bytes_per_domain"];

/// Printed beside the end-to-end metrics, without a bound: the timings an
/// untraced run measures but `BENCHMARK.json` does not gate.
const UNGATED: [&str; 3] = ["qps", "p50_us", "cpu_us_per_request"];

/// One set: every workload on every seed, untraced.
fn run_set(root: &Path, seeds: &[u64], seconds: f64, scale: f64) -> io::Result<Vec<Report>> {
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        for &seed in seeds {
            let args = RunArgs {
                workload,
                seed,
                seconds,
                trace: false,
                scale,
            };
            let report = run::run(root, &args)?;
            eprintln!(
                "selfcheck: {} seed {seed}: correct={} noisy={}",
                workload.name(),
                report.correct,
                report.noisy
            );
            reports.push(report);
        }
    }
    Ok(reports)
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .chain(&report.witness)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("an untraced run reports {name}"))
        .value
}

/// Relative distance between two medians, as a share of the first.
fn disagreement(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs()
    }
}

/// Prints the table and returns whether the two sets agree.
pub fn selfcheck(root: &Path, seeds: &[u64], seconds: f64, scale: f64) -> io::Result<bool> {
    let declared = Declared::load();
    let first = run_set(root, seeds, seconds, scale)?;
    let second = run_set(root, seeds, seconds, scale)?;
    let mut agree = first.iter().chain(&second).all(|r| r.correct);
    if !agree {
        println!("a run's outputs were not all correct");
    }

    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    for workload in Workload::ALL {
        let of = |set: &[Report]| -> Vec<usize> {
            (0..set.len())
                .filter(|&i| set[i].args.workload == workload)
                .collect()
        };
        let rows = declared
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), Some(m.bound)))
            .chain(UNGATED.map(|name| (name, None)));
        for (name, bound) in rows {
            let medians: Vec<f64> = [&first, &second]
                .iter()
                .map(|set| {
                    let values: Vec<f64> = of(set).iter().map(|&i| value(&set[i], name)).collect();
                    median(&values).expect("at least one seed")
                })
                .collect();
            let diff = disagreement(medians[0], medians[1]);
            let ok = bound.is_none_or(|b| diff <= b);
            agree &= ok;
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>7}{}",
                workload.name(),
                name,
                medians[0],
                medians[1],
                100.0 * diff,
                bound.map_or("ungated".to_owned(), |b| format!("{:.0}%", 100.0 * b)),
                if ok { "" } else { "  DISAGREE" }
            );
        }
        // Same seed, same counts: the i-th run of each set is the same
        // (workload, seed).
        for i in of(&first) {
            let (a, b) = (&first[i], &second[i]);
            let mut differing: Vec<&str> = EXACT
                .into_iter()
                .filter(|name| value(a, name) != value(b, name))
                .collect();
            if (a.attempted, a.failed) != (b.attempted, b.failed) {
                differing.push("attempted/failed");
            }
            if !differing.is_empty() {
                agree = false;
                println!(
                    "{:<14} seed {}: exact-count results differ between the sets: {}",
                    workload.name(),
                    a.args.seed,
                    differing.join(", ")
                );
            }
        }
    }
    println!(
        "selfcheck: {}",
        if agree { "the sets agree" } else { "FAILED" }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_relative_to_the_first_median() {
        assert_eq!(disagreement(100.0, 100.0), 0.0);
        assert!((disagreement(100.0, 93.0) - 0.07).abs() < 1e-12);
        assert!((disagreement(100.0, 107.0) - 0.07).abs() < 1e-12);
        assert_eq!(disagreement(0.0, 0.0), 0.0);
    }
}
