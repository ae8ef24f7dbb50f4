//! # lshe-bench
//!
//! Experiment harness for the LSH Ensemble reproduction. `accuracy` measures
//! the paper's accuracy claim (§6.1, Figures 4–7) as one table, and each
//! `fig*` and `table4` binary in `src/bin/` regenerates one other table or
//! figure; this library holds the shared machinery so every experiment
//! uses identical corpus handling, threading, and metric conventions.
//!
//! Run an experiment with:
//!
//! ```text
//! cargo run --release -p lshe-bench --bin accuracy -- \
//!     --domains 20000 --queries 300 --seed 42
//! ```
//!
//! `mutation_path` times the commit, seal and rebuild paths (the numbers in
//! `BENCH_mutation.json`), and `bench_gate` checks that file's bars, the
//! `accuracy` table against `BENCH_accuracy.json` and, given a traced
//! `perfbench` result, the load-path bars. End-to-end and per-layer serving
//! numbers are `perfbench/`'s.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod report;
pub mod workload;

pub use args::Args;
