//! # lshe-bench
//!
//! Experiment harness for the LSH Ensemble reproduction. Each `fig*`,
//! `table4` and `ablation_*` binary in `src/bin/` regenerates one table or
//! figure of the paper's evaluation section; this library holds the
//! shared machinery so every experiment uses identical corpus handling,
//! threading, and metric conventions.
//!
//! Run any experiment with:
//!
//! ```text
//! cargo run --release -p lshe-bench --bin fig4_accuracy_vs_threshold -- \
//!     --domains 65533 --queries 3000
//! ```
//!
//! Two binaries are not figures: `mutation_path` times the commit, seal
//! and rebuild paths (the numbers in `BENCH_mutation.json`), and
//! `bench_gate` checks that file's bars — and, given a traced `perfbench`
//! result, the load-path bars. End-to-end and per-layer serving numbers
//! are `perfbench/`'s.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod report;
pub mod workload;

pub use args::Args;
