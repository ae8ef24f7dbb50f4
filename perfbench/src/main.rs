//! `perfbench`: the repository's benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.

mod check;
mod config;
mod corpus;
mod estimators;
mod http;
mod layers;
mod load;
mod procfs;
mod run;
mod script;
mod selfcheck;
mod server;
mod trace;

use config::Workload;
use run::{Metric, Report, RunArgs};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perfbench run --workload W --seed N [--seconds S] [--trace 0|1] [--scale F]
       perfbench selfcheck [--seeds A,B,C] [--seconds S] [--scale F]
workloads: probe-small sketch-large cache-hot ingest-mixed
Run from the root of the lshe checkout.";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [name, value] if name.starts_with("--") => {
                    pairs.push((name[2..].to_owned(), value.clone()));
                }
                _ => return Err(format!("expected `--flag value`, got {pair:?}")),
            }
        }
        Ok(Self(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse {v:?}"))
            })
            .transpose()
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    flags.known(&["workload", "seed", "seconds", "trace", "scale"])?;
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds = flags.get("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let scale = flags.get("scale")?.unwrap_or(1.0);
    if !(seconds > 0.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be positive and --scale in (0, 1]".to_owned());
    }
    Ok(RunArgs {
        workload,
        seed: flags.get("seed")?.ok_or("--seed is required")?,
        seconds,
        trace: match flags.get::<u8>("trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        scale,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// The result line the driver reads: exactly these four keys.
fn result_json(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    )
}

/// Every metric by name with its unit, for people; then the result line.
fn print_report(report: &Report) {
    let args = &report.args;
    println!(
        "# perfbench {} seed={} seconds={} trace={} scale={}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        if args.scale == 1.0 {
            ""
        } else {
            "  [SMOKE RUN: comparable with nothing]"
        }
    );
    let declared = config::Declared::load();
    if let Some((_, why)) = declared
        .workloads
        .iter()
        .find(|(name, _)| name == args.workload.name())
    {
        println!("# why: {why}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let extras: &[Metric] = if args.trace { &[] } else { &report.witness };
    for m in report.metrics.iter().chain(extras) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("# noisy: {}", report.noisy);
    println!("{}", result_json(report));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = std::env::current_dir().expect("current directory is readable");
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Flags::parse(rest)
            .and_then(|flags| run_args(&flags))
            .and_then(|args| run::run(&root, &args).map_err(|e| e.to_string()))
            .map(|report| {
                print_report(&report);
                report.correct
            }),
        Some((cmd, rest)) if cmd == "selfcheck" => Flags::parse(rest).and_then(|flags| {
            flags.known(&["seeds", "seconds", "scale"])?;
            let seeds: String = flags.get("seeds")?.unwrap_or_else(|| "1,2,3".to_owned());
            let seeds = seeds
                .split(',')
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("--seeds: cannot parse {s:?}"))
                })
                .collect::<Result<Vec<u64>, _>>()?;
            let seconds = flags.get("seconds")?.unwrap_or(DEFAULT_SECONDS);
            let scale = flags.get("scale")?.unwrap_or(1.0);
            selfcheck::selfcheck(&root, &seeds, seconds, scale).map_err(|e| e.to_string())
        }),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: the run's outputs were not all correct");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
