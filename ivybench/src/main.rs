//! `ivybench` — the repository benchmark.
//!
//! ```text
//! ivybench --workload <cold_ladder|edit_loop> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. The run prints a line of workload facts
//! (`{"ivybench": {...}}`: host, sizes, the bases of every ratio) and, as
//! its last line, the result: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, and the spans are written to
//! `.ivybench/trace-<workload>-<seed>.json`. See `README.md` for the
//! workloads, the metrics and which layer moves which end-to-end metric.

mod checks;
mod edits;
mod layers;
mod stats;
mod trace;
mod workloads;

use serde_json::{Map, Value};
use std::process::ExitCode;
use workloads::{Args, Outcome, RUN_DIR, WORKLOADS};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn usage(message: &str) -> ExitCode {
    eprintln!("ivybench: {message}");
    eprintln!(
        "usage: ivybench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                // Negative seeds are accepted and reinterpreted as u64.
                args.seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|v| v as u64))
                    .map_err(|_| format!("bad seed {value:?}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    if let Err(e) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("ivybench: cannot create {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "cold_ladder" => workloads::cold_ladder(&args),
        _ => workloads::edit_loop(&args),
    };
    let mut facts = facts(&args, &outcome);
    if let Some(spans) = &outcome.trace {
        match workloads::write_trace(&args, spans) {
            Ok(path) => {
                facts.insert("trace_file".into(), Value::from(path.display().to_string()));
            }
            Err(e) => eprintln!("ivybench: trace not written: {e}"),
        }
    }
    for check in outcome.checks.iter().filter(|c| !c.passed()) {
        eprintln!(
            "ivybench: check failed: {}: {:?}",
            check.name, check.failures
        );
    }
    let mut line = Map::new();
    line.insert("ivybench".into(), Value::Object(facts));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).expect("serializes")
    );
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// Host facts and the workload's own facts.
fn facts(args: &Args, outcome: &Outcome) -> Map {
    let mut m = Map::new();
    m.insert("workload".into(), Value::from(args.workload.as_str()));
    m.insert("seed".into(), Value::from(args.seed));
    m.insert("seconds".into(), Value::from(args.seconds));
    m.insert("trace".into(), Value::from(args.trace));
    m.insert(
        "nproc".into(),
        Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
    );
    m.insert("threads".into(), Value::from(layers::THREADS));
    m.insert("git_rev".into(), Value::from(workloads::git_rev()));
    let checks: Vec<Value> = outcome
        .checks
        .iter()
        .map(|c| {
            let mut e = Map::new();
            e.insert("check".into(), Value::from(c.name.as_str()));
            e.insert("passed".into(), Value::from(c.passed()));
            Value::Object(e)
        })
        .collect();
    m.insert("checks".into(), Value::Array(checks));
    for (k, v) in &outcome.detail {
        m.insert(k.clone(), v.clone());
    }
    m
}

/// The result object printed as the last line.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Map::new();
    for &(name, value, unit) in &outcome.metrics {
        let mut m = Map::new();
        m.insert("value".into(), Value::from(value));
        m.insert("unit".into(), Value::from(unit));
        metrics.insert(name.into(), Value::Object(m));
    }
    let mut line = Map::new();
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.passed());
    line.insert("correct".into(), Value::from(correct));
    line.insert("attempted".into(), Value::from(outcome.attempted.max(1)));
    line.insert("failed".into(), Value::from(outcome.failed));
    line.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).expect("serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv(
            "--workload edit_loop --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("edit_loop", 7, 2.5, true)
        );
        let a = parse_args(&argv("--workload cold_ladder --seed -1")).unwrap();
        assert_eq!((a.seed, a.trace), (u64::MAX, false));
        assert_eq!(
            parse_args(&argv("--workload cold_ladder")).unwrap().seed,
            DEFAULT_SEED
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload edit_loop --trace 2")).is_err());
        assert!(parse_args(&argv("--workload edit_loop --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload edit_loop --seed")).is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and the metrics (with their units) this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is present");
        let bench = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            bench
                .get(key)
                .and_then(Value::as_array)
                .expect("list present")
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Value::as_str).map(String::from);
                    (field("name").expect("named"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let per_layer: Vec<(String, Option<String>)> = layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let end_to_end: Vec<(String, Option<String>)> = workloads::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);
    }
}
