//! The serving benchmark: one workload per process, served in process over
//! loopback TCP by the shipped `ShardedEngine` + `ShardedServer` defaults,
//! driven by an open-loop Poisson generator and then saturated.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload <light-dense|heavy-weaved|lineup-churn> --seed <n> \
//!     [--seconds <n>] [--trace [0|1]] [--smoke]
//! ```
//!
//! Prints `name value unit` per metric, writes
//! `target/benchmark/<workload>.json` (and `<workload>.trace.json` with the
//! spans when traced), and ends with one JSON line holding the end-to-end
//! metrics, or the per-layer metrics when traced. Exits nonzero when a reply
//! differs from its serial reference, a version moves backwards, a ledger
//! does not close, or the generator ran too late to trust. README.md in
//! this directory has the metric table and how to read a trace.

mod drive;
mod probes;
mod run;
mod stack;
mod stats;
mod trace;
mod workload;

use run::{Config, Report};
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "benchmark --workload <light-dense|heavy-weaved|lineup-churn> [--seed N] \
                     [--seconds N] [--trace [0|1]] [--smoke]";

/// Where results and artifacts go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !out.seconds.is_finite() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                let given = it.peek().map(|s| s.as_str());
                out.trace = given != Some("0");
                if matches!(given, Some("0" | "1")) {
                    it.next();
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

/// A JSON number; non-finite values (a percentile landing on a failed
/// request) are written as a huge finite one.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(report: &Report, correct: bool, metrics: &[&Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(metrics)
    )
}

fn write_results(report: &Report, args: &Args, correct: bool) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let all: Vec<&Metric> = report
        .end_to_end
        .iter()
        .chain(&report.context)
        .chain(&report.per_layer)
        .collect();
    let notes: Vec<String> = report.notes.kept.iter().map(|n| format!("{n:?}")).collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"violations\": {}, \"notes\": [{}], \"result\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        report.notes.count,
        notes.join(", "),
        result_line(report, correct, &all)
    );
    std::fs::write(dir.join(format!("{}.json", args.workload)), body)?;
    if args.trace {
        trace::write(
            &dir.join(format!("{}.trace.json", args.workload)),
            &args.workload,
            args.seed,
            &report.spans,
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::find(&args.workload) else {
        eprintln!("unknown workload {:?}\nusage: {USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        dir: PathBuf::from(OUT_DIR).join(format!("artifacts-{}", std::process::id())),
    };
    let outcome = run::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in report
        .end_to_end
        .iter()
        .chain(&report.context)
        .chain(&report.per_layer)
    {
        println!("{} {} {}", m.name, num(m.value), m.unit);
    }
    for n in &report.notes.kept {
        eprintln!("VIOLATION: {n}");
    }
    let correct = report.notes.count == 0;
    if let Err(e) = write_results(&report, &args, correct) {
        eprintln!("could not write results under {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let shown: Vec<&Metric> = if args.trace {
        report.per_layer.iter().collect()
    } else {
        report.end_to_end.iter().collect()
    };
    println!("{}", result_line(&report, correct, &shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::WORKLOADS;

    /// The repository's benchmark declaration.
    const DECLARED: &str = include_str!("../../../../../BENCHMARK.json");

    /// The string value of `key` in every entry of one `BENCHMARK.json`
    /// section (the file is flat enough to scan without a JSON parser).
    fn declared(section: &str, key: &str) -> Vec<String> {
        let start = DECLARED
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &DECLARED[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("value opens") + 1;
                let close = open + rest[open..].find('"').expect("value closes");
                rest[open..close].to_string()
            })
            .collect()
    }

    fn declared_metrics(section: &str) -> Vec<(String, String)> {
        let mut v: Vec<_> = declared(section, "name")
            .into_iter()
            .zip(declared(section, "unit"))
            .collect();
        v.sort();
        v
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn pairs(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut v: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    fn smoke(name: &str, trace: bool) -> Report {
        let cfg = Config {
            workload: workload::find(name).expect("known workload"),
            seed: 5,
            seconds: 1.0,
            trace,
            smoke: true,
            dir: std::env::temp_dir().join(format!("csp-benchmark-{name}-{}", std::process::id())),
        };
        let report = run::run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.dir);
        let report = report.unwrap_or_else(|e| panic!("{name} smoke run failed: {e}"));
        assert_eq!(
            report.notes.count, 0,
            "{name} gates failed: {:?}",
            report.notes.kept
        );
        assert!(report.attempted > 0);
        report
    }

    #[test]
    fn traced_smoke_run_passes_the_gates_and_emits_exactly_the_declared_metrics() {
        let report = smoke("light-dense", true);
        for (section, metrics) in [
            ("end_to_end", &report.end_to_end),
            ("per_layer", &report.per_layer),
        ] {
            let want = declared_metrics(section);
            assert_eq!(
                pairs(metrics),
                want,
                "{section} differs from BENCHMARK.json"
            );
            for (name, _) in &want {
                assert!(valid_name(name), "bad metric name {name:?}");
            }
        }
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(declared("workloads", "name"), ours);
        assert!(ours.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn heavy_weaved_smoke_run_passes_the_gates() {
        smoke("heavy-weaved", false);
    }

    #[test]
    fn lineup_churn_smoke_run_passes_the_gates() {
        smoke("lineup-churn", false);
    }

    #[test]
    fn arguments_parse_in_both_trace_spellings() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload light-dense --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "light-dense".into(),
                seed: 3,
                seconds: 10.0,
                trace: true,
                smoke: false
            }
        );
        assert!(!parse(&argv("--workload x --trace 0")).unwrap().trace);
        let b = parse(&argv("--workload x --trace --smoke")).unwrap();
        assert!(b.trace && b.smoke);
        assert!(parse(&argv("--seed 3")).is_err());
        assert!(parse(&argv("--workload x --bogus")).is_err());
        assert!(parse(&argv("--workload x --seconds 0")).is_err());
    }
}
