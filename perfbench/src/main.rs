//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-spec
//! ```
//!
//! Prints one line per metric (name, value, unit) on standard error and,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 when every engine call
//! reproduced its expected digest, 1 when one did not (the result then
//! carries no metrics), and 2 on a usage error. `--workload all` runs
//! every workload in turn and prefixes each metric with its workload.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use citymesh_perfbench::catalog;
use citymesh_perfbench::json::result_line;
use citymesh_perfbench::measure::{self, Outcome, RunOptions};
use citymesh_perfbench::trace;
use citymesh_perfbench::workload::{Scale, Workload, DEFAULT_SEED};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where traced runs write their spans: beside the build output, which
/// is kept out of version control.
fn spans_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-spans")
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--print-spec") {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        let opts = RunOptions {
            workload,
            scale: Scale::Full,
            seed: args.seed,
            seconds: args.seconds,
            spans_dir: Some(spans_dir()),
        };
        let outcome: Outcome = if args.trace {
            trace::run(&opts)
        } else {
            measure::run(&opts)
        };
        for (name, value, unit) in &outcome.metrics {
            eprintln!("{:<22} {name:<36} {value:>16.6} {unit}", workload.name());
        }
        if let Some(d) = outcome.digest {
            eprintln!("{:<22} digest {d:016x}", workload.name());
        }
        if !outcome.correct {
            eprintln!(
                "{}: {} of {} engine calls did not reproduce the expected digest",
                workload.name(),
                outcome.failed,
                outcome.attempted
            );
        }
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        metrics.extend(outcome.metrics.into_iter().map(|(name, v, unit)| {
            let name = if single {
                name
            } else {
                format!("{}.{name}", workload.name())
            };
            (name, v, unit)
        }));
    }
    if !correct {
        metrics.clear();
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
