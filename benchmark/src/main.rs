//! The repository benchmark: end-to-end metrics of four seeded
//! workloads and, in a separate traced run, a per-layer split.
//!
//! ```text
//! expose-benchmark --workload dse-cold|dse-warm|service|explore|all
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! expose-benchmark --write-golden [--seed N]
//! ```
//!
//! Each run prints a table (one row per metric, with its unit and
//! sample count) and, as the last line of standard output, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` beside this crate for the workloads and metrics.

mod golden;
mod inputs;
mod layers;
mod report;
mod service;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;
use workloads::{timed_setup, Caching, SETUP_REPS};

const WORKLOADS: [&str; 4] = ["dse-cold", "dse-warm", "service", "explore"];

const USAGE: &str = "usage: expose-benchmark --workload dse-cold|dse-warm|service|explore|all \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     expose-benchmark --write-golden [--seed N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--write-golden" => args.write_golden = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(golden::GOLDEN_FILE)
}

/// Runs one workload (set-up repeated [`SETUP_REPS`] times, then the
/// untraced or traced measurement).
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let path = golden_path();
    match name {
        "dse-cold" | "dse-warm" => {
            let caching = if name == "dse-cold" {
                Caching::Cold
            } else {
                Caching::Warm
            };
            let (prepared, setup_s) = timed_setup(
                SETUP_REPS,
                || workloads::prepare_dse(seed, caching, &path),
                |_| Ok(()),
            )?;
            if trace {
                Ok(workloads::dse_traced(&prepared))
            } else {
                workloads::dse_untraced(&prepared, setup_s, seconds)
            }
        }
        "explore" => {
            let (prepared, setup_s) = timed_setup(
                SETUP_REPS,
                || workloads::prepare_explore(seed, &path),
                |_| Ok(()),
            )?;
            if trace {
                Ok(workloads::explore_traced(&prepared))
            } else {
                workloads::explore_untraced(&prepared, setup_s, seconds)
            }
        }
        "service" => {
            let (prepared, setup_s) = timed_setup(
                SETUP_REPS,
                || service::prepare(seed, &path),
                service::discard,
            )?;
            if trace {
                service::traced(prepared, seconds)
            } else {
                service::untraced(prepared, setup_s, seconds)
            }
        }
        other => Err(format!("unknown workload {other}")),
    }
}

/// Recomputes the golden table for the job sets of `seed` from the
/// serial reference configuration and writes it.
fn write_golden(seed: u64) -> Result<(), String> {
    let mut golden = golden::Golden::default();
    let dse = inputs::parse_all(&inputs::program_specs(inputs::DSE_GENERATED, seed))?;
    let explore = inputs::parse_all(&inputs::program_specs(inputs::EXPLORE_GENERATED, seed))?;
    let computed = golden.fill_dse(&dse) + golden.fill_explore(&explore);
    let path = golden_path();
    std::fs::write(&path, golden.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {computed} golden entries to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("expose-benchmark: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.write_golden {
        return match write_golden(args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("expose-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for name in names {
        let outcome = match run_workload(name, args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("expose-benchmark: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        debug_assert!(outcome
            .metrics
            .iter()
            .all(|m| report::valid_name(m.name) && report::valid_unit(m.unit)));
        if args.trace {
            print!("{}", report::layer_table(name, &outcome));
        }
        outcomes.push((name, outcome));
    }
    if !args.trace {
        let rows: Vec<(&str, &Outcome)> = outcomes.iter().map(|(n, o)| (*n, o)).collect();
        print!("{}", report::end_to_end_table(&rows));
    }
    let combined = match outcomes.as_slice() {
        [(_, only)] => only.clone(),
        // The JSON line of a combined run carries only the totals; the
        // tables above hold each workload's metrics.
        all => Outcome {
            attempted: all.iter().map(|(_, o)| o.attempted).sum(),
            failed: all.iter().map(|(_, o)| o.failed).sum(),
            ..Outcome::default()
        },
    };
    println!("{}", report::json_line(&combined));
    ExitCode::SUCCESS
}
