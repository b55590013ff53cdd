//! Shared harness for the evaluation reproduction (Tables 4–8).
//!
//! Each `table*` binary regenerates one table of the paper's evaluation
//! section; this library holds the run helpers they share with the
//! criterion micro-benchmarks, plus the fixtures that feed and check
//! the job service: the corpus as request lines
//! ([`corpus_submit_lines`], [`corpus_explore_lines`]), the TCP soak
//! client ([`soak`]) and the streaming-script recorder ([`stream`]).

pub mod cli;
pub mod redos;
pub mod soak;
pub mod stream;

use corpus::{DseProgram, LibraryWorkload};
use expose_core::SupportLevel;
use expose_dse::parser::parse_program;
use expose_dse::{run_dse, EngineConfig, Harness, Report};
use expose_service::json::escaped;
use strsolve::SolverConfig;

/// Budget preset for the DSE experiments.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum executions per program.
    pub executions: usize,
    /// Interpreter step budget per execution.
    pub steps: u64,
}

impl Budget {
    /// A quick budget for benches and CI. Generous enough in
    /// executions that the generational search re-visits shared path
    /// prefixes — the regime the cross-query caches are built for (and
    /// the regime real DSE runs spend their time in).
    pub fn quick() -> Budget {
        Budget {
            executions: 40,
            steps: 50_000,
        }
    }

    /// The budget used by the table binaries.
    pub fn full() -> Budget {
        Budget {
            executions: 48,
            steps: 100_000,
        }
    }

    /// The preset a command line names: `quick` or `full`.
    pub fn named(name: &str) -> Option<Budget> {
        match name {
            "quick" => Some(Budget::quick()),
            "full" => Some(Budget::full()),
            _ => None,
        }
    }
}

/// The standard benchmark corpus (the eleven Table 6 library workloads
/// plus `generated` Table 7 programs) as NDJSON `submit` lines — the
/// input of the `service-smoke` CI job and the throughput bench.
pub fn corpus_submit_lines(generated: usize, budget: Budget) -> Vec<String> {
    corpus_lines(generated, |name, source, entry, arity| {
        expose_service::submit_line(name, entry, arity, source, budget.executions, budget.steps)
    })
}

/// The same corpus as protocol-v2 `explore` lines, each running an
/// `iterations`-bounded pure-concolic loop — the input of the
/// `explore-smoke` CI job, whose response stream must be byte-identical
/// at any flip worker count.
pub fn corpus_explore_lines(generated: usize, budget: Budget, iterations: usize) -> Vec<String> {
    let max_steps = budget.steps;
    corpus_lines(generated, |name, source, entry, arity| {
        format!(
            "{{\"v\":2,\"type\":\"explore\",\"name\":{},\"entry\":{},\"arity\":{arity},\
             \"iterations\":{iterations},\"max_steps\":{max_steps},\
             \"program\":{}}}",
            escaped(name),
            escaped(entry),
            escaped(source),
        )
    })
}

/// Renders every corpus program, library workloads first, through
/// `line(name, source, entry, arity)`.
fn corpus_lines(generated: usize, line: impl Fn(&str, &str, &str, usize) -> String) -> Vec<String> {
    let mut lines: Vec<String> = corpus::library_workloads()
        .iter()
        .map(|w| line(w.name, w.source, w.entry, w.arity))
        .collect();
    for p in corpus::generate_dse_programs(generated, 0xbe7c) {
        lines.push(line(&p.name, &p.source, &p.entry, p.arity));
    }
    lines
}

/// Engine configuration for a support level and budget.
pub fn engine_config(support: SupportLevel, budget: Budget) -> EngineConfig {
    EngineConfig {
        support,
        max_executions: budget.executions,
        max_steps: budget.steps,
        solver: SolverConfig::default(),
        ..EngineConfig::default()
    }
}

/// Runs one Table 6 library workload at a support level.
pub fn run_workload(workload: &LibraryWorkload, support: SupportLevel, budget: Budget) -> Report {
    let program = parse_program(workload.source)
        .unwrap_or_else(|e| panic!("workload {} must parse: {e}", workload.name));
    let harness = Harness::strings(workload.entry, workload.arity);
    run_dse(&program, &harness, &engine_config(support, budget))
}

/// Runs one generated Table 7 program at a support level.
pub fn run_generated(program: &DseProgram, support: SupportLevel, budget: Budget) -> Report {
    let parsed = parse_program(&program.source)
        .unwrap_or_else(|e| panic!("program {} must parse: {e}", program.name));
    let harness = Harness::strings(&program.entry, program.arity);
    run_dse(&parsed, &harness, &engine_config(support, budget))
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Geometric mean of (strictly positive) ratios.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-9).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_lines_parse_as_submits() {
        let lines = corpus_submit_lines(3, Budget::quick());
        assert_eq!(lines.len(), 11 + 3);
        for line in &lines {
            let (request, _) = expose_service::parse_request(line).expect("parses");
            let expose_service::Request::Submit(submit) = request else {
                panic!("submit line");
            };
            assert_eq!(submit.max_executions, Some(40));
            assert_eq!(submit.max_steps, Some(50_000));
            // Programs must survive the JSON round trip intact.
            parse_program(&submit.program).expect("program parses");
        }
    }

    #[test]
    fn budgets_differ() {
        let limits = |b: Budget| (b.executions, b.steps);
        assert_eq!(limits(Budget::quick()), (40, 50_000));
        assert_eq!(limits(Budget::full()), (48, 100_000));
        assert_eq!(Budget::named("quick").map(limits), Some((40, 50_000)));
        assert_eq!(Budget::named("full").map(limits), Some((48, 100_000)));
        assert!(Budget::named("huge").is_none());
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn workloads_all_parse_and_run() {
        for w in corpus::library_workloads() {
            let report = run_workload(
                &w,
                SupportLevel::Concrete,
                Budget {
                    executions: 1,
                    steps: 10_000,
                },
            );
            assert!(report.executions >= 1, "{} must execute", w.name);
        }
    }
}
