//! Parallel batch execution of DSE jobs.
//!
//! ExpoSE executes test cases as separate processes pinned to dedicated
//! cores, aggregating coverage as each terminates (§6.2: "the analysis
//! is highly scalable"). The unit of parallelism here is one *program*
//! (the per-program engine stays deterministic, so the reproduced tables
//! are stable). [`BatchOptions::run`] is the one-shot front door: it
//! starts a [`crate::sched::Scheduler`] pool for the batch — idle
//! workers take the next queued job instead of a static partition —
//! and collects the re-sequenced reports of one stream in input order.

use crate::ast::Program;
use crate::caching::CacheSet;
use crate::engine::{EngineConfig, Report};
use crate::interp::Harness;
use crate::sched::Scheduler;

/// One DSE job: a parsed program plus its harness and configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job label (package name in the evaluation).
    pub name: String,
    /// The program to execute.
    pub program: Program,
    /// Entry-point harness.
    pub harness: Harness,
    /// Engine configuration.
    pub config: EngineConfig,
}

/// Options for one batch run — the single batch entry point (the old
/// `run_batch`/`run_batch_with_caches` free functions are gone).
///
/// # Examples
///
/// ```
/// use expose_dse::{BatchOptions, EngineConfig, Harness, Job};
/// use expose_dse::parser::parse_program;
///
/// let jobs: Vec<Job> = (0..4)
///     .map(|i| Job {
///         name: format!("job{i}"),
///         program: parse_program(
///             r#"function f(x) { if (x === "k") { return 1; } return 0; }"#,
///         ).expect("parse"),
///         harness: Harness::strings("f", 1),
///         config: EngineConfig { max_executions: 4, ..EngineConfig::default() },
///     })
///     .collect();
/// let reports = BatchOptions::new().workers(2).run(jobs);
/// assert_eq!(reports.len(), 4);
/// assert!(reports.iter().all(|r| r.coverage_fraction() > 0.9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` means "auto" and clamps to
    /// `max(1, available_parallelism)`.
    pub workers: usize,
    /// Session cache set shared by the jobs. `None` builds one sized to
    /// the largest capacity any job requests.
    pub caches: Option<CacheSet>,
}

impl BatchOptions {
    /// Default options: auto worker count, a fresh cache set sized from
    /// the jobs.
    pub fn new() -> BatchOptions {
        BatchOptions::default()
    }

    /// Sets the worker thread count (`0` = auto).
    pub fn workers(mut self, workers: usize) -> BatchOptions {
        self.workers = workers;
        self
    }

    /// Shares a caller-provided session cache set, so several batches
    /// (or a batch and a service session) share models, verdicts and
    /// DFA tables.
    pub fn caches(mut self, caches: CacheSet) -> BatchOptions {
        self.caches = Some(caches);
        self
    }

    /// Runs the jobs, returning reports in input order.
    ///
    /// All jobs share one session cache set — regex models, solver
    /// verdicts, and the DFA intern tables — so a regex or query solved
    /// for one package is free for every other.
    ///
    /// # Panics
    ///
    /// Panics if a job panics (propagating the job's panic message).
    pub fn run(&self, jobs: Vec<Job>) -> Vec<Report> {
        let caches = self.caches.clone().unwrap_or_else(|| {
            CacheSet::session(
                jobs.iter()
                    .map(|j| j.config.model_cache_capacity)
                    .max()
                    .unwrap_or(0),
                jobs.iter()
                    .map(|j| j.config.query_cache_capacity)
                    .max()
                    .unwrap_or(0),
                jobs.iter()
                    .map(|j| j.config.solver.dfa_cache_capacity)
                    .max()
                    .unwrap_or(0),
            )
        });
        let n = jobs.len();
        let pool = Scheduler::start(self.workers, caches);
        let stream = pool.stream(0);
        for job in jobs {
            stream.submit(job);
        }
        stream.close();
        let mut reports = Vec::with_capacity(n);
        while let Some(completion) = stream.next_ordered() {
            match completion.outcome {
                Ok(report) => reports.push(report),
                Err(message) => panic!("batch job {} failed: {message}", completion.name),
            }
        }
        assert_eq!(reports.len(), n, "all jobs completed");
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_dse;
    use crate::parser::parse_program;

    fn job(name: &str, src: &str) -> Job {
        Job {
            name: name.into(),
            program: parse_program(src).expect("parse"),
            harness: Harness::strings("f", 1),
            config: EngineConfig {
                max_executions: 4,
                ..EngineConfig::default()
            },
        }
    }

    #[test]
    fn batch_preserves_order_and_results() {
        let jobs = vec![
            job(
                "a",
                r#"function f(x) { if (x === "1") { return 1; } return 0; }"#,
            ),
            job("b", r#"function f(x) { return 0; }"#),
            job(
                "c",
                r#"function f(x) { if (/^z+$/.test(x)) { return 1; } return 0; }"#,
            ),
        ];
        let sequential: Vec<_> = jobs
            .iter()
            .map(|j| run_dse(&j.program, &j.harness, &j.config))
            .collect();
        let parallel = BatchOptions::new().workers(3).run(jobs);
        assert_eq!(parallel.len(), 3);
        for (s, p) in sequential.iter().zip(&parallel) {
            // Engines are deterministic, so parallel == sequential.
            assert_eq!(s.coverage, p.coverage);
            assert_eq!(s.tests_generated, p.tests_generated);
        }
    }

    #[test]
    fn single_worker_works() {
        let reports = BatchOptions::new()
            .workers(1)
            .run(vec![job("only", r#"function f(x) { return x; }"#)]);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn empty_batch() {
        let reports = BatchOptions::new().workers(4).run(Vec::new());
        assert!(reports.is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_auto() {
        // Previously a panic; now "auto" (max(1, available_parallelism)).
        let reports = BatchOptions::new().workers(0).run(vec![job(
            "auto",
            r#"function f(x) { if (x === "q") { return 1; } return 0; }"#,
        )]);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].coverage_fraction() > 0.9);
    }

    #[test]
    fn jobs_share_the_cache_set() {
        // Two identical jobs: the second should hit models/queries the
        // first one populated.
        let jobs = vec![
            job(
                "one",
                r#"function f(x) { if (/^k+$/.test(x)) { return 1; } return 0; }"#,
            ),
            job(
                "two",
                r#"function f(x) { if (/^k+$/.test(x)) { return 1; } return 0; }"#,
            ),
        ];
        let reports = BatchOptions::new().workers(1).run(jobs);
        assert_eq!(reports[0].coverage, reports[1].coverage);
        let second = &reports[1];
        assert!(
            second.model_cache_hits > 0 || second.query_cache_hits > 0,
            "second job saw no cross-job cache hits: {second:?}"
        );
    }
}
