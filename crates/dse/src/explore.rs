//! Pure-concolic exploration: the orchestrator that closes the
//! solve→seed loop.
//!
//! A single DSE job ([`crate::run_dse`]) flips the clauses of the
//! traces *it* executes and stops at its execution budget. This module
//! runs the loop one level up, the way SymCC-style pure-concolic
//! testing does: every solver model becomes a corpus entry, the corpus
//! is scheduled by a coverage frontier, and the loop keeps feeding
//! solved diverging inputs back in as concrete seeds until a budget or
//! the frontier runs out. Each iteration:
//!
//! 1. the [`crate::frontier::FrontierScheduler`] picks the pending
//!    corpus entry whose (predicted) branch trail promises the most
//!    directions the global [`crate::frontier::CoverageMap`] has not
//!    witnessed yet — seeds whose remaining flips are all covered are
//!    demoted behind any seed still reaching unflipped branches;
//! 2. the entry's inputs run concretely+symbolically ([`execute`]);
//!    the observed trail replaces the prediction, coverage and the
//!    unique-path set grow, and assertion failures are deduplicated by
//!    trail digest into the bug list;
//! 3. every clause flip of the new trace is solved (the same
//!    [`TraceFlipSession`]-backed fan-out the per-job engine uses, so
//!    flip results arrive in clause order at any worker count), and
//!    each SAT model is inserted into the corpus — deduplicated by
//!    content hash — annotated with its predicted trail.
//!
//! Everything the loop reads is worker-count-invariant, so the corpus
//! trajectory, coverage bitmap, bug set and per-iteration progress are
//! byte-identical across runs and flip worker counts
//! ([`ExploreReport::trajectory_digest`] is the value the exploration
//! differentials compare). The optional wall-clock budget is the one
//! deliberately machine-dependent stop condition; runs that must be
//! reproducible bound iterations instead.
//!
//! [`TraceFlipSession`]: crate::solve::TraceFlipSession

use std::collections::HashSet;
use std::time::{Duration, Instant};

use crate::ast::{Program, StmtId};
use crate::caching::DseCaches;
use crate::engine::{resolve_workers, solve_trace_flips, EngineConfig};
use crate::frontier::{CoverageMap, FrontierScheduler};
use crate::interp::{execute, Harness, InterpConfig};
use crate::solve::QueryRecord;
use crate::store::{trail_digest, CorpusStore, Fnv};

/// Exploration budgets and per-iteration engine settings.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Per-iteration engine settings: support level, solver and model
    /// limits, flips per trace, step budget, flip workers, cache
    /// capacities. (`max_executions` and `seed` are ignored — the
    /// orchestrator schedules executions itself, deterministically.)
    pub engine: EngineConfig,
    /// Maximum loop iterations (= concrete executions). `0` means the
    /// loop only stops on another budget or frontier exhaustion.
    pub max_iterations: usize,
    /// Maximum corpus entries; solved inputs beyond it are dropped
    /// (and counted in [`CorpusStore::dropped`]).
    pub max_corpus: usize,
    /// Optional wall-clock budget, checked at iteration boundaries.
    /// Machine-dependent by nature: a wall-bounded run keeps the
    /// per-iteration determinism contract but not the run-length one,
    /// so the differential suites leave this `None`.
    pub max_wall: Option<Duration>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            engine: EngineConfig::default(),
            max_iterations: 16,
            max_corpus: 256,
            max_wall: None,
        }
    }
}

/// Why an exploration loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration budget was spent.
    Iterations,
    /// No pending seed remained — every stored input has been executed.
    Frontier,
    /// The wall-clock budget elapsed.
    Wall,
}

impl StopReason {
    /// The stable wire/JSON spelling of the reason.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Iterations => "iterations",
            StopReason::Frontier => "frontier",
            StopReason::Wall => "wall",
        }
    }
}

/// Deterministic progress snapshot after one iteration — the record
/// behind a service `explore_progress` line and a bench
/// `coverage_over_time` checkpoint. Every field is scheduling- and
/// worker-count-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationProgress {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Corpus id of the seed this iteration executed.
    pub seed: u64,
    /// Content hash of that seed's inputs.
    pub seed_hash: u64,
    /// Corpus entries added by this iteration's flips.
    pub new_inputs: usize,
    /// Corpus size after the iteration.
    pub corpus_size: usize,
    /// Pending (unexecuted) seeds after the iteration.
    pub frontier: usize,
    /// Distinct executed branch trails so far.
    pub unique_paths: usize,
    /// Covered statements so far.
    pub covered_stmts: usize,
    /// Covered `(branch, direction)` pairs so far.
    pub covered_directions: usize,
    /// Deduplicated bugs so far.
    pub bugs: usize,
    /// Flip queries solved so far.
    pub queries: usize,
    /// Satisfiable flip queries so far.
    pub sat_queries: usize,
}

/// A deduplicated exploration bug: an assertion failure keyed by the
/// digest of the trail that reached it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreBug {
    /// Statement id of the failed assertion.
    pub stmt: StmtId,
    /// The inputs that triggered it.
    pub inputs: Vec<String>,
    /// Digest of the failing trace's branch trail plus the assertion
    /// site — the dedup key (two distinct paths into the same
    /// assertion are two bugs; re-finding the same path is not).
    pub trail_digest: u64,
}

/// The result of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Iterations executed (= concrete executions).
    pub iterations: usize,
    /// Total statements in the program.
    pub stmt_count: u32,
    /// Covered statement ids.
    pub coverage: HashSet<StmtId>,
    /// Covered `(branch, direction)` pairs.
    pub covered_directions: usize,
    /// Distinct executed branch trails (paths actually witnessed, not
    /// merely predicted by a model).
    pub unique_paths: usize,
    /// The final corpus, trails and provenance included.
    pub corpus: CorpusStore,
    /// Deduplicated assertion failures.
    pub bugs: Vec<ExploreBug>,
    /// One snapshot per iteration, in order.
    pub progress: Vec<IterationProgress>,
    /// Why the loop stopped.
    pub stopped: StopReason,
    /// Per-query statistics (observability; durations and cache splits
    /// in here are scheduling-dependent and excluded from the
    /// deterministic digests).
    pub queries: Vec<QueryRecord>,
}

impl ExploreReport {
    /// Statement coverage as a fraction in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.stmt_count == 0 {
            return 0.0;
        }
        self.coverage.len() as f64 / f64::from(self.stmt_count)
    }

    /// Satisfiable flip queries.
    pub fn sat_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.sat).count()
    }

    /// Total wall-clock spent in solver queries.
    pub fn solver_time(&self) -> Duration {
        self.queries.iter().map(|q| q.duration).sum()
    }

    /// FNV-1a digest of the whole deterministic trajectory: every
    /// iteration snapshot, the bug set, and the final corpus digest.
    /// Two runs explored identically — same corpus, same schedule,
    /// same coverage growth, same bugs — if and only if their
    /// trajectory digests agree; the exploration differentials compare
    /// this across runs and worker counts.
    pub fn trajectory_digest(&self) -> u64 {
        let mut hash = Fnv::new();
        for p in &self.progress {
            hash.eat_u64(p.iteration as u64);
            hash.eat_u64(p.seed);
            hash.eat_u64(p.seed_hash);
            hash.eat_u64(p.new_inputs as u64);
            hash.eat_u64(p.corpus_size as u64);
            hash.eat_u64(p.frontier as u64);
            hash.eat_u64(p.unique_paths as u64);
            hash.eat_u64(p.covered_stmts as u64);
            hash.eat_u64(p.covered_directions as u64);
            hash.eat_u64(p.bugs as u64);
            hash.eat_u64(p.queries as u64);
            hash.eat_u64(p.sat_queries as u64);
        }
        for bug in &self.bugs {
            hash.eat_u64(u64::from(bug.stmt));
            hash.eat_u64(bug.trail_digest);
        }
        hash.eat_u64(self.corpus.digest());
        hash.finish()
    }
}

/// Runs the exploration loop with fresh caches sized from the engine
/// configuration.
///
/// # Examples
///
/// ```
/// use expose_dse::{explore, ExploreConfig, Harness, parser::parse_program};
///
/// let program = parse_program(r#"
///     function f(x) {
///         if (/^a+$/.test(x)) { if (x === "aaa") { return 2; } return 1; }
///         return 0;
///     }
/// "#)?;
/// let report = explore(
///     &program,
///     &Harness::strings("f", 1),
///     &ExploreConfig { max_iterations: 8, ..ExploreConfig::default() },
/// );
/// assert!(report.unique_paths >= 3, "the loop witnesses the deep path");
/// assert!(report.coverage_fraction() > 0.99);
/// # Ok::<(), expose_dse::parser::ParseError>(())
/// ```
pub fn explore(program: &Program, harness: &Harness, config: &ExploreConfig) -> ExploreReport {
    explore_with_caches(
        program,
        harness,
        config,
        &DseCaches::from_config(&config.engine),
    )
}

/// [`explore`] with caller-provided caches, so several exploration
/// runs (or exploration and batch jobs) share models and verdicts.
pub fn explore_with_caches(
    program: &Program,
    harness: &Harness,
    config: &ExploreConfig,
    caches: &DseCaches,
) -> ExploreReport {
    explore_observed(program, harness, config, caches, &mut |_| {})
}

/// [`explore_with_caches`] with a progress observer: `observer` fires
/// after every iteration with that iteration's snapshot — the service
/// streams its `explore_progress` lines from this. The observer cannot
/// influence the loop, so the returned report is identical to an
/// unobserved run.
pub fn explore_observed(
    program: &Program,
    harness: &Harness,
    config: &ExploreConfig,
    caches: &DseCaches,
    observer: &mut dyn FnMut(&IterationProgress),
) -> ExploreReport {
    let start = Instant::now();
    let engine = &config.engine;
    let solver = caches.solver(&engine.solver);
    let flip_workers = resolve_workers(engine.flip_workers);
    let interp_config = InterpConfig {
        support: engine.support,
        max_steps: engine.max_steps,
    };

    let mut corpus = CorpusStore::new();
    let mut frontier = FrontierScheduler::new();
    let mut coverage_map = CoverageMap::new();
    let mut coverage: HashSet<StmtId> = HashSet::new();
    let mut path_digests: HashSet<u64> = HashSet::new();
    let mut bug_digests: HashSet<u64> = HashSet::new();
    let mut bugs: Vec<ExploreBug> = Vec::new();
    let mut progress: Vec<IterationProgress> = Vec::new();
    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut sat_queries = 0usize;

    // The initial seed: empty strings, like a fresh DSE job.
    let seed_id = corpus
        .insert(vec![String::new(); harness.input_count()], Vec::new(), None)
        .expect("empty corpus accepts the seed");
    frontier.push(seed_id);

    let stopped = loop {
        if config.max_iterations > 0 && progress.len() >= config.max_iterations {
            break StopReason::Iterations;
        }
        if let Some(budget) = config.max_wall {
            if start.elapsed() >= budget {
                break StopReason::Wall;
            }
        }
        let Some(seed) = frontier.pick(&corpus, &coverage_map) else {
            break StopReason::Frontier;
        };
        let seed_hash = corpus.get(seed).hash;
        let inputs = corpus.get(seed).inputs.clone();

        // Concrete + symbolic execution of the scheduled seed.
        let trace = execute(program, harness, &inputs, &interp_config);
        let trail: Vec<(StmtId, bool)> =
            trace.path.iter().map(|c| (c.branch_id, c.taken)).collect();
        for &(branch, taken) in &trail {
            coverage_map.insert(branch, taken);
        }
        coverage.extend(trace.coverage.iter().copied());
        path_digests.insert(trail_digest(&trail));
        for &failure in &trace.assertion_failures {
            // Bugs dedup by (trail, assertion site): the same assertion
            // reached along a genuinely different path is a new finding.
            let mut digest = Fnv::new();
            digest.eat_u64(trail_digest(&trail));
            digest.eat_u64(u64::from(failure));
            let digest = digest.finish();
            if bug_digests.insert(digest) {
                bugs.push(ExploreBug {
                    stmt: failure,
                    inputs: inputs.clone(),
                    trail_digest: digest,
                });
            }
        }
        corpus.mark_executed(seed, trail);

        // Solve every clause flip of the new trace; results come back
        // in clause order regardless of worker count.
        let flips = trace.path.len().min(engine.max_flips_per_trace);
        let results = solve_trace_flips(&trace, flips, engine, &solver, caches, flip_workers);
        let mut new_inputs = 0usize;
        for (k, result) in results.into_iter().enumerate() {
            if result.record.sat {
                sat_queries += 1;
            }
            queries.push(result.record);
            let Some(mut model_inputs) = result.inputs else {
                continue;
            };
            while model_inputs.len() < harness.input_count() {
                model_inputs.push(String::new());
            }
            if corpus.len() >= config.max_corpus {
                corpus.note_dropped();
                continue;
            }
            // The trail this model was solved to realize: the parent's
            // prefix with clause k flipped.
            let mut predicted: Vec<(StmtId, bool)> = trace.path[..k]
                .iter()
                .map(|c| (c.branch_id, c.taken))
                .collect();
            predicted.push((trace.path[k].branch_id, !trace.path[k].taken));
            if let Some(id) = corpus.insert(model_inputs, predicted, Some(seed)) {
                frontier.push(id);
                new_inputs += 1;
            }
        }

        let snapshot = IterationProgress {
            iteration: progress.len() + 1,
            seed,
            seed_hash,
            new_inputs,
            corpus_size: corpus.len(),
            frontier: frontier.pending(),
            unique_paths: path_digests.len(),
            covered_stmts: coverage.len(),
            covered_directions: coverage_map.covered_directions(),
            bugs: bugs.len(),
            queries: queries.len(),
            sat_queries,
        };
        observer(&snapshot);
        progress.push(snapshot);
    };

    ExploreReport {
        iterations: progress.len(),
        stmt_count: program.stmt_count,
        coverage,
        covered_directions: coverage_map.covered_directions(),
        unique_paths: path_digests.len(),
        corpus,
        bugs,
        progress,
        stopped,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, config: ExploreConfig) -> ExploreReport {
        let program = parse_program(src).expect("parse");
        explore(&program, &Harness::strings("f", 1), &config)
    }

    const NESTED: &str = r#"function f(x) {
        if (/^[a-z]+$/.test(x)) {
            if (x === "deep") { return 3; }
            return 2;
        }
        if (x === "zz9") { return 1; }
        return 0;
    }"#;

    #[test]
    fn loop_witnesses_paths_a_single_trace_cannot() {
        // One iteration = execute the seed, solve its flips: only one
        // path is ever witnessed. The loop re-executes the models and
        // reaches the nested branches.
        let single = run(
            NESTED,
            ExploreConfig {
                max_iterations: 1,
                ..ExploreConfig::default()
            },
        );
        assert_eq!(single.iterations, 1);
        assert_eq!(single.unique_paths, 1);
        assert_eq!(single.stopped, StopReason::Iterations);

        let looped = run(
            NESTED,
            ExploreConfig {
                max_iterations: 12,
                ..ExploreConfig::default()
            },
        );
        assert!(looped.unique_paths > single.unique_paths, "{looped:#?}");
        assert!(looped.coverage_fraction() > 0.99, "{looped:#?}");
        assert!(looped.corpus.len() > 1);
        // Every non-seed entry records its parent.
        for entry in looped.corpus.entries().iter().skip(1) {
            assert!(entry.parent.is_some());
        }
    }

    #[test]
    fn frontier_exhaustion_stops_the_loop() {
        let report = run(
            r#"function f(x) { if (x === "k") { return 1; } return 0; }"#,
            ExploreConfig {
                max_iterations: 100,
                ..ExploreConfig::default()
            },
        );
        assert_eq!(report.stopped, StopReason::Frontier);
        assert!(report.iterations < 100);
        assert!(report.coverage_fraction() > 0.99);
        // Exhaustion means every corpus entry ran.
        assert!(report.corpus.entries().iter().all(|e| e.executed));
    }

    #[test]
    fn corpus_budget_drops_and_counts() {
        let report = run(
            NESTED,
            ExploreConfig {
                max_iterations: 4,
                max_corpus: 2,
                ..ExploreConfig::default()
            },
        );
        assert!(report.corpus.len() <= 2);
        assert!(report.corpus.dropped() > 0, "{report:#?}");
    }

    #[test]
    fn dedups_bugs_by_trail() {
        let report = run(
            r#"function f(x) {
                if (/^[0-9]+$/.test(x)) { assert(x === "7"); return 1; }
                return 0;
            }"#,
            ExploreConfig {
                max_iterations: 16,
                ..ExploreConfig::default()
            },
        );
        assert!(!report.bugs.is_empty(), "{report:#?}");
        let digests: HashSet<u64> = report.bugs.iter().map(|b| b.trail_digest).collect();
        assert_eq!(digests.len(), report.bugs.len(), "bug dedup by digest");
    }

    #[test]
    fn trajectory_identical_across_flip_worker_counts() {
        let digest = |workers: usize| {
            run(
                NESTED,
                ExploreConfig {
                    max_iterations: 10,
                    engine: EngineConfig {
                        flip_workers: workers,
                        ..EngineConfig::default()
                    },
                    ..ExploreConfig::default()
                },
            )
            .trajectory_digest()
        };
        let serial = digest(1);
        assert_eq!(serial, digest(2));
        assert_eq!(serial, digest(8));
    }

    #[test]
    fn wall_budget_stops_the_loop() {
        let report = run(
            NESTED,
            ExploreConfig {
                max_iterations: 0,
                max_wall: Some(Duration::ZERO),
                ..ExploreConfig::default()
            },
        );
        assert_eq!(report.stopped, StopReason::Wall);
        assert_eq!(report.iterations, 0);
    }
}
