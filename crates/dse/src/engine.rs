//! The DSE driver: generational search with CUPA-style scheduling.
//!
//! Mirrors ExpoSE's architecture (§6.2): each executed test case yields
//! a trace; all feasible clause flips are solved to generate new test
//! cases, which are sorted into buckets keyed by the program fork point
//! that created them; the next test case is drawn from the
//! least-accessed bucket, prioritizing unexplored code.
//!
//! The flip-solving loop — where DSE spends nearly all of its
//! wall-clock (§6.2 of the paper reports solver time dominating) — is
//! the unit of parallelism: the flips of one trace are independent
//! queries, solved on the calling thread while they replay from the
//! shared caches and fanned out over up to [`EngineConfig::flip_workers`]
//! threads from the first flip that runs a real search. Results are
//! re-ordered deterministically by clause index before any engine state
//! is touched, so a run's report is identical for any worker count.
//! Regex models and solver verdicts are shared across queries (and
//! across batch jobs) through [`DseCaches`], so the flips of a warm
//! trace are verdict replays and never leave the calling thread.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::thread;
use expose_core::model::BuildConfig;
use expose_core::SupportLevel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use strsolve::{Solver, SolverConfig};

use crate::ast::{Program, StmtId};
use crate::caching::DseCaches;
use crate::interp::{execute, Harness, InterpConfig};
use crate::solve::{solve_flip, FlipResult, QueryRecord, TraceFlipSession};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Regex support level (the Table 7 axis).
    pub support: SupportLevel,
    /// Maximum number of concrete executions.
    pub max_executions: usize,
    /// Maximum clause flips attempted per trace.
    pub max_flips_per_trace: usize,
    /// Interpreter step budget per execution.
    pub max_steps: u64,
    /// Solver limits.
    pub solver: SolverConfig,
    /// Model-construction limits.
    pub build: BuildConfig,
    /// CEGAR refinement limit (§7.2 uses 20).
    pub refinement_limit: usize,
    /// RNG seed for bucket sampling (deterministic runs).
    pub seed: u64,
    /// Worker threads for per-trace clause-flip solving, the calling
    /// thread included. `1` (the default) solves serially on the
    /// calling thread; `0` means "auto": `max(1,
    /// available_parallelism)`. With more than one, fan-out is
    /// replay-first: flips that replay a cached verdict (or need no
    /// search) run on the calling thread, and helper threads start only
    /// once a flip of the trace runs a real search, so warm traces
    /// never leave the calling thread. Reports are identical for every
    /// worker count.
    pub flip_workers: usize,
    /// Capacity of the shared regex-model cache (`0` disables it).
    pub model_cache_capacity: usize,
    /// Capacity of the shared solver-query cache (`0` disables it).
    pub query_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            support: SupportLevel::Refinement,
            max_executions: 64,
            max_flips_per_trace: 24,
            max_steps: 100_000,
            solver: SolverConfig::default(),
            build: BuildConfig::default(),
            refinement_limit: 20,
            seed: 0x5eed,
            flip_workers: 1,
            model_cache_capacity: 512,
            query_cache_capacity: 2048,
        }
    }
}

/// Resolves a worker-count knob: `0` means `max(1,
/// available_parallelism)`.
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(1)
    } else {
        requested
    }
}

/// The result of a DSE run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Covered statement ids.
    pub coverage: HashSet<StmtId>,
    /// Total statements in the program.
    pub stmt_count: u32,
    /// Number of concrete executions performed.
    pub executions: usize,
    /// Number of distinct inputs generated (tests).
    pub tests_generated: usize,
    /// Statement ids of failed assertions, with the triggering inputs.
    pub bugs: Vec<(StmtId, Vec<String>)>,
    /// Per-query statistics (Table 8 source data).
    pub queries: Vec<QueryRecord>,
    /// Regex models served from the shared model cache.
    pub model_cache_hits: u64,
    /// Regex models built fresh.
    pub model_cache_misses: u64,
    /// Solver calls answered from the shared query cache.
    pub query_cache_hits: u64,
    /// Solver calls that ran the full search.
    pub query_cache_misses: u64,
    /// Concrete regex executions routed to the Pike-VM fast path
    /// (patterns `es6_matcher::select` found expressible as an NFA).
    pub matcher_fast_path: u64,
    /// Concrete regex executions that ran on the backtracking engine
    /// (backreferences and the other fallback shapes).
    pub matcher_fallback: u64,
}

impl Report {
    /// Statement coverage as a fraction in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.stmt_count == 0 {
            return 0.0;
        }
        self.coverage.len() as f64 / f64::from(self.stmt_count)
    }

    /// Model-cache hit rate in `[0, 1]` (`0` with no lookups).
    pub fn model_cache_hit_rate(&self) -> f64 {
        expose_core::cache::CacheStats {
            hits: self.model_cache_hits,
            misses: self.model_cache_misses,
        }
        .hit_rate()
    }

    /// Query-cache hit rate in `[0, 1]` (`0` with no lookups).
    pub fn query_cache_hit_rate(&self) -> f64 {
        expose_core::cache::CacheStats {
            hits: self.query_cache_hits,
            misses: self.query_cache_misses,
        }
        .hit_rate()
    }

    /// Total search-tree nodes visited by the solver.
    pub fn solver_nodes(&self) -> u64 {
        self.queries.iter().map(|q| q.solver_nodes).sum()
    }

    /// Total DFA states the solver built before minimization.
    pub fn dfa_states_built(&self) -> u64 {
        self.queries.iter().map(|q| q.dfa_states_built).sum()
    }

    /// Total DFA states remaining after the thresholded Hopcroft pass.
    pub fn states_after_minimize(&self) -> u64 {
        self.queries.iter().map(|q| q.states_after_minimize).sum()
    }

    /// Total conjunctions refuted by the length-abstraction pass
    /// before any word search.
    pub fn length_prunes(&self) -> u64 {
        self.queries.iter().map(|q| q.length_prunes).sum()
    }

    /// Total solver DFA-cache lookups served from resident entries
    /// (session-table reuse under a [`crate::caching::CacheSet`]).
    pub fn dfa_cache_hits(&self) -> u64 {
        self.queries.iter().map(|q| q.dfa_cache_hits).sum()
    }

    /// Total wall-clock spent in solver queries.
    pub fn solver_time(&self) -> std::time::Duration {
        self.queries.iter().map(|q| q.duration).sum()
    }

    /// Total canonical prefix frames reused by incremental flip
    /// sessions instead of being re-canonicalized.
    pub fn prefix_reuse_hits(&self) -> u64 {
        self.queries.iter().map(|q| q.prefix_reuse_hits).sum()
    }

    /// Total whole CEGAR refinement runs replayed from the shared
    /// verdict cache.
    pub fn verdict_replays(&self) -> u64 {
        self.queries.iter().map(|q| q.verdict_replays).sum()
    }

    /// Absorbs one flip query's record into the report.
    fn record_query(&mut self, record: QueryRecord) {
        self.model_cache_hits += record.model_cache_hits;
        self.model_cache_misses += record.model_cache_misses;
        self.query_cache_hits += record.query_cache_hits;
        self.query_cache_misses += record.query_cache_misses;
        self.queries.push(record);
    }
}

/// A queued test case.
#[derive(Debug, Clone)]
struct TestCase {
    inputs: Vec<String>,
}

/// Runs dynamic symbolic execution on a program.
///
/// # Examples
///
/// Finding the Listing 1 bug (§3.2): the engine discovers the input
/// `"<timeout></timeout>"` that makes the assertion fail.
///
/// ```
/// use expose_dse::{run_dse, EngineConfig, Harness, parser::parse_program};
///
/// let program = parse_program(r#"
///     function f(x) {
///         if (/^a+$/.test(x)) { return 1; }
///         return 0;
///     }
/// "#)?;
/// let report = run_dse(&program, &Harness::strings("f", 1), &EngineConfig::default());
/// assert!(report.coverage_fraction() > 0.9);
/// # Ok::<(), expose_dse::parser::ParseError>(())
/// ```
pub fn run_dse(program: &Program, harness: &Harness, config: &EngineConfig) -> Report {
    run_dse_with_caches(program, harness, config, &DseCaches::from_config(config))
}

/// [`run_dse`] with caller-provided caches, so several runs (e.g. the
/// jobs of a batch) share models and verdicts.
pub fn run_dse_with_caches(
    program: &Program,
    harness: &Harness,
    config: &EngineConfig,
    caches: &DseCaches,
) -> Report {
    run_dse_observed(program, harness, config, caches, &mut |_, _| {})
}

/// [`run_dse_with_caches`] with a trace observer: `observer(trace,
/// flips)` fires for every executed trace, right before its first
/// `flips` clauses are solved. The streaming service's script recorder
/// uses this to re-express a run as wire `push`/`solve` sequences; the
/// observer cannot influence the run, so the returned report is
/// byte-identical to an unobserved one.
pub fn run_dse_observed(
    program: &Program,
    harness: &Harness,
    config: &EngineConfig,
    caches: &DseCaches,
    observer: &mut dyn FnMut(&crate::sym::Trace, usize),
) -> Report {
    let mut report = Report {
        stmt_count: program.stmt_count,
        ..Report::default()
    };
    let solver = caches.solver(&config.solver);
    let flip_workers = resolve_workers(config.flip_workers);
    let interp_config = InterpConfig {
        support: config.support,
        max_steps: config.max_steps,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);

    // CUPA buckets: fork point → queued cases, with access counts.
    let mut buckets: HashMap<StmtId, Vec<TestCase>> = HashMap::new();
    let mut accesses: HashMap<StmtId, usize> = HashMap::new();
    let mut seen_inputs: HashSet<Vec<String>> = HashSet::new();

    let seed_case = TestCase {
        inputs: vec![String::new(); harness.input_count()],
    };
    seen_inputs.insert(seed_case.inputs.clone());
    buckets.entry(0).or_default().push(seed_case);

    while report.executions < config.max_executions {
        // Pick the least-accessed non-empty bucket; ties break on the
        // bucket key so the choice never depends on map iteration
        // order (run-to-run determinism).
        let Some(&bucket_key) = buckets
            .iter()
            .filter(|(_, cases)| !cases.is_empty())
            .map(|(k, _)| k)
            .min_by_key(|&&k| (accesses.get(&k).copied().unwrap_or(0), k))
        else {
            break;
        };
        *accesses.entry(bucket_key).or_insert(0) += 1;
        let cases = buckets.get_mut(&bucket_key).expect("bucket exists");
        let idx = rng.random_range(0..cases.len());
        let case = cases.swap_remove(idx);

        // Concrete + symbolic execution.
        let trace = execute(program, harness, &case.inputs, &interp_config);
        report.executions += 1;
        report.coverage.extend(trace.coverage.iter().copied());
        report.matcher_fast_path += trace.matcher_fast_path;
        report.matcher_fallback += trace.matcher_fallback;
        for &failure in &trace.assertion_failures {
            if !report.bugs.iter().any(|(id, _)| *id == failure) {
                report.bugs.push((failure, case.inputs.clone()));
            }
        }

        if !config.support.models_regex() && trace.path.is_empty() {
            continue;
        }

        // Generational search: flip every clause of the trace. The
        // queue-growth budget is fixed *before* solving (at most `room`
        // flips can enqueue anything), so the set of solved flips — and
        // with it the report — does not depend on solve results
        // arriving in any particular order.
        let queued: usize = buckets.values().map(Vec::len).sum();
        let room = (config.max_executions * 4).saturating_sub(report.executions + queued);
        let flips = trace.path.len().min(config.max_flips_per_trace).min(room);
        observer(&trace, flips);
        let results = solve_trace_flips(&trace, flips, config, &solver, caches, flip_workers);

        // Deterministic post-processing in clause order.
        for (k, result) in results.into_iter().enumerate() {
            report.record_query(result.record);
            if let Some(mut inputs) = result.inputs {
                // Pad to the harness arity.
                while inputs.len() < harness.input_count() {
                    inputs.push(String::new());
                }
                if seen_inputs.insert(inputs.clone()) {
                    report.tests_generated += 1;
                    buckets
                        .entry(trace.path[k].branch_id)
                        .or_default()
                        .push(TestCase { inputs });
                }
            }
        }
    }
    report
}

/// Solves the first `flips` clause flips of a trace, returning results
/// indexed by clause. Under [`strsolve::SolverConfig::incremental`]
/// (the default) the flips share one [`TraceFlipSession`]; otherwise
/// each flip rebuilds its query from scratch. Either way the flips fan
/// out over up to `workers` threads via [`fan_out_flips`].
pub(crate) fn solve_trace_flips(
    trace: &crate::sym::Trace,
    flips: usize,
    config: &EngineConfig,
    solver: &Solver,
    caches: &DseCaches,
    workers: usize,
) -> Vec<FlipResult> {
    if config.solver.incremental {
        // Assumption-stack mode: canonicalize the shared prefix once
        // (serially), then solve each flip against it as a retractable
        // assumption. Verdicts are identical to the from-scratch path
        // (see `tests/incremental_differential.rs`).
        let session = TraceFlipSession::build(
            trace,
            flips,
            config.support,
            solver,
            config.refinement_limit,
            &config.build,
            caches,
        );
        return fan_out_flips(flips, workers, |k| session.solve(k));
    }
    fan_out_flips(flips, workers, |k| {
        solve_flip(
            trace,
            k,
            config.support,
            solver,
            config.refinement_limit,
            &config.build,
            caches,
        )
    })
}

/// Whether a flip ran a real solver search. Verdict-cache replays,
/// plans known infeasible and query-cache hits are cheap: they record a
/// replay or no search nodes at all.
fn ran_search(record: &QueryRecord) -> bool {
    record.verdict_replays == 0 && record.solver_nodes > 0
}

/// Runs `one_flip` for every clause index, returning results in clause
/// order. Fan-out is replay-first: the calling thread takes flips off a
/// shared atomic cursor and solves them itself for as long as each one
/// was cheap (see [`ran_search`]), so a trace whose flips all replay
/// from warm caches never leaves the calling thread. The first flip
/// that ran a real search starts `min(workers, unsolved) - 1` scoped
/// helpers, which drain the cursor next to the calling thread (it
/// counts as one of the `workers`). Results land in their clause slot,
/// so the returned order (and everything derived from it) is
/// worker-count-independent.
fn fan_out_flips(
    flips: usize,
    workers: usize,
    one_flip: impl Fn(usize) -> FlipResult + Sync,
) -> Vec<FlipResult> {
    if workers <= 1 || flips <= 1 {
        return (0..flips).map(&one_flip).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<FlipResult>>> = Mutex::new((0..flips).map(|_| None).collect());
    // Solves the next unclaimed flip into its slot: `None` once every
    // flip is claimed, otherwise whether the flip ran a search.
    let solve_next = || {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        (k < flips).then(|| {
            let result = one_flip(k);
            let searched = ran_search(&result.record);
            slots.lock()[k] = Some(result);
            searched
        })
    };
    while let Some(searched) = solve_next() {
        let unsolved = flips.saturating_sub(cursor.load(Ordering::Relaxed));
        let helpers = workers.min(unsolved).saturating_sub(1);
        if searched && helpers > 0 {
            thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(|_| while solve_next().is_some() {});
                }
                while solve_next().is_some() {}
            })
            .expect("flip worker panicked");
        }
    }
    slots
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("all flips solved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, harness: Harness, config: EngineConfig) -> Report {
        let program = parse_program(src).expect("parse");
        run_dse(&program, &harness, &config)
    }

    #[test]
    fn covers_both_branches_of_string_equality() {
        let report = run(
            r#"function f(x) {
                if (x === "magic") { return 1; } else { return 0; }
            }"#,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 8,
                ..EngineConfig::default()
            },
        );
        assert!(report.coverage_fraction() > 0.99, "{report:?}");
        assert!(report.tests_generated >= 1);
    }

    #[test]
    fn covers_regex_guarded_code() {
        let report = run(
            r#"function f(x) {
                if (/^[0-9]+$/.test(x)) { return "digits"; }
                return "other";
            }"#,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 8,
                ..EngineConfig::default()
            },
        );
        assert!(report.coverage_fraction() > 0.99, "{report:?}");
    }

    #[test]
    fn concrete_level_cannot_flip_regex() {
        let report = run(
            r#"function f(x) {
                if (/^zz+q$/.test(x)) { return 1; }
                return 0;
            }"#,
            Harness::strings("f", 1),
            EngineConfig {
                support: SupportLevel::Concrete,
                max_executions: 8,
                ..EngineConfig::default()
            },
        );
        // The then-branch is unreachable without regex modeling.
        assert!(report.coverage_fraction() < 1.0);
    }

    #[test]
    fn finds_listing1_bug() {
        // Listing 1 of the paper (§3.2), adapted to the mini language:
        // the assertion fails for "<timeout></timeout>" because the
        // Kleene star admits an empty numeric part.
        let src = r#"function f(args) {
            let timeout = "500";
            for (let i = 0; i < args.length; i = i + 1) {
                let arg = args[i];
                let parts = /^<(\w+)>([0-9]*)<\/\1>$/.exec(arg);
                if (parts) {
                    if (parts[1] === "timeout") {
                        timeout = parts[2];
                    }
                }
            }
            assert(/^[0-9]+$/.test(timeout) === true);
        }"#;
        let report = run(
            src,
            Harness::string_array("f", 1),
            EngineConfig {
                max_executions: 48,
                ..EngineConfig::default()
            },
        );
        assert!(
            !report.bugs.is_empty(),
            "the Listing 1 bug must be found: {report:?}"
        );
        // The triggering input must really break the assertion: a
        // <timeout> tag with an empty number.
        let (_, inputs) = &report.bugs[0];
        let mut oracle = es6_matcher::RegExp::new(r"^<(\w+)>([0-9]*)<\/\1>$", "").expect("regex");
        let m = oracle
            .exec(&inputs[0])
            .expect("bug input matches the regex");
        assert_eq!(m.group(1), Some("timeout"));
        assert_eq!(m.group(2), Some(""));
    }

    /// Everything except timing- and scheduling-dependent fields
    /// (durations, cache hit/miss splits under concurrency).
    fn comparable(r: &Report) -> impl PartialEq + std::fmt::Debug {
        (
            r.coverage.clone(),
            r.stmt_count,
            r.executions,
            r.tests_generated,
            r.bugs.clone(),
            r.queries
                .iter()
                .map(|q| {
                    (
                        q.modeled_regex,
                        q.had_captures,
                        q.refinements,
                        q.limit_hit,
                        q.sat,
                    )
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn report_identical_across_flip_worker_counts() {
        let src = r#"function f(x) {
            let m = /^<([a-z]+)>$/.exec(x);
            if (m) { if (m[1] === "timeout") { return 1; } return 2; }
            if (x === "plain") { return 3; }
            return 0;
        }"#;
        let base = EngineConfig {
            max_executions: 12,
            ..EngineConfig::default()
        };
        let serial = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                flip_workers: 1,
                ..base.clone()
            },
        );
        let parallel = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                flip_workers: 8,
                ..base.clone()
            },
        );
        let auto = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                flip_workers: 0,
                ..base
            },
        );
        assert_eq!(comparable(&serial), comparable(&parallel));
        assert_eq!(comparable(&serial), comparable(&auto));
    }

    #[test]
    fn caches_do_not_change_the_report() {
        let src = r#"function f(x) {
            if (/^[0-9]+$/.test(x)) { return "digits"; }
            if (/^[a-z]+$/.test(x)) { return "alpha"; }
            return "other";
        }"#;
        let cached = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 12,
                ..EngineConfig::default()
            },
        );
        let uncached = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 12,
                model_cache_capacity: 0,
                query_cache_capacity: 0,
                ..EngineConfig::default()
            },
        );
        assert_eq!(comparable(&cached), comparable(&uncached));
        // The cached run must actually have exercised the caches. A
        // repeated problem is answered by the verdict cache (whole
        // CEGAR-run replay) before the query cache ever sees it, so the
        // two hit counters are taken together.
        assert!(cached.model_cache_hits > 0, "{cached:?}");
        assert!(
            cached.query_cache_hits + cached.verdict_replays() > 0,
            "{cached:?}"
        );
        assert_eq!(uncached.model_cache_hits, 0);
        assert_eq!(uncached.query_cache_hits, 0);
        assert_eq!(uncached.verdict_replays(), 0);
    }

    /// A synthetic flip result for clause `k`: a verdict replay, a
    /// real search, or (neither) a query that needed no search.
    fn synthetic_flip(k: usize, replay: bool, search: bool) -> FlipResult {
        FlipResult {
            inputs: Some(vec![k.to_string()]),
            record: QueryRecord {
                verdict_replays: u64::from(replay),
                solver_nodes: if replay || search { 7 } else { 0 },
                ..QueryRecord::default()
            },
        }
    }

    fn clause_order(results: &[FlipResult]) -> Vec<String> {
        results
            .iter()
            .map(|r| r.inputs.as_ref().expect("synthetic inputs")[0].clone())
            .collect()
    }

    #[test]
    fn replayed_flips_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        let results = fan_out_flips(12, 8, |k| {
            threads.lock().push(std::thread::current().id());
            // Replays and search-free flips (infeasible plans,
            // query-cache hits) are both cheap.
            synthetic_flip(k, k % 3 != 0, false)
        });
        let threads = threads.into_inner();
        assert_eq!(threads.len(), 12);
        assert!(threads.iter().all(|&id| id == caller), "{threads:?}");
        let expected: Vec<String> = (0..12).map(|k| k.to_string()).collect();
        assert_eq!(clause_order(&results), expected);
    }

    #[test]
    fn mixed_flips_are_solved_once_each_in_clause_order() {
        let flips = 40;
        for workers in [2, 8] {
            let solved: Vec<AtomicUsize> = (0..flips).map(|_| AtomicUsize::new(0)).collect();
            let results = fan_out_flips(flips, workers, |k| {
                solved[k].fetch_add(1, Ordering::Relaxed);
                // Replays first, then a search at clause 5 and every
                // seventh clause after it.
                synthetic_flip(k, k < 5 || k % 7 != 5, k % 7 == 5)
            });
            assert!(
                solved.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "workers {workers}: every clause is solved exactly once"
            );
            let expected: Vec<String> = (0..flips).map(|k| k.to_string()).collect();
            assert_eq!(clause_order(&results), expected, "workers {workers}");
        }
    }

    #[test]
    fn first_flip_search_of_two_starts_no_idle_helper() {
        // After a search at clause 0 one flip is left, which the
        // calling thread takes itself: a helper could only find the
        // cursor empty.
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        let results = fan_out_flips(2, 8, |k| {
            threads.lock().push(std::thread::current().id());
            synthetic_flip(k, false, k == 0)
        });
        let threads = threads.into_inner();
        assert_eq!(threads, vec![caller, caller]);
        assert_eq!(clause_order(&results), ["0", "1"]);
    }

    #[test]
    fn a_search_starts_helpers_next_to_the_calling_thread() {
        // Every flip after the search waits (up to a deadline) until a
        // second thread has solved a flip, so the test cannot hang and
        // fails if no helper ever starts.
        let threads = Mutex::new(HashSet::new());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        fan_out_flips(6, 2, |k| {
            threads.lock().insert(std::thread::current().id());
            while k > 0 && threads.lock().len() < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            synthetic_flip(k, false, k == 0)
        });
        assert_eq!(threads.into_inner().len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let src = r#"function f(x) {
            if (x === "a") { return 1; }
            if (x === "b") { return 2; }
            return 0;
        }"#;
        let config = EngineConfig {
            max_executions: 8,
            ..EngineConfig::default()
        };
        let r1 = run(src, Harness::strings("f", 1), config.clone());
        let r2 = run(src, Harness::strings("f", 1), config);
        assert_eq!(r1.coverage, r2.coverage);
        assert_eq!(r1.tests_generated, r2.tests_generated);
    }
}
