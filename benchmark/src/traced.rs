//! Traced loops: the engine's CUPA loop and the exploration loop,
//! rebuilt from the library's public calls with a span around each
//! call into a layer.
//!
//! [`traced_dse`] follows `expose_dse::run_dse_observed` step for step
//! (same bucket choice, same RNG draws, same flip budget, same worker
//! fan-out) and [`traced_explore`] follows `expose_dse::explore_observed`.
//! The traced workloads run both the traced loop and the library entry
//! point on every job and count any difference as a failure, so a loop that
//! drifts from the library cannot report numbers for the wrong loop.
//!
//! Span layers: `engine` (a DSE job) or `explore` (an exploration job)
//! at the root; below it `interp` (`interp::execute`), `flip.build`
//! (`TraceFlipSession::build`) and `flip.fanout` (the worker fan-out),
//! which holds one `flip.solve` span per `TraceFlipSession::solve`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use expose_dse::ast::StmtId;
use expose_dse::frontier::{CoverageMap, FrontierScheduler};
use expose_dse::store::{trail_digest, CorpusStore, Fnv};
use expose_dse::{
    execute, DseCaches, EngineConfig, ExploreBug, ExploreConfig, ExploreReport, FlipResult,
    InterpConfig, IterationProgress, QueryRecord, Report, StopReason, Trace, TraceFlipSession,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use strsolve::Solver;

use crate::inputs::Job;
use crate::spans::{SpanId, Spans};

/// Counters read from the `Trace`s and `QueryRecord`s the layer calls
/// return.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `interp::execute` calls.
    pub interp_calls: u64,
    /// Interpreter steps.
    pub interp_steps: u64,
    /// Regex executions on the Pike-VM fast path.
    pub matcher_fast_path: u64,
    /// Regex executions on the backtracking engine.
    pub matcher_fallback: u64,
    /// `TraceFlipSession::build` calls.
    pub build_calls: u64,
    /// Regex models served from the model cache.
    pub model_cache_hits: u64,
    /// Regex models built fresh.
    pub model_cache_misses: u64,
    /// `TraceFlipSession::solve` calls.
    pub solve_calls: u64,
    /// Satisfiable flips.
    pub sat: u64,
    /// SAT flips whose inputs, re-executed, follow the trace's prefix
    /// and take the flipped direction.
    pub confirmed: u64,
    /// SAT flips whose inputs, re-executed, do not.
    pub diverged: u64,
    /// CEGAR refinements.
    pub refinements: u64,
    /// Flips that hit the refinement limit.
    pub limit_hits: u64,
    /// Whole CEGAR runs replayed from the verdict cache.
    pub verdict_replays: u64,
    /// Solver search nodes.
    pub solver_nodes: u64,
    /// Conjunctions refuted by the length abstraction.
    pub length_prunes: u64,
    /// Prefix frames reused by incremental sessions.
    pub prefix_reuse_hits: u64,
    /// Solver calls answered from the query cache.
    pub query_cache_hits: u64,
    /// Solver calls that ran the full search.
    pub query_cache_misses: u64,
    /// DFA states built before minimization.
    pub dfa_states_built: u64,
    /// DFA states after minimization.
    pub states_after_minimize: u64,
    /// DFA lookups served from resident tables.
    pub dfa_cache_hits: u64,
    /// Concrete executions of DSE jobs.
    pub executions: u64,
    /// Tests generated by DSE jobs.
    pub tests_generated: u64,
    /// Exploration iterations.
    pub explore_iterations: u64,
    /// Corpus entries at the end of exploration jobs.
    pub corpus_entries: u64,
    /// Solved inputs dropped at the corpus budget.
    pub corpus_dropped: u64,
    /// Wall time of each exploration iteration, milliseconds.
    pub iteration_ms: Vec<f64>,
}

impl Counters {
    fn absorb_trace(&mut self, trace: &Trace) {
        self.interp_calls += 1;
        self.interp_steps += trace.steps;
        self.matcher_fast_path += trace.matcher_fast_path;
        self.matcher_fallback += trace.matcher_fallback;
    }

    fn absorb_query(&mut self, q: &QueryRecord) {
        self.solve_calls += 1;
        self.sat += u64::from(q.sat);
        self.model_cache_hits += q.model_cache_hits;
        self.model_cache_misses += q.model_cache_misses;
        self.refinements += q.refinements as u64;
        self.limit_hits += u64::from(q.limit_hit);
        self.verdict_replays += q.verdict_replays;
        self.solver_nodes += q.solver_nodes;
        self.length_prunes += q.length_prunes;
        self.prefix_reuse_hits += q.prefix_reuse_hits;
        self.query_cache_hits += q.query_cache_hits;
        self.query_cache_misses += q.query_cache_misses;
        self.dfa_states_built += q.dfa_states_built;
        self.states_after_minimize += q.states_after_minimize;
        self.dfa_cache_hits += q.dfa_cache_hits;
    }
}

/// Spans plus counters of a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Recorded spans.
    pub spans: Spans,
    /// Layer counters.
    pub counters: Counters,
    /// SAT flips awaiting their re-execution witness.
    witnesses: Vec<Witness>,
}

/// A SAT flip to re-execute: its inputs and the trail they must follow.
#[derive(Debug)]
struct Witness {
    inputs: Vec<String>,
    expected: Vec<(StmtId, bool)>,
}

impl Tracer {
    /// Re-executes the inputs of every SAT flip recorded since the last
    /// call and counts which follow the trace's prefix and then take the
    /// flipped direction.
    pub fn witness_flips(&mut self, job: &Job, interp: &InterpConfig) {
        for witness in self.witnesses.drain(..) {
            let trace = execute(&job.program, &job.harness, &witness.inputs, interp);
            let trail: Vec<(StmtId, bool)> =
                trace.path.iter().map(|c| (c.branch_id, c.taken)).collect();
            if trail.starts_with(&witness.expected) {
                self.counters.confirmed += 1;
            } else {
                self.counters.diverged += 1;
            }
        }
    }
}

fn interp_config(config: &EngineConfig) -> InterpConfig {
    InterpConfig {
        support: config.support,
        max_steps: config.max_steps,
    }
}

fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        crate::inputs::nproc()
    } else {
        requested
    }
}

/// The solver a run queries through, built as the engine builds it.
fn build_solver(config: &EngineConfig, caches: &DseCaches) -> Solver {
    let mut solver = if caches.query.capacity() > 0 {
        Solver::new(config.solver.clone()).with_cache(caches.query.clone())
    } else {
        Solver::new(config.solver.clone())
    };
    if let Some(tables) = &caches.dfa {
        solver = solver.with_dfa_tables(tables);
    }
    solver
}

/// Executes one input vector under an `interp` span.
fn traced_execute(
    tracer: &mut Tracer,
    job: &Job,
    inputs: &[String],
    interp: &InterpConfig,
    parent: SpanId,
    job_id: u64,
) -> Trace {
    let start = Instant::now();
    let trace = execute(&job.program, &job.harness, inputs, interp);
    tracer
        .spans
        .record("interp", start, Instant::now(), Some(parent), job_id);
    tracer.counters.absorb_trace(&trace);
    trace
}

/// Solves the first `flips` clause flips of `trace` the way the engine
/// does (one incremental session, fanned out over `workers` threads),
/// with `flip.build`, `flip.fanout` and `flip.solve` spans. Queues a
/// re-execution witness for every SAT flip.
#[allow(clippy::too_many_arguments)]
fn traced_flips(
    tracer: &mut Tracer,
    trace: &Trace,
    flips: usize,
    config: &EngineConfig,
    solver: &Solver,
    caches: &DseCaches,
    workers: usize,
    input_count: usize,
    parent: SpanId,
    job_id: u64,
) -> Vec<FlipResult> {
    assert!(
        config.solver.incremental,
        "the traced loop follows the incremental flip path"
    );
    let start = Instant::now();
    let session = TraceFlipSession::build(
        trace,
        flips,
        config.support,
        solver,
        config.refinement_limit,
        &config.build,
        caches,
    );
    tracer
        .spans
        .record("flip.build", start, Instant::now(), Some(parent), job_id);
    tracer.counters.build_calls += 1;

    let fanout_start = Instant::now();
    let timed = |k: usize| {
        let start = Instant::now();
        let result = session.solve(k);
        (result, start, Instant::now())
    };
    let slots: Vec<(FlipResult, Instant, Instant)> = if workers <= 1 || flips <= 1 {
        (0..flips).map(timed).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<(FlipResult, Instant, Instant)>>> =
            Mutex::new((0..flips).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers.min(flips) {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= flips {
                        break;
                    }
                    let solved = timed(k);
                    slots.lock().expect("a flip worker panicked")[k] = Some(solved);
                });
            }
        });
        slots
            .into_inner()
            .expect("a flip worker panicked")
            .into_iter()
            .map(|slot| slot.expect("every flip solved"))
            .collect()
    };
    let fanout = tracer.spans.record(
        "flip.fanout",
        fanout_start,
        Instant::now(),
        Some(parent),
        job_id,
    );

    slots
        .into_iter()
        .enumerate()
        .map(|(k, (result, start, end))| {
            tracer
                .spans
                .record("flip.solve", start, end, Some(fanout), job_id);
            tracer.counters.absorb_query(&result.record);
            if let Some(inputs) = &result.inputs {
                let mut inputs = inputs.clone();
                inputs.resize(inputs.len().max(input_count), String::new());
                let mut expected: Vec<(StmtId, bool)> = trace.path[..k]
                    .iter()
                    .map(|c| (c.branch_id, c.taken))
                    .collect();
                expected.push((trace.path[k].branch_id, !trace.path[k].taken));
                tracer.witnesses.push(Witness { inputs, expected });
            }
            result
        })
        .collect()
}

/// One DSE job, as `run_dse_observed` runs it, under an `engine` span.
/// Returns the report and the job span.
pub fn traced_dse(
    tracer: &mut Tracer,
    job: &Job,
    config: &EngineConfig,
    caches: &DseCaches,
    job_id: u64,
) -> (Report, SpanId) {
    let root = tracer.spans.open("engine", None, job_id);
    let mut report = Report {
        stmt_count: job.program.stmt_count,
        ..Report::default()
    };
    let solver = build_solver(config, caches);
    let workers = resolve_workers(config.flip_workers);
    let interp = interp_config(config);
    let input_count = job.harness.input_count();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut buckets: HashMap<StmtId, Vec<Vec<String>>> = HashMap::new();
    let mut accesses: HashMap<StmtId, usize> = HashMap::new();
    let mut seen_inputs: HashSet<Vec<String>> = HashSet::new();
    let seed_case = vec![String::new(); input_count];
    seen_inputs.insert(seed_case.clone());
    buckets.entry(0).or_default().push(seed_case);

    while report.executions < config.max_executions {
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
        let inputs = cases.swap_remove(idx);

        let trace = traced_execute(tracer, job, &inputs, &interp, root, job_id);
        report.executions += 1;
        report.coverage.extend(trace.coverage.iter().copied());
        report.matcher_fast_path += trace.matcher_fast_path;
        report.matcher_fallback += trace.matcher_fallback;
        for &failure in &trace.assertion_failures {
            if !report.bugs.iter().any(|(id, _)| *id == failure) {
                report.bugs.push((failure, inputs.clone()));
            }
        }
        if !config.support.models_regex() && trace.path.is_empty() {
            continue;
        }

        let queued: usize = buckets.values().map(Vec::len).sum();
        let room = (config.max_executions * 4).saturating_sub(report.executions + queued);
        let flips = trace.path.len().min(config.max_flips_per_trace).min(room);
        let results = traced_flips(
            tracer,
            &trace,
            flips,
            config,
            &solver,
            caches,
            workers,
            input_count,
            root,
            job_id,
        );
        for (k, result) in results.into_iter().enumerate() {
            let record = result.record;
            report.model_cache_hits += record.model_cache_hits;
            report.model_cache_misses += record.model_cache_misses;
            report.query_cache_hits += record.query_cache_hits;
            report.query_cache_misses += record.query_cache_misses;
            report.queries.push(record);
            if let Some(mut inputs) = result.inputs {
                while inputs.len() < input_count {
                    inputs.push(String::new());
                }
                if seen_inputs.insert(inputs.clone()) {
                    report.tests_generated += 1;
                    buckets
                        .entry(trace.path[k].branch_id)
                        .or_default()
                        .push(inputs);
                }
            }
        }
    }
    tracer.spans.close(root);
    tracer.counters.executions += report.executions as u64;
    tracer.counters.tests_generated += report.tests_generated as u64;
    tracer.witness_flips(job, &interp);
    (report, root)
}

/// The deterministic part of a DSE report: everything but durations
/// and cache-dependent hit/miss splits.
pub fn dse_fingerprint(report: &Report) -> impl PartialEq + std::fmt::Debug {
    let mut coverage: Vec<StmtId> = report.coverage.iter().copied().collect();
    coverage.sort_unstable();
    (
        coverage,
        report.stmt_count,
        report.executions,
        report.tests_generated,
        report.bugs.clone(),
        report
            .queries
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

/// One exploration job, as `explore_observed` runs it, under an
/// `explore` span. Returns the report and the job span.
pub fn traced_explore(
    tracer: &mut Tracer,
    job: &Job,
    config: &ExploreConfig,
    caches: &DseCaches,
    job_id: u64,
) -> (ExploreReport, SpanId) {
    let root = tracer.spans.open("explore", None, job_id);
    let engine = &config.engine;
    let solver = build_solver(engine, caches);
    let workers = resolve_workers(engine.flip_workers);
    let interp = interp_config(engine);
    let input_count = job.harness.input_count();

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

    let seed_id = corpus
        .insert(vec![String::new(); input_count], Vec::new(), None)
        .expect("empty corpus accepts the seed");
    frontier.push(seed_id);

    let mut iteration_start = Instant::now();
    let stopped = loop {
        if config.max_iterations > 0 && progress.len() >= config.max_iterations {
            break StopReason::Iterations;
        }
        let Some(seed) = frontier.pick(&corpus, &coverage_map) else {
            break StopReason::Frontier;
        };
        let seed_hash = corpus.get(seed).hash;
        let inputs = corpus.get(seed).inputs.clone();

        let trace = traced_execute(tracer, job, &inputs, &interp, root, job_id);
        let trail: Vec<(StmtId, bool)> =
            trace.path.iter().map(|c| (c.branch_id, c.taken)).collect();
        for &(branch, taken) in &trail {
            coverage_map.insert(branch, taken);
        }
        coverage.extend(trace.coverage.iter().copied());
        path_digests.insert(trail_digest(&trail));
        for &failure in &trace.assertion_failures {
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

        let flips = trace.path.len().min(engine.max_flips_per_trace);
        let results = traced_flips(
            tracer,
            &trace,
            flips,
            engine,
            &solver,
            caches,
            workers,
            input_count,
            root,
            job_id,
        );
        let mut new_inputs = 0usize;
        for (k, result) in results.into_iter().enumerate() {
            if result.record.sat {
                sat_queries += 1;
            }
            queries.push(result.record);
            let Some(mut model_inputs) = result.inputs else {
                continue;
            };
            while model_inputs.len() < input_count {
                model_inputs.push(String::new());
            }
            if corpus.len() >= config.max_corpus {
                corpus.note_dropped();
                continue;
            }
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

        progress.push(IterationProgress {
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
        });
        let now = Instant::now();
        tracer
            .counters
            .iteration_ms
            .push((now - iteration_start).as_secs_f64() * 1e3);
        iteration_start = now;
    };
    tracer.spans.close(root);

    let report = ExploreReport {
        iterations: progress.len(),
        stmt_count: job.program.stmt_count,
        coverage,
        covered_directions: coverage_map.covered_directions(),
        unique_paths: path_digests.len(),
        corpus,
        bugs,
        progress,
        stopped,
        queries,
    };
    tracer.counters.explore_iterations += report.iterations as u64;
    tracer.counters.corpus_entries += report.corpus.len() as u64;
    tracer.counters.corpus_dropped += report.corpus.dropped();
    tracer.witness_flips(job, &interp);
    (report, root)
}
