//! The per-layer metric table of a traced run.
//!
//! Every traced run prints the same list of per-layer metrics; a layer
//! a workload does not reach reads 0 there.

use std::collections::BTreeMap;

use crate::report::Metric;
use crate::spans::SpanId;
use crate::stats::median;
use crate::traced::Tracer;

/// Server-side numbers of the `service` workload, read from each
/// connection's `metrics` line, plus client-side sums.
#[derive(Debug, Clone, Default)]
pub struct ServiceLayer {
    /// Jobs the connections' schedulers ran.
    pub sched_jobs: u64,
    /// Largest per-connection scheduler median job time (bucketed).
    pub sched_run_p50_ms: f64,
    /// Largest per-connection scheduler p99 job time (bucketed).
    pub sched_run_p99_ms: f64,
    /// Slowest scheduler job.
    pub sched_run_max_ms: f64,
    /// Work-stealing claims across shards.
    pub sched_steals: u64,
    /// Σ client latency − Σ in-process run time of the same jobs.
    pub overhead_ms_total: f64,
    /// Σ over completed requests of their job's median in-process run
    /// time on the same warm caches.
    pub inproc_run_ms_total: f64,
    /// Requests answered with an `error` line.
    pub request_errors: u64,
    /// Connections refused by admission control.
    pub rejected: u64,
    /// Most threads the process had while clients ran.
    pub threads_peak: f64,
}

/// Job-level totals of a traced run.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    /// Traced jobs.
    pub jobs: usize,
    /// Σ untraced wall time of the same jobs (library entry point),
    /// milliseconds.
    pub untraced_ms: f64,
    /// Jobs where the traced loop and the library entry point disagreed.
    pub mismatches: u64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Builds the per-layer metric list from a tracer, the job spans it
/// recorded, and the workload-specific extras.
pub fn layer_metrics(
    tracer: &Tracer,
    roots: &[SpanId],
    totals: &TraceTotals,
    service: &ServiceLayer,
) -> Vec<Metric> {
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    for span in tracer.spans.all() {
        *busy.entry(span.name).or_insert(0.0) += span.len() as f64;
    }
    let mut split: BTreeMap<&str, f64> = BTreeMap::new();
    let mut wall_ns = 0.0;
    for &root in roots {
        wall_ns += tracer.spans.get(root).len() as f64;
        for (layer, ns) in tracer.spans.layer_split(root) {
            *split.entry(layer).or_insert(0.0) += ns;
        }
    }
    let busy_ms = |layer: &str| ms(busy.get(layer).copied().unwrap_or(0.0));
    let self_ms = |layer: &str| ms(split.get(layer).copied().unwrap_or(0.0));
    let c = &tracer.counters;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let n = roots.len();
    let solves = c.solve_calls as usize;
    let wall_ms = ms(wall_ns);
    let overhead_pct = if totals.untraced_ms > 0.0 {
        (wall_ms / totals.untraced_ms - 1.0) * 100.0
    } else {
        0.0
    };
    let m = Metric::new;
    vec![
        m("interp.calls", c.interp_calls as f64, "count", n),
        m(
            "interp.busy_ms",
            busy_ms("interp"),
            "ms",
            c.interp_calls as usize,
        ),
        m("interp.self_ms", self_ms("interp"), "ms", n),
        m("interp.steps", c.interp_steps as f64, "count", n),
        m("matcher.fast_path", c.matcher_fast_path as f64, "count", n),
        m("matcher.fallback", c.matcher_fallback as f64, "count", n),
        m("flip.build_calls", c.build_calls as f64, "count", n),
        m(
            "flip.build_ms",
            busy_ms("flip.build"),
            "ms",
            c.build_calls as usize,
        ),
        m("flip.build_self_ms", self_ms("flip.build"), "ms", n),
        m(
            "model.cache_hits",
            c.model_cache_hits as f64,
            "count",
            solves,
        ),
        m(
            "model.cache_misses",
            c.model_cache_misses as f64,
            "count",
            solves,
        ),
        m(
            "model.hit_rate",
            share(
                c.model_cache_hits,
                c.model_cache_hits + c.model_cache_misses,
            ),
            "fraction",
            solves,
        ),
        m("flip.solve_calls", c.solve_calls as f64, "count", n),
        m("flip.solve_ms", busy_ms("flip.solve"), "ms", solves),
        m("flip.solve_self_ms", self_ms("flip.solve"), "ms", n),
        m("flip.sat", c.sat as f64, "count", solves),
        m(
            "flip.confirmed",
            c.confirmed as f64,
            "count",
            c.sat as usize,
        ),
        m("flip.diverged", c.diverged as f64, "count", c.sat as usize),
        m("cegar.refinements", c.refinements as f64, "count", solves),
        m("cegar.limit_hits", c.limit_hits as f64, "count", solves),
        m(
            "cegar.verdict_replays",
            c.verdict_replays as f64,
            "count",
            solves,
        ),
        m(
            "cegar.replay_share",
            share(c.verdict_replays, c.solve_calls),
            "fraction",
            solves,
        ),
        m("solver.nodes", c.solver_nodes as f64, "count", solves),
        m(
            "solver.length_prunes",
            c.length_prunes as f64,
            "count",
            solves,
        ),
        m(
            "solver.prefix_reuse_hits",
            c.prefix_reuse_hits as f64,
            "count",
            solves,
        ),
        m(
            "solver.query_cache_hits",
            c.query_cache_hits as f64,
            "count",
            solves,
        ),
        m(
            "solver.query_cache_misses",
            c.query_cache_misses as f64,
            "count",
            solves,
        ),
        m(
            "automata.dfa_states_built",
            c.dfa_states_built as f64,
            "count",
            solves,
        ),
        m(
            "automata.states_after_minimize",
            c.states_after_minimize as f64,
            "count",
            solves,
        ),
        m(
            "automata.dfa_cache_hits",
            c.dfa_cache_hits as f64,
            "count",
            solves,
        ),
        m(
            "engine.self_ms",
            self_ms("engine") + self_ms("flip.fanout"),
            "ms",
            n,
        ),
        m("engine.fanout_self_ms", self_ms("flip.fanout"), "ms", n),
        m("engine.executions", c.executions as f64, "count", n),
        m(
            "engine.tests_generated",
            c.tests_generated as f64,
            "count",
            n,
        ),
        m(
            "explore.iterations",
            c.explore_iterations as f64,
            "count",
            n,
        ),
        m(
            "explore.corpus_entries",
            c.corpus_entries as f64,
            "count",
            n,
        ),
        m("explore.dropped", c.corpus_dropped as f64, "count", n),
        m(
            "explore.iter_ms_p50",
            median(&c.iteration_ms),
            "ms",
            c.iteration_ms.len(),
        ),
        m("explore.self_ms", self_ms("explore"), "ms", n),
        m("sched.jobs", service.sched_jobs as f64, "count", 1),
        m(
            "sched.run_p50_ms",
            service.sched_run_p50_ms,
            "ms",
            service.sched_jobs as usize,
        ),
        m(
            "sched.run_p99_ms",
            service.sched_run_p99_ms,
            "ms",
            service.sched_jobs as usize,
        ),
        m(
            "sched.run_max_ms",
            service.sched_run_max_ms,
            "ms",
            service.sched_jobs as usize,
        ),
        m("sched.steals", service.sched_steals as f64, "count", 1),
        m(
            "service.overhead_ms_total",
            service.overhead_ms_total,
            "ms",
            totals.jobs,
        ),
        m(
            "service.inproc_run_ms_total",
            service.inproc_run_ms_total,
            "ms",
            totals.jobs,
        ),
        m(
            "service.request_errors",
            service.request_errors as f64,
            "count",
            1,
        ),
        m("service.rejected", service.rejected as f64, "count", 1),
        m("service.threads_peak", service.threads_peak, "count", 1),
        m("trace.jobs", totals.jobs as f64, "count", totals.jobs),
        m("trace.job_wall_ms", wall_ms, "ms", n),
        m(
            "trace.untraced_job_ms",
            totals.untraced_ms,
            "ms",
            totals.jobs,
        ),
        m("trace.overhead_pct", overhead_pct, "%", totals.jobs),
        m(
            "trace.mismatches",
            totals.mismatches as f64,
            "count",
            totals.jobs,
        ),
        m(
            "trace.split_residual_ms",
            split.values().map(|&ns| ms(ns)).sum::<f64>() - wall_ms,
            "ms",
            n,
        ),
    ]
}
