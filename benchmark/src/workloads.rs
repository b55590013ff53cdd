//! The per-package workloads: `dse-cold`, `dse-warm` and `explore`.
//!
//! Untraced runs time the library entry points from outside and give
//! the end-to-end metrics. Traced runs make exactly one pass over the
//! job set through the traced loops, run the library entry point on
//! the same job next to each traced call (alternating which goes
//! first), and give the per-layer metrics.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use expose_dse::{explore_with_caches, run_dse_with_caches, DseCaches, EngineConfig};

use crate::golden::{
    explore_matches, run_dse_counting_paths, unreproduced_bugs, unreproduced_corpus_entries,
    DseOutcome, Golden,
};
use crate::inputs::{
    engine_config, explore_config, one_per_template, parse_all, program_specs, Job, DSE_GENERATED,
    EXPLORE_GENERATED,
};
use crate::layers::{layer_metrics, ServiceLayer, TraceTotals};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{quantile, reportable, JobLatencies};
use crate::traced::{dse_fingerprint, traced_dse, traced_explore, Tracer};

/// Times a set-up routine `reps` times and keeps the last result,
/// handing each earlier one to `discard` (untimed). Returns the kept
/// result with the median set-up time in seconds.
pub fn timed_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<S> = None;
    for _ in 0..reps.max(1) {
        if let Some(state) = last.take() {
            discard(state)?;
        }
        let started = Instant::now();
        let state = setup()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 3;
/// Fewest passes over the job set a timed run makes, so that each
/// job's median latency is taken over at least three visits.
pub const MIN_PASSES: usize = 3;

/// Whether a DSE workload shares one warm cache set across its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caching {
    /// A fresh session cache set per job.
    Cold,
    /// One session cache set for every job, filled at set-up.
    Warm,
}

/// Everything a DSE or exploration run needs after set-up.
pub struct Prepared {
    jobs: Vec<Job>,
    golden: Golden,
    shared: Option<DseCaches>,
}

impl Prepared {
    /// Caches for the next job.
    fn caches(&self, config: &EngineConfig) -> DseCaches {
        match &self.shared {
            Some(shared) => shared.clone(),
            None => DseCaches::session_from_config(config),
        }
    }
}

/// DSE set-up: generate and parse the job set, load (and complete) the
/// golden table, then either fill the shared warm caches with one
/// untimed pass or warm up on one cold job per distinct program.
pub fn prepare_dse(
    seed: u64,
    caching: Caching,
    golden_path: &std::path::Path,
) -> Result<Prepared, String> {
    let jobs = parse_all(&program_specs(DSE_GENERATED, seed))?;
    let mut golden = Golden::load(golden_path)?;
    golden.fill_dse(&jobs);
    let config = engine_config();
    let shared = match caching {
        Caching::Warm => {
            let caches = DseCaches::session_from_config(&config);
            for job in &jobs {
                run_dse_with_caches(&job.program, &job.harness, &config, &caches);
            }
            Some(caches)
        }
        Caching::Cold => {
            for job in one_per_template(&jobs) {
                run_dse_with_caches(
                    &job.program,
                    &job.harness,
                    &config,
                    &DseCaches::session_from_config(&config),
                );
            }
            None
        }
    };
    Ok(Prepared {
        jobs,
        golden,
        shared,
    })
}

/// Exploration set-up: generate and parse the job set, load (and
/// complete) the golden table, warm up on one job per distinct program.
pub fn prepare_explore(seed: u64, golden_path: &std::path::Path) -> Result<Prepared, String> {
    let jobs = parse_all(&program_specs(EXPLORE_GENERATED, seed))?;
    let mut golden = Golden::load(golden_path)?;
    golden.fill_explore(&jobs);
    let config = explore_config(engine_config());
    for job in one_per_template(&jobs) {
        explore_with_caches(
            &job.program,
            &job.harness,
            &config,
            &DseCaches::session_from_config(&config.engine),
        );
    }
    Ok(Prepared {
        jobs,
        golden,
        shared: None,
    })
}

/// Latency and busy time of an untraced run.
struct Timing {
    latencies: JobLatencies,
    /// Busy time of each whole pass over the job set.
    pass_busy: Vec<Duration>,
}

/// Pushes `latency_p50_ms` and `latency_p99_ms`: percentiles over the
/// jobs of each job's median latency across the run's passes.
pub fn push_latency_metrics(outcome: &mut Outcome, latencies: &JobLatencies) -> Result<(), String> {
    let medians = latencies.sorted_job_medians();
    let n = medians.len();
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        if !reportable(n, q) {
            return Err(format!("{n} jobs cannot give {name}"));
        }
        outcome.push(name, quantile(&medians, q), "ms", n);
    }
    Ok(())
}

/// Runs whole passes over the job set, at least [`MIN_PASSES`], until
/// the deadline has passed, so every run measures the same job mix.
/// `run` gets the job index and returns the latency of the entry call
/// and the job's busy time (set-up and teardown of its caches
/// included, checks excluded).
fn timed_loop(
    jobs: usize,
    seconds: f64,
    mut run: impl FnMut(usize) -> (Duration, Duration),
) -> Timing {
    let min_jobs = MIN_PASSES * jobs;
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut timing = Timing {
        latencies: JobLatencies::new(jobs),
        pass_busy: Vec::new(),
    };
    let mut i = 0usize;
    while !i.is_multiple_of(jobs) || i < min_jobs || started.elapsed() < deadline {
        let (latency, busy) = run(i);
        timing.latencies.push(i % jobs, latency.as_secs_f64() * 1e3);
        if i.is_multiple_of(jobs) {
            timing.pass_busy.push(Duration::ZERO);
        }
        *timing.pass_busy.last_mut().expect("a pass is open") += busy;
        i += 1;
    }
    timing
}

/// The untimed per-program checks of a DSE job set: for each distinct
/// program, an observed run under the workload's configuration and
/// caches must equal the golden result (distinct paths included), and
/// every golden bug must reproduce. Returns the distinct paths of one
/// pass over the job set.
pub fn check_dse_programs(
    jobs: &[Job],
    golden: &Golden,
    caches: impl Fn() -> DseCaches,
    outcome: &mut Outcome,
) -> usize {
    let config = engine_config();
    let mut paths = HashMap::new();
    for job in jobs {
        if paths.contains_key(&job.key) {
            continue;
        }
        let golden = &golden.dse[&job.key];
        let (report, n) = run_dse_counting_paths(job, &config, &caches());
        paths.insert(job.key, n);
        if !DseOutcome::of(report).matches(golden) || n != golden.paths {
            outcome.fail(|| format!("{}: observed re-run differs from golden", job.spec.name));
        }
        match unreproduced_bugs(job, golden) {
            Ok(0) => {}
            Ok(k) => outcome.fail(|| format!("{}: {k} bug inputs do not reproduce", job.spec.name)),
            Err(e) => outcome.fail(|| format!("{}: {e}", job.spec.name)),
        }
    }
    jobs.iter().map(|job| paths[&job.key]).sum()
}

/// An untraced DSE run (`dse-cold` or `dse-warm`).
pub fn dse_untraced(prepared: &Prepared, setup_s: f64, seconds: f64) -> Result<Outcome, String> {
    let config = engine_config();
    let jobs = &prepared.jobs;
    let mut outcome = Outcome::default();
    let mut first_pass_coverage = vec![0.0; jobs.len()];
    let timing = timed_loop(jobs.len(), seconds, |i| {
        let job = &jobs[i % jobs.len()];
        let t0 = Instant::now();
        let caches = prepared.caches(&config);
        let t1 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_dse_with_caches(&job.program, &job.harness, &config, &caches)
        }));
        let t2 = Instant::now();
        drop(caches);
        let busy = t0.elapsed();
        outcome.attempted += 1;
        match result {
            Err(_) => outcome.fail(|| format!("{}: job panicked", job.spec.name)),
            Ok(report) => {
                if i < jobs.len() {
                    first_pass_coverage[i] = report.coverage_fraction();
                }
                if !DseOutcome::of(report).matches(&prepared.golden.dse[&job.key]) {
                    outcome.fail(|| format!("{}: result differs from golden", job.spec.name));
                }
            }
        }
        (t2 - t1, busy)
    });
    let unique_paths = check_dse_programs(
        jobs,
        &prepared.golden,
        || prepared.caches(&config),
        &mut outcome,
    );
    finish_untraced(
        &mut outcome,
        setup_s,
        timing,
        &first_pass_coverage,
        unique_paths as f64,
    )?;
    Ok(outcome)
}

/// An untraced `explore` run.
pub fn explore_untraced(
    prepared: &Prepared,
    setup_s: f64,
    seconds: f64,
) -> Result<Outcome, String> {
    let config = explore_config(engine_config());
    let jobs = &prepared.jobs;
    let mut outcome = Outcome::default();
    let mut first_pass_coverage = vec![0.0; jobs.len()];
    let mut unique_paths = 0usize;
    let mut corpus_checked: HashSet<u64> = HashSet::new();
    let timing = timed_loop(jobs.len(), seconds, |i| {
        let job = &jobs[i % jobs.len()];
        let t0 = Instant::now();
        let caches = prepared.caches(&config.engine);
        let t1 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            explore_with_caches(&job.program, &job.harness, &config, &caches)
        }));
        let t2 = Instant::now();
        drop(caches);
        let busy = t0.elapsed();
        outcome.attempted += 1;
        match result {
            Err(_) => outcome.fail(|| format!("{}: job panicked", job.spec.name)),
            Ok(report) => {
                if i < jobs.len() {
                    first_pass_coverage[i] = report.coverage_fraction();
                    unique_paths += report.unique_paths;
                }
                if !explore_matches(&report, &prepared.golden.explore[&job.key]) {
                    outcome.fail(|| format!("{}: trajectory differs from golden", job.spec.name));
                }
                if corpus_checked.insert(job.key) {
                    let bad = unreproduced_corpus_entries(job, &report);
                    if bad > 0 {
                        outcome.fail(|| {
                            format!("{}: {bad} corpus entries do not reproduce", job.spec.name)
                        });
                    }
                }
            }
        }
        (t2 - t1, busy)
    });
    finish_untraced(
        &mut outcome,
        setup_s,
        timing,
        &first_pass_coverage,
        unique_paths as f64,
    )?;
    Ok(outcome)
}

fn finish_untraced(
    outcome: &mut Outcome,
    setup_s: f64,
    timing: Timing,
    coverage: &[f64],
    unique_paths: f64,
) -> Result<(), String> {
    outcome.push("setup_s", setup_s, "s", SETUP_REPS);
    // Throughput of each pass; the median pass is reported, so a pass
    // slowed by another tenant of the machine does not move the figure.
    let jobs = timing.latencies.jobs() as f64;
    let per_pass: Vec<f64> = timing
        .pass_busy
        .iter()
        .map(|busy| jobs / busy.as_secs_f64())
        .collect();
    outcome.push(
        "jobs_per_s",
        crate::stats::median(&per_pass),
        "1/s",
        timing.latencies.visits(),
    );
    push_latency_metrics(outcome, &timing.latencies)?;
    let coverage_mean = coverage.iter().sum::<f64>() / coverage.len().max(1) as f64;
    outcome.push("coverage_mean", coverage_mean, "fraction", coverage.len());
    outcome.push("unique_paths", unique_paths, "count", coverage.len());
    let attempted = outcome.attempted as usize;
    outcome.push("pass_share", outcome.pass_share(), "fraction", attempted);
    outcome.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    Ok(())
}

/// A traced DSE run: one pass through [`traced_dse`], each job also run
/// through `run_dse_with_caches` for the equivalence check and the
/// untraced wall time.
pub fn dse_traced(prepared: &Prepared) -> Outcome {
    let config = engine_config();
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::default();
    let mut roots = Vec::new();
    let mut totals = TraceTotals::default();
    for (i, job) in prepared.jobs.iter().enumerate() {
        let traced_caches = prepared.caches(&config);
        let library_caches = prepared.caches(&config);
        let library = || {
            let started = Instant::now();
            let report = run_dse_with_caches(&job.program, &job.harness, &config, &library_caches);
            (report, started.elapsed())
        };
        let (traced, (reference, untraced)) = if i % 2 == 0 {
            let traced = traced_dse(&mut tracer, job, &config, &traced_caches, i as u64);
            (traced, library())
        } else {
            let reference = library();
            (
                traced_dse(&mut tracer, job, &config, &traced_caches, i as u64),
                reference,
            )
        };
        let (report, root) = traced;
        roots.push(root);
        totals.jobs += 1;
        totals.untraced_ms += untraced.as_secs_f64() * 1e3;
        outcome.attempted += 1;
        if dse_fingerprint(&report) != dse_fingerprint(&reference) {
            totals.mismatches += 1;
            outcome.fail(|| {
                format!(
                    "{}: traced loop differs from run_dse_with_caches",
                    job.spec.name
                )
            });
        } else if !DseOutcome::of(report).matches(&prepared.golden.dse[&job.key]) {
            outcome.fail(|| format!("{}: result differs from golden", job.spec.name));
        }
    }
    finish_traced(&mut outcome, &tracer, &roots, &totals);
    outcome
}

/// A traced `explore` run: one pass through [`traced_explore`], each
/// job also run through `explore_with_caches`.
pub fn explore_traced(prepared: &Prepared) -> Outcome {
    let config = explore_config(engine_config());
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::default();
    let mut roots = Vec::new();
    let mut totals = TraceTotals::default();
    for (i, job) in prepared.jobs.iter().enumerate() {
        let traced_caches = prepared.caches(&config.engine);
        let library_caches = prepared.caches(&config.engine);
        let library = || {
            let started = Instant::now();
            let report = explore_with_caches(&job.program, &job.harness, &config, &library_caches);
            (report, started.elapsed())
        };
        let (traced, (reference, untraced)) = if i % 2 == 0 {
            let traced = traced_explore(&mut tracer, job, &config, &traced_caches, i as u64);
            (traced, library())
        } else {
            let reference = library();
            (
                traced_explore(&mut tracer, job, &config, &traced_caches, i as u64),
                reference,
            )
        };
        let (report, root) = traced;
        roots.push(root);
        totals.jobs += 1;
        totals.untraced_ms += untraced.as_secs_f64() * 1e3;
        outcome.attempted += 1;
        if report.trajectory_digest() != reference.trajectory_digest() {
            totals.mismatches += 1;
            outcome.fail(|| {
                format!(
                    "{}: traced loop differs from explore_with_caches",
                    job.spec.name
                )
            });
        } else if !explore_matches(&report, &prepared.golden.explore[&job.key]) {
            outcome.fail(|| format!("{}: trajectory differs from golden", job.spec.name));
        }
    }
    finish_traced(&mut outcome, &tracer, &roots, &totals);
    outcome
}

fn finish_traced(outcome: &mut Outcome, tracer: &Tracer, roots: &[usize], totals: &TraceTotals) {
    if tracer.counters.diverged > 0 {
        let diverged = tracer.counters.diverged;
        outcome.fail(|| format!("{diverged} SAT flips diverged when re-executed"));
    }
    outcome.metrics = layer_metrics(tracer, roots, totals, &ServiceLayer::default());
}
