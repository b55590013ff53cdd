//! The DSE job pool: one FIFO worker pool shared by any number of
//! re-sequenced job streams.
//!
//! ExpoSE's evaluation (§6.2) runs thousands of *independent* DSE jobs
//! — the embarrassingly job-parallel shape a long-running service
//! should exploit. [`Scheduler`] is a fixed pool of worker threads over
//! one FIFO task queue:
//!
//! * every worker pops the oldest queued task, runs it, and parks on a
//!   condvar when the queue is empty — the unit of work is a whole DSE
//!   job, so one mutex-guarded queue never contends measurably;
//! * all workers share one [`CacheSet`] (regex models, solver verdicts,
//!   and the DFA intern tables), so a regex determinized for one job
//!   is free for every other job the pool runs;
//! * callers submit through a [`JobStream`] ([`Scheduler::stream`]).
//!   Each stream numbers its own jobs from 0 and re-sequences their
//!   completions by [`JobId`] before handing them to its consumer: the
//!   per-job engine is deterministic and every cache layer is
//!   verdict-preserving, so the *results* of a stream — and any
//!   output rendered from them — are byte-identical for any worker
//!   count and for any other streams sharing the pool;
//! * submission applies backpressure per stream: with a bound
//!   configured, [`JobStream::submit`] blocks while too many of that
//!   stream's jobs are in flight, which is what lets a service
//!   front-end stop reading one connection's input instead of
//!   buffering without limit.
//!
//! Scheduling-dependent *observables* (wall-clock, queue depth, cache
//! hit/miss splits) live in the pool's [`LatencyHistogram`] and the
//! cache counters, deliberately outside the deterministic result
//! stream.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::batch::Job;
use crate::caching::CacheSet;
use crate::engine::{resolve_workers, run_dse_with_caches, Report};

/// Monotonic job identifier, assigned per stream at submission.
/// Results are re-sequenced by this id, so it doubles as the output
/// position.
pub type JobId = u64;

/// One finished job, tagged with its submission id and name.
#[derive(Debug)]
pub struct Completion {
    /// Submission id (= position in the re-sequenced output).
    pub id: JobId,
    /// Job label, echoed from [`Job::name`].
    pub name: String,
    /// The report, or an error message (submission-time rejection or a
    /// panicking job).
    pub outcome: Result<Report, String>,
}

/// A snapshot of one stream's progress counters.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Jobs submitted (including rejected submissions).
    pub submitted: u64,
    /// Jobs whose completion has been drained by the consumer.
    pub drained: u64,
    /// Jobs submitted but not yet drained.
    pub inflight: u64,
    /// Jobs finished but still waiting for an earlier id to drain.
    pub resequencing: u64,
}

/// Number of power-of-two latency buckets: bucket `i` counts samples
/// in `[2^i, 2^(i+1))` microseconds, so 40 buckets span ~1 µs to ~12
/// days — far beyond any DSE job.
const LATENCY_BUCKETS: usize = 40;

/// A lock-free log-scale latency histogram: fixed power-of-two
/// microsecond buckets updated with relaxed atomics, so workers (and a
/// service's reader thread) record wall times without ever contending
/// on a lock. Quantiles are read from a [`LatencySnapshot`]; they are
/// bucket-granular (exact to within 2x), which is plenty for the
/// p50/p99 trend a metrics endpoint reports. Latencies are
/// observability data — never part of the deterministic result
/// stream.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample given in microseconds.
    pub fn record_us(&self, us: u64) {
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting (concurrent records
    /// may straddle the reads; quantiles are bucket-granular anyway).
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of the bucket: pessimistic by at
                    // most 2x, monotone in the rank.
                    return (1u64 << (i + 1)).saturating_sub(1);
                }
            }
            self.max_us.load(Ordering::Relaxed)
        };
        LatencySnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time read of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_us: u64,
    /// Median, in microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile, in microseconds (bucket upper bound).
    pub p99_us: u64,
    /// Largest sample, in microseconds (exact).
    pub max_us: u64,
}

impl LatencySnapshot {
    /// Median in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_us as f64 / 1e3
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_us as f64 / 1e3
    }

    /// Largest sample in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1e3
    }
}

struct Task {
    id: JobId,
    job: Job,
    /// The stream the completion goes back to.
    stream: Arc<StreamShared>,
}

struct State {
    /// Tasks submitted by any stream but not yet taken by a worker,
    /// oldest first.
    tasks: VecDeque<Task>,
    /// The pool is shutting down; idle workers exit.
    shutdown: bool,
}

struct Shared {
    caches: CacheSet,
    state: Mutex<State>,
    /// Waited on by idle workers; signaled on submit and shutdown.
    work_ready: Condvar,
    /// Wall time of each completed job, recorded lock-free by the
    /// workers for the metrics endpoint.
    latency: LatencyHistogram,
}

impl Shared {
    /// Every update under this lock is one queue operation or a flag
    /// store, so the state stays valid even if a holder panicked; a
    /// poisoned lock must not take down workers that other streams
    /// share.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A pool of DSE worker threads over one FIFO task queue. Jobs are
/// submitted through the [`JobStream`]s it opens. See the module docs
/// for the architecture.
///
/// # Examples
///
/// ```
/// use expose_dse::sched::Scheduler;
/// use expose_dse::{batch::Job, parser::parse_program, CacheSet, EngineConfig, Harness};
///
/// let pool = Scheduler::start(2, CacheSet::session(64, 64, 64));
/// let stream = pool.stream(0); // 0 = no in-flight bound
/// for i in 0..4 {
///     stream.submit(Job {
///         name: format!("job{i}"),
///         program: parse_program(
///             r#"function f(x) { if (x === "k") { return 1; } return 0; }"#,
///         ).expect("parse"),
///         harness: Harness::strings("f", 1),
///         config: EngineConfig { max_executions: 4, ..EngineConfig::default() },
///     });
/// }
/// stream.close();
/// let mut seen = 0;
/// while let Some(completion) = stream.next_ordered() {
///     assert_eq!(completion.id, seen); // re-sequenced by job id
///     assert!(completion.outcome.expect("ran").coverage_fraction() > 0.9);
///     seen += 1;
/// }
/// assert_eq!(seen, 4);
/// assert_eq!(pool.latency().count, 4);
/// ```
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `workers` threads (`0` = `max(1,
    /// available_parallelism)`) sharing `caches`.
    pub fn start(workers: usize, caches: CacheSet) -> Scheduler {
        let shared = Arc::new(Shared {
            caches,
            state: Mutex::new(State {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            latency: LatencyHistogram::new(),
        });
        let handles = (0..resolve_workers(workers))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dse-worker-{worker}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler { shared, handles }
    }

    /// Opens a job stream on this pool with its own job ids,
    /// re-sequencer and in-flight bound (`0` = unbounded).
    pub fn stream(&self, max_inflight: usize) -> JobStream<'_> {
        JobStream {
            pool: self,
            shared: Arc::new(StreamShared {
                max_inflight,
                state: Mutex::new(StreamState::default()),
                progress: Condvar::new(),
            }),
        }
    }

    /// The cache set shared by all workers.
    pub fn caches(&self) -> &CacheSet {
        &self.shared.caches
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs submitted by any stream but not yet taken by a worker (the
    /// queue depth a metrics endpoint reports).
    pub fn queued(&self) -> u64 {
        self.shared.lock().tasks.len() as u64
    }

    /// A snapshot of the per-job wall-time histogram of every job the
    /// pool has run.
    pub fn latency(&self) -> LatencySnapshot {
        self.shared.latency.snapshot()
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

impl Drop for Scheduler {
    /// Drops the queued tasks (no stream can outlive the pool, so
    /// nobody would read their results), then joins the workers once
    /// their running jobs finish.
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.shutdown = true;
        state.tasks.clear();
        drop(state);
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            // Workers never panic (panicking jobs become `Err`
            // completions); a panic here would abort on double panic
            // during unwinding.
            let _ = handle.join();
        }
    }
}

/// One worker: take the oldest task, run it, complete it into its
/// stream; park while the queue is empty; exit on shutdown.
fn worker_loop(shared: &Shared) {
    while let Some(Task { id, job, stream }) = next_task(shared) {
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_dse_with_caches(&job.program, &job.harness, &job.config, &shared.caches)
        }))
        .map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            format!("job panicked: {message}")
        });
        shared.latency.record(started.elapsed());
        stream.complete(Completion {
            id,
            name: job.name,
            outcome,
        });
    }
}

fn next_task(shared: &Shared) -> Option<Task> {
    let mut state = shared.lock();
    loop {
        if let Some(task) = state.tasks.pop_front() {
            return Some(task);
        }
        if state.shutdown {
            return None;
        }
        state = shared
            .work_ready
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

#[derive(Default)]
struct StreamState {
    next_id: JobId,
    next_emit: JobId,
    /// Completions not yet drained, keyed by id.
    finished: HashMap<JobId, Completion>,
    /// No further submissions; the ordered drain ends after the last
    /// completion.
    closed: bool,
}

impl StreamState {
    fn inflight(&self) -> u64 {
        self.next_id - self.next_emit
    }
}

struct StreamShared {
    max_inflight: usize,
    state: Mutex<StreamState>,
    /// Waited on by the consumer (ordered drain) and by submitters
    /// blocked on backpressure; signaled on completion and drain.
    progress: Condvar,
}

impl StreamShared {
    /// Recovers from poisoning like [`Shared::lock`]: a submitter that
    /// panics under this lock (`submit after close`) leaves the state
    /// valid, and must not make the worker completing into this stream
    /// panic.
    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn at_capacity(&self, state: &StreamState) -> bool {
        self.max_inflight > 0 && state.inflight() >= self.max_inflight as u64
    }

    fn complete(&self, completion: Completion) {
        self.lock().finished.insert(completion.id, completion);
        self.progress.notify_all();
    }
}

/// One caller's view of a [`Scheduler`]: its own job ids, its own
/// in-flight bound, and an ordered drain of its own completions,
/// independent of every other stream on the pool.
pub struct JobStream<'pool> {
    pool: &'pool Scheduler,
    shared: Arc<StreamShared>,
}

impl JobStream<'_> {
    /// Submits a job, returning its id (= output position). Blocks
    /// while the stream's in-flight bound is reached — the
    /// backpressure that lets a front-end stop reading input.
    ///
    /// # Panics
    ///
    /// Panics if the stream was already closed.
    pub fn submit(&self, job: Job) -> JobId {
        let mut state = self.shared.lock();
        while self.shared.at_capacity(&state) && !state.closed {
            state = self
                .shared
                .progress
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!state.closed, "submit after close");
        let id = state.next_id;
        state.next_id += 1;
        drop(state);
        let task = Task {
            id,
            job,
            stream: Arc::clone(&self.shared),
        };
        self.pool.shared.lock().tasks.push_back(task);
        self.pool.shared.work_ready.notify_one();
        id
    }

    /// Records a submission-time rejection (e.g. a program that failed
    /// to parse) as an ordinary completion, so the error occupies its
    /// position in the re-sequenced output instead of racing it.
    pub fn submit_rejected(&self, name: impl Into<String>, error: impl Into<String>) -> JobId {
        let mut state = self.shared.lock();
        assert!(!state.closed, "submit after close");
        let id = state.next_id;
        state.next_id += 1;
        drop(state);
        self.shared.complete(Completion {
            id,
            name: name.into(),
            outcome: Err(error.into()),
        });
        id
    }

    /// Closes the stream: no further submissions;
    /// [`JobStream::next_ordered`] returns `None` after the last
    /// completion. Other streams on the pool are unaffected.
    pub fn close(&self) {
        self.shared.lock().closed = true;
        self.shared.progress.notify_all();
    }

    /// The next completion in job-id order. Blocks until job
    /// `next_emit` finishes; returns `None` once the stream is closed
    /// and fully drained. Completions arriving out of order are held
    /// back here — this is what makes the output stream byte-identical
    /// for any worker count.
    pub fn next_ordered(&self) -> Option<Completion> {
        let mut state = self.shared.lock();
        loop {
            let emit = state.next_emit;
            if let Some(completion) = state.finished.remove(&emit) {
                state.next_emit += 1;
                drop(state);
                // Draining frees an in-flight slot: wake blocked
                // submitters.
                self.shared.progress.notify_all();
                return Some(completion);
            }
            if state.closed && state.next_emit >= state.next_id {
                return None;
            }
            state = self
                .shared
                .progress
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A snapshot of this stream's progress.
    pub fn progress(&self) -> Progress {
        let state = self.shared.lock();
        Progress {
            submitted: state.next_id,
            drained: state.next_emit,
            inflight: state.inflight(),
            resequencing: state.finished.len() as u64,
        }
    }

    /// Whether a [`JobStream::submit`] would currently block on the
    /// in-flight bound. A load-shedding front-end checks this to turn
    /// backpressure into a structured `overloaded` rejection instead of
    /// stalling its reader. Advisory: the answer can be stale by the
    /// time a submit runs, which only means one extra job briefly
    /// blocks.
    pub fn at_capacity(&self) -> bool {
        self.shared.at_capacity(&self.shared.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::interp::Harness;
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

    fn simple(name: &str, key: &str) -> Job {
        job(
            name,
            &format!(r#"function f(x) {{ if (x === "{key}") {{ return 1; }} return 0; }}"#),
        )
    }

    /// Drains a closed stream, returning the completion names in order
    /// after checking that ids count up from 0.
    fn drain(stream: &JobStream<'_>) -> Vec<String> {
        let mut names = Vec::new();
        while let Some(completion) = stream.next_ordered() {
            assert_eq!(completion.id, names.len() as JobId);
            assert!(completion.outcome.is_ok(), "{}", completion.name);
            names.push(completion.name);
        }
        names
    }

    #[test]
    fn resequences_completions_by_id() {
        let pool = Scheduler::start(4, CacheSet::session(64, 64, 64));
        let stream = pool.stream(0);
        for i in 0..16 {
            stream.submit(simple(&format!("job{i}"), &format!("k{i}")));
        }
        stream.close();
        let expected: Vec<String> = (0..16).map(|i| format!("job{i}")).collect();
        assert_eq!(drain(&stream), expected);
        assert_eq!(pool.latency().count, 16);
    }

    #[test]
    fn rejected_submissions_hold_their_position() {
        let pool = Scheduler::start(2, CacheSet::session(16, 16, 16));
        let stream = pool.stream(0);
        stream.submit(simple("ok0", "a"));
        stream.submit_rejected("broken", "parse error: unexpected token");
        stream.submit(simple("ok2", "b"));
        stream.close();
        let first = stream.next_ordered().expect("job 0");
        let second = stream.next_ordered().expect("job 1");
        let third = stream.next_ordered().expect("job 2");
        assert!(stream.next_ordered().is_none());
        assert!(first.outcome.is_ok());
        assert_eq!(second.name, "broken");
        assert!(second.outcome.unwrap_err().contains("parse error"));
        assert!(third.outcome.is_ok());
    }

    #[test]
    fn backpressure_bounds_inflight() {
        let pool = Scheduler::start(2, CacheSet::session(16, 16, 16));
        let stream = pool.stream(4);
        // Submit more than the bound from this thread while a drainer
        // runs on another: submission can only finish because draining
        // frees slots.
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut drained = 0;
                while stream.next_ordered().is_some() {
                    drained += 1;
                }
                drained
            });
            for i in 0..12 {
                stream.submit(simple(&format!("job{i}"), "x"));
                assert!(stream.progress().inflight <= 4);
            }
            stream.close();
            assert_eq!(drainer.join().expect("drainer"), 12);
        });
    }

    #[test]
    fn odd_jobs_do_not_stall_the_stream() {
        let pool = Scheduler::start(1, CacheSet::session(16, 16, 16));
        let stream = pool.stream(0);
        // A harness naming a missing entry runs as an (empty) execution
        // rather than an error; the worker must complete it and move on
        // to the next job either way.
        let mut odd = simple("odd", "x");
        odd.harness = Harness::strings("missing_entry", 1);
        stream.submit(odd);
        stream.submit(simple("good", "y"));
        stream.close();
        let first = stream.next_ordered().expect("completion 0");
        let second = stream.next_ordered().expect("completion 1");
        assert!(stream.next_ordered().is_none());
        let report = first.outcome.expect("empty run, not an error");
        assert_eq!(report.tests_generated, 0);
        let report = second.outcome.expect("ran");
        assert!(report.coverage_fraction() > 0.9);
    }

    #[test]
    fn progress_counters_track_the_session() {
        let pool = Scheduler::start(2, CacheSet::session(16, 16, 16));
        let stream = pool.stream(0);
        assert_eq!(stream.progress().submitted, 0);
        stream.submit(simple("a", "1"));
        stream.submit(simple("b", "2"));
        stream.close();
        assert_eq!(drain(&stream).len(), 2);
        let progress = stream.progress();
        assert_eq!(progress.submitted, 2);
        assert_eq!(progress.drained, 2);
        assert_eq!(progress.inflight, 0);
        assert_eq!(progress.resequencing, 0);
        assert_eq!(pool.queued(), 0);
        // Every completed job left a latency sample behind. Quantiles
        // are bucket upper bounds, so p50 may exceed the exact max —
        // but never by more than the max sample's own bucket bound.
        let latency = pool.latency();
        assert_eq!(latency.count, 2);
        assert!(latency.p99_us >= latency.p50_us);
        assert!(latency.sum_us >= latency.max_us);
        assert!(u128::from(latency.p50_us) <= 2 * u128::from(latency.max_us.max(1)));
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let histogram = LatencyHistogram::new();
        assert_eq!(histogram.snapshot(), LatencySnapshot::default());
        // 99 samples in [64, 128) µs and one slow outlier.
        for i in 0..99u64 {
            histogram.record_us(64 + (i % 60));
        }
        histogram.record_us(250_000);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 100);
        assert_eq!(snapshot.p50_us, 127); // upper bound of [64, 128)
        assert_eq!(snapshot.p99_us, 127); // rank 99 still in the bulk
        assert_eq!(snapshot.max_us, 250_000);
        assert!(snapshot.p99_ms() <= snapshot.max_ms());
        // One more outlier pushes rank-p99 into the slow bucket.
        histogram.record_us(250_000);
        let snapshot = histogram.snapshot();
        assert!(snapshot.p99_us >= 131_071, "p99 {}", snapshot.p99_us);
    }

    #[test]
    fn at_capacity_reflects_the_inflight_bound() {
        let pool = Scheduler::start(1, CacheSet::session(16, 16, 16));
        let stream = pool.stream(2);
        assert!(!stream.at_capacity());
        stream.submit(simple("a", "1"));
        stream.submit(simple("b", "2"));
        // Two undrained jobs hit the bound even after both complete.
        assert!(stream.at_capacity());
        stream.close();
        while stream.next_ordered().is_some() {}
        assert!(!stream.at_capacity());
    }

    #[test]
    fn interleaved_streams_each_resequence_from_zero() {
        let pool = Scheduler::start(2, CacheSet::session(64, 64, 64));
        let a = pool.stream(0);
        let b = pool.stream(0);
        for i in 0..6 {
            assert_eq!(a.submit(simple(&format!("a{i}"), &format!("k{i}"))), i);
            assert_eq!(b.submit(simple(&format!("b{i}"), &format!("q{i}"))), i);
        }
        a.close();
        b.close();
        let names =
            |prefix: &str| -> Vec<String> { (0..6).map(|i| format!("{prefix}{i}")).collect() };
        assert_eq!(drain(&b), names("b"));
        assert_eq!(drain(&a), names("a"));
        assert_eq!(pool.latency().count, 12);
    }

    #[test]
    fn closing_one_stream_does_not_end_the_other() {
        let pool = Scheduler::start(1, CacheSet::session(16, 16, 16));
        let a = pool.stream(0);
        let b = pool.stream(0);
        a.submit(simple("a0", "1"));
        b.submit(simple("b0", "2"));
        a.close();
        assert_eq!(drain(&a), ["a0"]);
        // `b` still accepts work and drains it after `a` has ended.
        b.submit(simple("b1", "3"));
        b.close();
        assert_eq!(drain(&b), ["b0", "b1"]);
    }

    #[test]
    fn a_panicking_submitter_leaves_the_pool_working() {
        let pool = Scheduler::start(1, CacheSet::session(16, 16, 16));
        let a = pool.stream(0);
        a.submit(simple("a0", "1"));
        a.close();
        // Submitting after close panics while holding the stream's
        // lock; the stream and the pool's one worker must survive it.
        let misuse = std::panic::catch_unwind(AssertUnwindSafe(|| a.submit(simple("a1", "2"))));
        assert!(misuse.is_err());
        assert_eq!(drain(&a), ["a0"]);
        let b = pool.stream(0);
        b.submit(simple("b0", "3"));
        b.close();
        assert_eq!(drain(&b), ["b0"]);
    }
}
