//! The `service` workload: `nproc` closed-loop clients, one loopback
//! TCP connection each, no think time and [`WINDOW`] requests in flight
//! per client, submitting the seeded job set to an in-process
//! `serve_listener` whose shared cache set was warmed at set-up.
//!
//! Latency runs from writing a `submit` line until its `result` line
//! arrives. Every result line must equal the golden line of its
//! program, apart from the job id. At the end each client asks its
//! connection for a `metrics` line, which gives the scheduler's
//! per-layer numbers.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use expose_dse::{run_dse_with_caches, CacheSet, EngineConfig};
use expose_service::json;
use expose_service::{serve_listener, Listen, ServeOptions, ServerState, ServiceConfig};

use crate::golden::{service_line_matches, Golden};
use crate::inputs::{engine_config, nproc, parse_all, program_specs, Job, DSE_GENERATED};
use crate::layers::{layer_metrics, ServiceLayer, TraceTotals};
use crate::report::{peak_rss_mb, thread_count, Outcome};
use crate::stats::{median, JobLatencies};
use crate::workloads::{check_dse_programs, push_latency_metrics, MIN_PASSES, SETUP_REPS};

/// A running in-process server.
struct Server {
    addr: String,
    state: Arc<ServerState>,
    handle: JoinHandle<io::Result<expose_service::ServerSummary>>,
}

/// The engine configuration service jobs run with. Scheduler shards
/// give the service its parallelism across jobs; with `nproc` jobs in
/// flight, per-job flip threads would only oversubscribe the cores.
fn service_engine() -> EngineConfig {
    EngineConfig {
        flip_workers: 1,
        ..engine_config()
    }
}

impl Server {
    fn start(caches: &CacheSet) -> Result<Server, String> {
        let config = ServiceConfig {
            engine: service_engine(),
            ..ServiceConfig::default()
        }
        .workers(nproc());
        let mut listener = Listen::Tcp("127.0.0.1:0".to_string())
            .bind()
            .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener.local_addr();
        let options = ServeOptions::new().config(config).caches(caches.clone());
        let state = ServerState::new();
        let serving = Arc::clone(&state);
        let handle = std::thread::spawn(move || serve_listener(&mut *listener, &options, &serving));
        Ok(Server {
            addr,
            state,
            handle,
        })
    }

    /// Drains the server and waits for its accept loop to end.
    fn stop(self) -> Result<(), String> {
        self.state.begin_drain();
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// The service workload after set-up.
pub struct Prepared {
    jobs: Vec<Job>,
    lines: Vec<String>,
    golden: Golden,
    caches: CacheSet,
    server: Server,
}

/// Set-up: generate the job set and its submit lines, load the golden
/// table, start a server on a fresh cache set and warm that cache set
/// with one pass of the job set over one connection.
pub fn prepare(seed: u64, golden_path: &std::path::Path) -> Result<Prepared, String> {
    let specs = program_specs(DSE_GENERATED, seed);
    let jobs = parse_all(&specs)?;
    let lines: Vec<String> = specs.iter().map(|s| s.submit_line() + "\n").collect();
    let mut golden = Golden::load(golden_path)?;
    golden.fill_dse(&jobs);
    let caches = ServiceConfig::default().cache_set();
    let server = Server::start(&caches)?;
    let warmed = warm_pass(&server.addr, &lines).map_err(|e| format!("warm-up pass: {e}"))?;
    if warmed != lines.len() {
        return Err(format!("warm-up pass: {warmed} of {} results", lines.len()));
    }
    Ok(Prepared {
        jobs,
        lines,
        golden,
        caches,
        server,
    })
}

/// Releases a set-up that will not be measured.
pub fn discard(prepared: Prepared) -> Result<(), String> {
    prepared.server.stop()
}

/// Sends every line on one connection (from a writer thread, so the
/// server's output never backs up) and counts the result lines.
fn warm_pass(addr: &str, lines: &[String]) -> io::Result<usize> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<()> {
            for line in lines {
                writer.write_all(line.as_bytes())?;
            }
            writer.write_all(b"{\"type\":\"shutdown\"}\n")?;
            writer.flush()
        });
        let mut results = 0;
        for line in reader.lines() {
            if line?.contains("\"type\":\"result\"") {
                results += 1;
            }
        }
        sender.join().expect("warm-up writer panicked")?;
        Ok(results)
    })
}

/// What one client measured.
#[derive(Default)]
struct ClientRun {
    latencies: JobLatencies,
    /// Wall time of each whole pass over the job set, milliseconds.
    pass_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    /// Coverage of the first result of each job index of its share.
    coverage: Vec<(usize, f64)>,
    metrics_line: Option<String>,
    threads_peak: f64,
}

/// Reads lines until one of the wanted type arrives (`None` at EOF).
fn read_until(reader: &mut impl BufRead, types: &[&str]) -> io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if types
            .iter()
            .any(|t| line.contains(&format!("\"type\":\"{t}\"")))
        {
            return Ok(Some(line.trim_end().to_string()));
        }
    }
}

/// In-process runs per job behind `service.inproc_run_ms_total`.
const INPROC_RUNS: usize = 3;

/// Requests each client keeps in flight.
const WINDOW: usize = 4;

/// One closed-loop client: starting at job `offset`, it keeps
/// [`WINDOW`] submits in flight and sends the next one as each answer
/// arrives — in whole passes over the job set, until the deadline has
/// passed and at least `min_jobs` were sent. Answers come back in
/// submit order (the service re-sequences each connection's stream).
/// Then it reads the connection's `metrics` and shuts it down.
fn client(
    prepared: &Prepared,
    offset: usize,
    min_jobs: usize,
    deadline: Instant,
    traced: bool,
) -> io::Result<ClientRun> {
    let stream = TcpStream::connect(&prepared.server.addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let n = prepared.jobs.len();
    let mut run = ClientRun {
        latencies: JobLatencies::new(n),
        ..ClientRun::default()
    };
    let more = |k: usize| !k.is_multiple_of(n) || k < min_jobs || Instant::now() < deadline;
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut pass_start = Instant::now();
    let mut sent = 0;
    while sent < WINDOW && more(sent) {
        writer.write_all(prepared.lines[(offset + sent) % n].as_bytes())?;
        in_flight.push_back((sent, Instant::now()));
        sent += 1;
    }
    while let Some((k, sent_at)) = in_flight.pop_front() {
        let answer = read_until(&mut reader, &["result", "error"])?;
        let latency = sent_at.elapsed();
        if (k + 1).is_multiple_of(n) {
            run.pass_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
            pass_start = Instant::now();
        }
        if answer.is_some() && more(sent) {
            writer.write_all(prepared.lines[(offset + sent) % n].as_bytes())?;
            in_flight.push_back((sent, Instant::now()));
            sent += 1;
        }
        let index = (offset + k) % n;
        let job = &prepared.jobs[index];
        run.attempted += 1;
        let golden = &prepared.golden.dse[&job.key];
        match answer {
            Some(line) if service_line_matches(&line, &job.spec.name, golden) => {
                run.latencies.push(index, latency.as_secs_f64() * 1e3);
                if k < n {
                    run.coverage.push((index, coverage_of(&line)));
                }
            }
            Some(line) => {
                run.failed += 1;
                if run.failures.len() < 10 {
                    run.failures
                        .push(format!("{}: unexpected answer {line}", job.spec.name));
                }
            }
            None => {
                // The connection closed: this request and every other
                // one in flight went unanswered.
                let lost = 1 + in_flight.len() as u64;
                run.attempted += lost - 1;
                run.failed += lost;
                run.failures
                    .push(format!("{}: connection closed", job.spec.name));
                return Ok(run);
            }
        }
        if traced && k % 256 == 0 {
            run.threads_peak = run.threads_peak.max(thread_count());
        }
    }
    writer.write_all(b"{\"type\":\"metrics\"}\n")?;
    run.metrics_line = read_until(&mut reader, &["metrics"])?;
    writer.write_all(b"{\"type\":\"shutdown\"}\n")?;
    while read_until(&mut reader, &["done"])?.is_some() {}
    Ok(run)
}

fn coverage_of(line: &str) -> f64 {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("coverage").and_then(json::Value::as_f64))
        .unwrap_or(0.0)
}

/// Runs the clients and gathers their measurements.
fn run_clients(prepared: &Prepared, seconds: f64, traced: bool) -> Vec<ClientRun> {
    let clients = nproc();
    let n = prepared.jobs.len();
    let min_jobs = MIN_PASSES * n;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let offset = c * n / clients;
                scope.spawn(move || client(prepared, offset, min_jobs, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join().expect("client panicked") {
                Ok(run) => run,
                Err(e) => ClientRun {
                    failed: 1,
                    attempted: 1,
                    failures: vec![format!("client I/O: {e}")],
                    ..ClientRun::default()
                },
            })
            .collect()
    })
}

fn absorb_failures(outcome: &mut Outcome, runs: &[ClientRun]) {
    for run in runs {
        outcome.attempted += run.attempted;
        for failure in &run.failures {
            outcome.fail(|| failure.clone());
        }
        // Failures beyond the remembered ones still count.
        outcome.failed += run.failed - run.failures.len() as u64;
    }
}

/// An untraced `service` run.
pub fn untraced(prepared: Prepared, setup_s: f64, seconds: f64) -> Result<Outcome, String> {
    let runs = run_clients(&prepared, seconds, false);
    let mut outcome = Outcome::default();
    absorb_failures(&mut outcome, &runs);

    let mut latencies = JobLatencies::new(prepared.jobs.len());
    for run in &runs {
        latencies.merge(&run.latencies);
    }
    // Each client's median pass, so a pass slowed by another tenant of
    // the machine does not move the figure; the clients run side by
    // side, so their rates add up.
    let jobs_per_s: f64 = runs
        .iter()
        .map(|run| prepared.jobs.len() as f64 * 1e3 / median(&run.pass_ms))
        .sum();
    outcome.push("setup_s", setup_s, "s", SETUP_REPS);
    outcome.push("jobs_per_s", jobs_per_s, "1/s", latencies.visits());
    push_latency_metrics(&mut outcome, &latencies)?;
    let jobs = &prepared.jobs;
    let mut coverage = vec![None; jobs.len()];
    for run in &runs {
        for &(index, value) in &run.coverage {
            coverage[index].get_or_insert(value);
        }
    }
    let covered: Vec<f64> = coverage.iter().map(|c| c.unwrap_or(0.0)).collect();
    outcome.push(
        "coverage_mean",
        covered.iter().sum::<f64>() / covered.len() as f64,
        "fraction",
        covered.len(),
    );
    prepared.server.stop()?;
    let unique_paths = check_dse_programs(
        jobs,
        &prepared.golden,
        || prepared.caches.clone(),
        &mut outcome,
    );
    outcome.push("unique_paths", unique_paths as f64, "count", jobs.len());
    let attempted = outcome.attempted as usize;
    outcome.push("pass_share", outcome.pass_share(), "fraction", attempted);
    outcome.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    Ok(outcome)
}

/// Parses the scheduler numbers out of the connections' `metrics`
/// lines.
fn server_layer(runs: &[ClientRun], layer: &mut ServiceLayer) -> Result<(), String> {
    for run in runs {
        let line = run
            .metrics_line
            .as_deref()
            .ok_or("a connection sent no metrics line")?;
        let value = json::parse(line).map_err(|e| format!("metrics line: {e}"))?;
        let num = |v: Option<&json::Value>| v.and_then(json::Value::as_f64).unwrap_or(0.0);
        let latency = value.get("job_latency");
        layer.sched_jobs += num(latency.and_then(|l| l.get("count"))) as u64;
        layer.sched_run_p50_ms = layer
            .sched_run_p50_ms
            .max(num(latency.and_then(|l| l.get("p50_ms"))));
        layer.sched_run_p99_ms = layer
            .sched_run_p99_ms
            .max(num(latency.and_then(|l| l.get("p99_ms"))));
        layer.sched_run_max_ms = layer
            .sched_run_max_ms
            .max(num(latency.and_then(|l| l.get("max_ms"))));
        if let Some(json::Value::Arr(shards)) = value.get("shards") {
            layer.sched_steals += shards
                .iter()
                .map(|s| num(s.get("steals")) as u64)
                .sum::<u64>();
        }
        layer.request_errors += num(value.get("request_errors")) as u64;
        let server = value.get("server");
        let rejected = num(server.and_then(|s| s.get("rejected_overloaded")))
            + num(server.and_then(|s| s.get("rejected_draining")));
        layer.rejected = layer.rejected.max(rejected as u64);
    }
    Ok(())
}

/// A traced `service` run: the same clients, plus per-connection
/// `metrics`, the process's peak thread count, and in-process runs of
/// each job on the server's warm caches, so the service's own overhead
/// (transport, protocol, queueing, scheduling, emit) can be told from
/// job run time.
pub fn traced(prepared: Prepared, seconds: f64) -> Result<Outcome, String> {
    let runs = run_clients(&prepared, seconds, true);
    let mut outcome = Outcome::default();
    absorb_failures(&mut outcome, &runs);
    let mut layer = ServiceLayer::default();
    server_layer(&runs, &mut layer)?;
    prepared.server.stop()?;

    let mut latencies = JobLatencies::new(prepared.jobs.len());
    for run in &runs {
        latencies.merge(&run.latencies);
    }
    // Each job's in-process run time on the server's warm caches: the
    // median of a few runs, charged once per completed request.
    let config = service_engine();
    let mut inproc_ms = 0.0;
    for (job, visits) in prepared.jobs.iter().zip(latencies.visits_per_job()) {
        let times: Vec<f64> = (0..INPROC_RUNS)
            .map(|_| {
                let started = Instant::now();
                run_dse_with_caches(&job.program, &job.harness, &config, &prepared.caches);
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        inproc_ms += median(&times) * visits as f64;
    }
    layer.inproc_run_ms_total = inproc_ms;
    layer.overhead_ms_total = latencies.total_ms() - inproc_ms;
    layer.threads_peak = runs.iter().map(|r| r.threads_peak).fold(0.0, f64::max);
    let totals = TraceTotals {
        jobs: latencies.visits(),
        ..TraceTotals::default()
    };
    outcome.metrics = layer_metrics(&crate::traced::Tracer::default(), &[], &totals, &layer);
    Ok(outcome)
}
