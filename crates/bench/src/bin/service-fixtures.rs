//! `service-fixtures` — the inputs and checks CI feeds `expose-serve`
//! with: the benchmark corpus as `submit` (`--emit-corpus`) and v2
//! `explore` (`--emit-explore`) lines, the serial one-worker batch
//! reference a served session must match byte for byte (`--batch`),
//! the streamed-vs-whole-program replay check (`--replay-stream`, one
//! deterministic line per workload, nonzero exit on a mismatch) and
//! the closed-loop TCP soak client (`--soak`, nonzero exit if any job
//! got no response).
//!
//! Exactly one mode runs per call. `--help` prints the usage and exits
//! 0; no mode, two modes, an unknown argument, a missing value, an
//! unparsable number or an unknown budget prints the error and the
//! usage to standard error and exits 2.

use std::io::{BufRead, Write};

use bench::cli::Cli;
use bench::soak::{run_soak, SoakOptions};
use bench::stream::{fold_responses, record_stream};
use bench::{corpus_explore_lines, corpus_submit_lines, Budget};
use expose_dse::sched::Completion;
use expose_dse::{BatchOptions, EngineConfig, Job};
use expose_service::json::{self, Value};
use expose_service::session::job_from_submit;
use expose_service::{proto, ProtoVersion, Request, ServeOptions, ServiceConfig};

const CLI: Cli = Cli {
    name: "service-fixtures",
    usage: "\
usage: service-fixtures --emit-corpus N [--budget quick|full]
       service-fixtures --batch
       service-fixtures --emit-explore N [--iterations K] [--budget quick|full]
       service-fixtures --replay-stream N [--workers N] [--budget quick|full]
       service-fixtures --soak ADDR [--clients N] [--seconds S] [--budget quick|full]",
};

enum Mode {
    EmitCorpus(usize),
    Batch,
    EmitExplore(usize),
    ReplayStream(usize),
    Soak(String),
}

struct Options {
    mode: Mode,
    workers: usize,
    clients: usize,
    seconds: u64,
    iterations: usize,
    budget: Budget,
}

fn parse_args() -> Options {
    let mut mode = None;
    let mut workers = 0;
    let mut clients = 8;
    let mut seconds = 0;
    let mut iterations = 5;
    let mut budget = Budget::quick();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let count = |args: &mut _| -> usize { CLI.number(flag, &CLI.value(flag, args)) };
        let chosen = match flag {
            "-h" | "--help" => CLI.help(),
            "--emit-corpus" => Mode::EmitCorpus(count(&mut args)),
            "--batch" => Mode::Batch,
            "--emit-explore" => Mode::EmitExplore(count(&mut args)),
            "--replay-stream" => Mode::ReplayStream(count(&mut args)),
            "--soak" => {
                let addr = CLI.value(flag, &mut args);
                // Accept both a bare host:port and the tcp: spec form.
                Mode::Soak(addr.strip_prefix("tcp:").unwrap_or(&addr).to_string())
            }
            "--workers" => {
                workers = count(&mut args);
                continue;
            }
            "--clients" => {
                clients = count(&mut args);
                continue;
            }
            "--seconds" => {
                seconds = CLI.number(flag, &CLI.value(flag, &mut args));
                continue;
            }
            "--iterations" => {
                iterations = count(&mut args);
                continue;
            }
            "--budget" => {
                budget = CLI.budget(&CLI.value(flag, &mut args));
                continue;
            }
            other => CLI.usage_error(&format!("unknown argument {other:?}")),
        };
        if mode.replace(chosen).is_some() {
            CLI.usage_error("give exactly one mode");
        }
    }
    Options {
        mode: mode.unwrap_or_else(|| CLI.usage_error("no mode given")),
        workers,
        clients,
        seconds,
        iterations,
        budget,
    }
}

/// Parses submit lines into jobs under the service's engine defaults
/// plus each line's overrides.
fn corpus_jobs(lines: &[String], engine: &EngineConfig) -> Vec<Job> {
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let (request, _) = proto::parse_request(line).expect("corpus line parses");
            let Request::Submit(submit) = request else {
                panic!("corpus line is a submit");
            };
            let name = submit.name.clone().unwrap_or_else(|| format!("job{i}"));
            job_from_submit(&submit, &name, engine).expect("corpus job parses")
        })
        .collect()
}

/// The serial reference: collect submits, run them through a
/// one-worker batch, and print result lines identical to a streamed
/// session's.
fn run_batch(input: impl BufRead) -> std::io::Result<()> {
    let engine = ServiceConfig::default().engine;
    let mut pending: Vec<(String, ProtoVersion, Result<Job, String>)> = Vec::new();
    let mut stream_version = ProtoVersion::V1;
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match proto::parse_request(line) {
            Ok((request, version)) => {
                if version == ProtoVersion::V2 {
                    stream_version = ProtoVersion::V2;
                }
                match request {
                    Request::Submit(submit) => {
                        let name = submit
                            .name
                            .clone()
                            .unwrap_or_else(|| format!("job{}", pending.len()));
                        let job = job_from_submit(&submit, &name, &engine);
                        pending.push((name, version, job));
                    }
                    Request::Shutdown => break,
                    Request::Status | Request::Stats | Request::Metrics => {
                        // Progress queries are meaningless for an
                        // offline batch; the streamed session answers
                        // them instead.
                    }
                    Request::OpenSession(_)
                    | Request::Push(_)
                    | Request::Pop
                    | Request::Solve { .. }
                    | Request::CloseSession
                    | Request::Explore(_) => {
                        println!(
                            "{}",
                            proto::error_line(&proto::RequestError::new(
                                proto::ErrorCode::NoSession,
                                "streaming sessions need a served session, not --batch",
                                version,
                            ))
                        );
                    }
                }
            }
            Err(error) => {
                println!("{}", proto::error_line(&error));
            }
        }
    }

    let jobs: Vec<Job> = pending
        .iter()
        .filter_map(|(_, _, job)| job.as_ref().ok().cloned())
        .collect();
    let mut reports = BatchOptions::new().workers(1).run(jobs).into_iter();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let total = pending.len() as u64;
    for (id, (name, version, job)) in pending.into_iter().enumerate() {
        let outcome = match job {
            Ok(_) => Ok(reports.next().expect("one report per job")),
            Err(error) => Err(error),
        };
        let completion = Completion {
            id: id as u64,
            name,
            outcome,
        };
        writeln!(out, "{}", proto::result_line(&completion, version))?;
    }
    writeln!(out, "{}", proto::done_line(total, stream_version))?;
    Ok(())
}

/// Replays the corpus as streaming scripts against served sessions and
/// checks the solved responses against the whole-program reference.
///
/// Per workload, the served input is the workload's `submit` (routed
/// through the scheduler at the configured worker count) followed by
/// the recorded session scripts (solved on the reader thread against
/// the same warm caches). Three equalities must hold:
///
/// 1. the folded `solved` digest equals the recorded reference run's,
/// 2. the `result` line's `verdicts` digest equals the same value,
/// 3. across the corpus, multi-flip workloads report `prefix_reuse`
///    \> 0 in aggregate (a single workload can legitimately report 0 —
///    e.g. when every deep flip is statically infeasible and never
///    reaches the assumption stack).
///
/// One deterministic line per workload goes to stdout, so CI can run
/// this at several worker counts and byte-diff the outputs.
fn run_replay_stream(generated: usize, options: &Options) -> std::io::Result<()> {
    let config = ServiceConfig::default().workers(options.workers);
    let lines = corpus_submit_lines(generated, options.budget);
    let jobs = corpus_jobs(&lines, &config.engine);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failures = 0usize;
    let mut any_multi_flip = false;
    let mut total_prefix_reuse = 0u64;
    for (line, job) in lines.iter().zip(&jobs) {
        let recording = record_stream(job);
        let reference = proto::verdict_digest(&recording.report);

        let mut input = format!("{line}\n");
        for line in &recording.script {
            input.push_str(line);
            input.push('\n');
        }

        let mut served: Vec<u8> = Vec::new();
        let summary = ServeOptions::new()
            .config(config.clone())
            .serve(input.as_bytes(), &mut served)?;
        let served = String::from_utf8(served).expect("utf8 output");
        let folded = fold_responses(served.lines()).unwrap_or_else(|e| panic!("{e}"));
        let submitted = served
            .lines()
            .find_map(|line| {
                let value = json::parse(line).ok()?;
                if value.get("type").and_then(Value::as_str) != Some("result") {
                    return None;
                }
                value
                    .get("verdicts")
                    .and_then(Value::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_default();

        any_multi_flip |= recording.max_session_flips >= 2;
        total_prefix_reuse += folded.prefix_reuse_hits;

        let digest_ok = folded.digest == reference;
        let submit_ok = submitted == format!("{reference:016x}");
        let clean = summary.request_errors == 0 && folded.errors == 0;
        let ok = digest_ok && submit_ok && clean;
        if !ok {
            failures += 1;
            eprintln!(
                "service-fixtures: {} mismatch: streamed={:016x} reference={reference:016x} \
                 submit={submitted:?} prefix_reuse={} errors={}/{}",
                job.name,
                folded.digest,
                folded.prefix_reuse_hits,
                summary.request_errors,
                folded.errors,
            );
        }
        writeln!(
            out,
            "{} sessions={} solves={} verdicts={reference:016x} prefix_reuse={} {}",
            job.name,
            recording.report.executions,
            folded.solves,
            folded.prefix_reuse_hits,
            if ok { "ok" } else { "MISMATCH" },
        )?;
    }
    if failures > 0 {
        return Err(std::io::Error::other(format!(
            "{failures} workload(s) diverged between streamed and whole-program solving"
        )));
    }
    if any_multi_flip && total_prefix_reuse == 0 {
        return Err(std::io::Error::other(
            "multi-flip workloads streamed without any prefix reuse",
        ));
    }
    Ok(())
}

/// Runs the concurrent soak client against an already-serving `tcp:`
/// endpoint and prints one summary line; exits nonzero if any job got
/// no response at all.
fn run_soak_mode(addr: &str, options: &Options) -> std::io::Result<()> {
    let report = run_soak(&SoakOptions {
        addr: addr.to_string(),
        clients: options.clients,
        seconds: options.seconds,
        budget: options.budget,
        ..SoakOptions::default()
    })?;
    println!(
        "soak: clients={} jobs={} completed={} errors={} dropped={} wall_ms={:.0} \
         p50_ms={:.3} p99_ms={:.3} max_ms={:.3}",
        options.clients,
        report.jobs,
        report.completed,
        report.errors,
        report.dropped,
        report.wall_ms,
        report.latency_p50_ms,
        report.latency_p99_ms,
        report.latency_max_ms,
    );
    if report.dropped > 0 {
        return Err(std::io::Error::other(format!(
            "{} job(s) got no response from the server",
            report.dropped
        )));
    }
    Ok(())
}

/// Prints `lines`, one per line.
fn print_lines(lines: Vec<String>) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in lines {
        writeln!(out, "{line}")?;
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let options = parse_args();
    match &options.mode {
        Mode::EmitCorpus(generated) => print_lines(corpus_submit_lines(*generated, options.budget)),
        Mode::Batch => run_batch(std::io::stdin().lock()),
        Mode::EmitExplore(generated) => print_lines(corpus_explore_lines(
            *generated,
            options.budget,
            options.iterations,
        )),
        Mode::ReplayStream(generated) => run_replay_stream(*generated, &options),
        Mode::Soak(addr) => run_soak_mode(addr, &options),
    }
}
