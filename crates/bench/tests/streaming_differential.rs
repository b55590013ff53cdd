//! Streaming-protocol byte-identity: a trace replayed clause by clause
//! through wire `push`/`solve` requests must produce exactly the
//! verdict trail of the whole-program run — at any worker count — and
//! every misuse of the session verbs must come back as a structured
//! error, never a panic or a torn stream.

use bench::stream::{fold_responses, record_stream};
use expose_dse::{parser::parse_program, EngineConfig, Harness, Job};
use expose_service::json::{self, Value};
use expose_service::proto::{submit_line, verdict_digest};
use expose_service::{ServeOptions, ServiceConfig};

fn quick_engine() -> EngineConfig {
    EngineConfig {
        max_executions: 3,
        max_steps: 10_000,
        ..EngineConfig::default()
    }
}

fn quick_jobs(programs: usize, seed: u64) -> Vec<Job> {
    corpus::generate_dse_programs(programs, seed)
        .into_iter()
        .map(|p| Job {
            name: p.name.clone(),
            program: parse_program(&p.source).expect("corpus program parses"),
            harness: Harness::strings(&p.entry, p.arity),
            config: quick_engine(),
        })
        .collect()
}

fn serve_text(input: &str, config: &ServiceConfig) -> String {
    let mut out: Vec<u8> = Vec::new();
    ServeOptions::new()
        .config(config.clone())
        .serve(input.as_bytes(), &mut out)
        .expect("serve");
    String::from_utf8(out).expect("utf8")
}

/// The `verdicts` digest of the first `result` line in a served stream.
fn result_digest(output: &str) -> String {
    output
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
        .expect("stream has a result line with a verdicts digest")
}

#[test]
fn streamed_digest_matches_whole_program_submit_across_workers() {
    let sources: Vec<String> = corpus::generate_dse_programs(3, 0x57e4)
        .into_iter()
        .map(|p| p.source)
        .collect();
    let jobs = quick_jobs(3, 0x57e4);
    let mut saw_multi_flip = false;
    for (job, source) in jobs.iter().zip(&sources) {
        let recording = record_stream(job);
        let reference = verdict_digest(&recording.report);
        saw_multi_flip |= recording.max_session_flips >= 2;

        // One connection interleaves the whole-program submit (routed
        // through the scheduler) with the streamed sessions (solved on
        // the reader thread): both must land on the same digest.
        let entry = job.harness.entry.as_deref().expect("corpus entry");
        let arity = job.harness.args.len();
        let mut input = submit_line(&job.name, entry, arity, source, 3, 10_000);
        input.push('\n');
        for line in &recording.script {
            input.push_str(line);
            input.push('\n');
        }

        let mut outputs = Vec::new();
        for workers in [1, 8] {
            let config = ServiceConfig {
                workers,
                ..ServiceConfig::default()
            };
            let output = serve_text(&input, &config);
            let folded = fold_responses(output.lines()).expect("responses parse");
            assert_eq!(folded.errors, 0, "{}: {output}", job.name);
            assert_eq!(
                folded.digest, reference,
                "{} workers={workers}: streamed digest diverged",
                job.name
            );
            assert_eq!(
                result_digest(&output),
                format!("{reference:016x}"),
                "{} workers={workers}: submit digest diverged",
                job.name
            );
            outputs.push(output);
        }
        // The result line lands asynchronously relative to the
        // synchronous session responses, so its interleaving position
        // is scheduling-dependent — but each substream (batch results,
        // session responses) must be byte-identical on its own.
        let split = |output: &str| -> (Vec<String>, Vec<String>) {
            output
                .lines()
                .map(str::to_string)
                .partition(|l| l.contains("\"type\":\"result\"") || l.contains("\"type\":\"done\""))
        };
        assert_eq!(
            split(&outputs[0]),
            split(&outputs[1]),
            "{}: stream bytes changed with the worker count",
            job.name
        );
    }
    assert!(
        saw_multi_flip,
        "corpus must include at least one multi-flip trace"
    );
}

#[test]
fn pop_and_repush_resolves_byte_identically() {
    // Two independent regex clauses; solve depth 1, retract it, re-push
    // the same clause (its event is already in the append-only table),
    // and solve again: the two depth-1 solved lines must be identical.
    let input = concat!(
        r#"{"v":2,"type":"open_session","name":"rp","inputs_used":2}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":0}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^b+$","flags":"","subject":["in",1]}],"cond":["test",1],"taken":false}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":1}"#,
        "\n",
        r#"{"v":2,"type":"pop"}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[],"cond":["test",1],"taken":false}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":1}"#,
        "\n",
        r#"{"v":2,"type":"close_session"}"#,
        "\n",
    );
    let output = serve_text(input, &ServiceConfig::default());
    let lines: Vec<&str> = output.lines().collect();
    let solved: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"solved\""))
        .collect();
    assert_eq!(solved.len(), 3, "{output}");
    assert_eq!(
        solved[1], solved[2],
        "re-pushed clause must solve byte-identically"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with(r#"{"v":2,"type":"popped","session":0,"depth":1}"#)),
        "{output}"
    );
    assert!(
        !output.contains("\"type\":\"error\""),
        "clean script must produce no errors: {output}"
    );
}

#[test]
fn session_misuse_is_structured_never_fatal() {
    let config = ServiceConfig {
        max_session_depth: 2,
        ..ServiceConfig::default()
    };
    let push = r#"{"v":2,"type":"push","events":[],"cond":["bool",true],"taken":true}"#;
    let input = [
        // Session verbs with no session open.
        r#"{"v":2,"type":"pop"}"#,
        r#"{"v":2,"type":"solve","depth":0}"#,
        r#"{"v":2,"type":"close_session"}"#,
        // Session verb without v2.
        r#"{"type":"pop"}"#,
        // Open, then a second interleaved open on the same connection.
        r#"{"v":2,"type":"open_session","name":"m"}"#,
        r#"{"v":2,"type":"open_session","name":"n"}"#,
        // Bad depths and bad event references.
        r#"{"v":2,"type":"pop"}"#,
        r#"{"v":2,"type":"solve","depth":0}"#,
        r#"{"v":2,"type":"push","events":[],"cond":["test",9],"taken":true}"#,
        r#"{"v":2,"type":"push","events":[{"regex":"a","flags":"","subject":["cap",5,0]}],"cond":["bool",true],"taken":true}"#,
        // Fill to the depth limit, then one more.
        push,
        push,
        push,
        // Close, then use the closed session.
        r#"{"v":2,"type":"close_session"}"#,
        r#"{"v":2,"type":"solve","depth":0}"#,
    ]
    .join("\n");
    let output = serve_text(&input, &config);
    let codes: Vec<String> = output
        .lines()
        .filter_map(|line| {
            let value = json::parse(line).ok()?;
            if value.get("type").and_then(Value::as_str) != Some("error") {
                return None;
            }
            value
                .get("code")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .collect();
    assert_eq!(
        codes,
        vec![
            "no_session",
            "no_session",
            "no_session",
            "unsupported_version",
            "session_open",
            "bad_depth",
            "bad_depth",
            "bad_event",
            "bad_event",
            "depth_limit",
            "no_session",
        ],
        "{output}"
    );
    // Every line is versioned, valid JSON, and the stream still closes.
    for line in output.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("invalid line {line:?}: {e}"));
        assert!(line.starts_with("{\"v\":"), "{line}");
    }
    assert!(output.contains("\"type\":\"done\""), "{output}");
}

#[test]
fn stats_report_session_depth_and_prefix_reuse() {
    let input = concat!(
        r#"{"v":2,"type":"open_session","name":"st","inputs_used":1}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
        "\n",
        r#"{"v":2,"type":"push","events":[{"regex":"^[0-9]+$","flags":"","subject":["in",0]}],"cond":["test",1],"taken":false}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":0}"#,
        "\n",
        r#"{"v":2,"type":"solve","depth":1}"#,
        "\n",
        r#"{"v":2,"type":"stats"}"#,
        "\n",
        r#"{"v":2,"type":"close_session"}"#,
        "\n",
        r#"{"v":2,"type":"stats"}"#,
        "\n",
    );
    let output = serve_text(input, &ServiceConfig::default());
    let stats: Vec<Value> = output
        .lines()
        .filter(|l| l.contains("\"type\":\"stats\""))
        .map(|l| json::parse(l).expect("stats parses"))
        .collect();
    assert_eq!(stats.len(), 2, "{output}");
    let session = stats[0].get("session").expect("open session in stats");
    assert_eq!(session.get("id").and_then(Value::as_u64), Some(0));
    assert_eq!(session.get("depth").and_then(Value::as_u64), Some(2));
    let solves = session
        .get("solves")
        .and_then(Value::as_u64)
        .expect("solves");
    assert!(solves >= 2, "{output}");
    let reuse = session
        .get("prefix_reuse_hits")
        .and_then(Value::as_u64)
        .expect("prefix_reuse_hits");
    assert!(reuse >= 1, "depth-1 solve must reuse a frame: {output}");
    // After close_session the stats line carries no session object.
    assert!(stats[1].get("session").is_none(), "{output}");
}
