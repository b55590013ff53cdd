//! Recording whole-program DSE runs as protocol-v2 streaming scripts.
//!
//! [`record_stream`] runs one job through the engine and, per executed
//! trace, re-expresses its flip solving as a wire session: one
//! `open_session`, then an interleaved `push`/`solve` pair per solved
//! clause, then `close_session`. Replaying the script through a served
//! session poses the same flip queries against the same assumption
//! stack the in-process run used, so the verdict trail folded from the
//! `solved` responses is byte-identical to [`verdict_digest`] of the
//! recorded report — that equality is the streaming determinism
//! contract checked by `service-fixtures --replay-stream` in CI and by
//! `crates/bench/tests/streaming_differential.rs`.
//!
//! [`verdict_digest`]: expose_service::proto::verdict_digest

use expose_core::SupportLevel;
use expose_dse::sym::Trace;
use expose_dse::{run_dse_observed, CacheSet, Job, Report};

use expose_service::json::{self, Value};
use expose_service::proto::VerdictDigest;
use expose_service::wire;

/// One job recorded as a streaming script plus its whole-program
/// reference report.
#[derive(Debug, Clone)]
pub struct StreamRecording {
    /// Job name (session names are `<name>/t<index>`).
    pub name: String,
    /// The reference report of the recorded run.
    pub report: Report,
    /// Request lines: one session per executed trace, in trace order.
    pub script: Vec<String>,
    /// The largest flip count of any recorded session — sessions with
    /// two or more flips exercise prefix-frame reuse.
    pub max_session_flips: usize,
}

/// The wire spelling of a support level (inverse of the `support`
/// field parser).
pub fn support_str(level: SupportLevel) -> &'static str {
    match level {
        SupportLevel::Concrete => "concrete",
        SupportLevel::Modeling => "modeling",
        SupportLevel::Captures => "captures",
        SupportLevel::Refinement => "refinement",
    }
}

/// Runs `job` and records every executed trace as a wire session.
pub fn record_stream(job: &Job) -> StreamRecording {
    let caches = CacheSet::session_from_config(&job.config);
    let mut script = Vec::new();
    let mut max_session_flips = 0usize;
    let mut index = 0usize;
    let support = job.config.support;
    let report = run_dse_observed(
        &job.program,
        &job.harness,
        &job.config,
        &caches,
        &mut |trace, flips| {
            append_trace_script(
                &mut script,
                &format!("{}/t{index}", job.name),
                trace,
                flips,
                support,
            );
            max_session_flips = max_session_flips.max(flips);
            index += 1;
        },
    );
    StreamRecording {
        name: job.name.clone(),
        report,
        script,
        max_session_flips,
    }
}

/// Appends one trace's session script: `open_session`, one
/// `push`+`solve` pair per solved clause, `close_session`. Events are
/// shipped incrementally — each push carries exactly the table prefix
/// its clause needs that earlier pushes have not sent.
fn append_trace_script(
    script: &mut Vec<String>,
    name: &str,
    trace: &Trace,
    flips: usize,
    support: SupportLevel,
) {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(96);
    line.push_str("{\"v\":2,\"type\":\"open_session\",\"name\":");
    json::write_escaped(&mut line, name);
    let _ = write!(
        line,
        ",\"support\":\"{}\",\"inputs_used\":{}}}",
        support_str(support),
        trace.inputs_used
    );
    script.push(line);
    let mut sent = 0usize;
    for (k, clause) in trace.path.iter().take(flips).enumerate() {
        // Event subjects only reference strictly earlier events, so
        // sending the table prefix up to the clause's deepest direct
        // reference covers all transitive references too.
        let needed = wire::max_referenced_event(&clause.cond)
            .map_or(sent, |max| max + 1)
            .max(sent);
        let mut line = String::with_capacity(128);
        line.push_str("{\"v\":2,\"type\":\"push\",\"events\":[");
        for (i, event) in trace.events[sent..needed].iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            wire::write_event(&mut line, event);
        }
        sent = needed;
        line.push_str("],\"cond\":");
        wire::write_sym_expr(&mut line, &clause.cond);
        let _ = write!(line, ",\"taken\":{}}}", clause.taken);
        script.push(line);
        script.push(format!("{{\"v\":2,\"type\":\"solve\",\"depth\":{k}}}"));
    }
    script.push("{\"v\":2,\"type\":\"close_session\"}".to_string());
}

/// What a replayed stream's responses folded down to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamedVerdicts {
    /// FNV-1a 64 digest over the `solved` lines, in response order —
    /// comparable with [`expose_service::proto::verdict_digest`].
    pub digest: u64,
    /// Number of `solved` lines.
    pub solves: u64,
    /// Sum of their `prefix_reuse` fields.
    pub prefix_reuse_hits: u64,
    /// Number of `error` lines.
    pub errors: u64,
}

/// Folds the response lines of a served stream into a
/// [`StreamedVerdicts`]. Lines other than `solved`/`error` are
/// ignored; a `solved` line missing a verdict field is an error.
pub fn fold_responses<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<StreamedVerdicts, String> {
    let mut digest = VerdictDigest::new();
    let mut folded = StreamedVerdicts::default();
    for line in lines {
        let value = json::parse(line).map_err(|e| format!("response {line:?}: {e}"))?;
        match value.get("type").and_then(Value::as_str) {
            Some("solved") => {
                let field = |key: &str| {
                    value
                        .get(key)
                        .ok_or_else(|| format!("solved line missing {key:?}: {line}"))
                };
                let sat = field("sat")?
                    .as_bool()
                    .ok_or_else(|| format!("solved \"sat\" not a bool: {line}"))?;
                let refinements = field("refinements")?
                    .as_u64()
                    .ok_or_else(|| format!("solved \"refinements\" not an integer: {line}"))?;
                let limit_hit = field("limit_hit")?
                    .as_bool()
                    .ok_or_else(|| format!("solved \"limit_hit\" not a bool: {line}"))?;
                let prefix_reuse = field("prefix_reuse")?
                    .as_u64()
                    .ok_or_else(|| format!("solved \"prefix_reuse\" not an integer: {line}"))?;
                digest.update(sat, refinements, limit_hit);
                folded.solves += 1;
                folded.prefix_reuse_hits += prefix_reuse;
            }
            Some("error") => folded.errors += 1,
            _ => {}
        }
    }
    folded.digest = digest.finish();
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expose_dse::{parser::parse_program, EngineConfig, Harness};
    use expose_service::proto::verdict_digest;
    use expose_service::{ServeOptions, ServiceConfig};

    fn flag_job() -> Job {
        let program = parse_program(
            r#"
            function f(x, y) {
                if (/^-?[0-9]+$/.test(x)) {
                    if (y === "go") { return 1; }
                    return 2;
                }
                return 0;
            }
        "#,
        )
        .expect("program parses");
        Job {
            name: "flag".into(),
            program,
            harness: Harness::strings("f", 2),
            config: EngineConfig {
                max_executions: 8,
                ..EngineConfig::default()
            },
        }
    }

    #[test]
    fn recorded_stream_replays_to_the_reference_digest() {
        let job = flag_job();
        let recording = record_stream(&job);
        assert!(!recording.script.is_empty());
        assert!(
            recording.max_session_flips >= 2,
            "workload must exercise multi-flip sessions"
        );

        let config = ServiceConfig {
            engine: job.config.clone(),
            ..ServiceConfig::default()
        };
        let mut input = recording.script.join("\n");
        input.push('\n');
        let mut out: Vec<u8> = Vec::new();
        let summary = ServeOptions::new()
            .config(config)
            .serve(input.as_bytes(), &mut out)
            .expect("serve");
        assert_eq!(summary.request_errors, 0);
        let text = String::from_utf8(out).expect("utf8");
        let folded = fold_responses(text.lines()).expect("responses parse");
        assert_eq!(folded.errors, 0);
        assert_eq!(folded.solves, recording.report.queries.len() as u64);
        assert_eq!(
            folded.digest,
            verdict_digest(&recording.report),
            "streamed verdict trail must be byte-identical to the in-process run"
        );
        assert!(
            folded.prefix_reuse_hits > 0,
            "multi-flip sessions must reuse prefix frames"
        );
    }

    #[test]
    fn fold_rejects_malformed_solved_lines() {
        let missing = [r#"{"v":2,"type":"solved","session":0,"depth":0,"sat":true}"#];
        assert!(fold_responses(missing).is_err());
        let ok = [
            r#"{"v":2,"type":"session_opened","session":0,"name":"s"}"#,
            r#"{"v":2,"type":"error","code":"bad_depth","msg":"x"}"#,
        ];
        let folded = fold_responses(ok).expect("parses");
        assert_eq!(folded.solves, 0);
        assert_eq!(folded.errors, 1);
        assert_eq!(folded.digest, VerdictDigest::new().finish());
    }
}
