//! Golden results and the correctness checks that compare against them.
//!
//! Golden results come from the serial reference configuration
//! ([`crate::inputs::reference_config`]: caches off, from-scratch
//! solving, one flip worker) and are keyed by the program's canonical
//! form ([`ProgramSpec::golden_key`]). Every seed draws its packages
//! from the same templates, so one file, `golden/reference.ndjson`,
//! covers the job set of any seed; a program whose key is missing from
//! it (a corpus template added later) is computed once at set-up from
//! the same reference configuration.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use expose_dse::sched::Completion;
use expose_dse::{
    execute, explore_with_caches, run_dse_observed, trail_digest, DseCaches, ExploreReport,
    InterpConfig, Report,
};
use expose_service::json::{self, escaped};
use expose_service::{result_line, ProtoVersion};

use crate::inputs::{explore_config, reference_config, Job};

/// Where the golden file lives, relative to the benchmark's manifest.
pub const GOLDEN_FILE: &str = "golden/reference.ndjson";

/// Golden DSE result of one canonical program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseGolden {
    /// The service's v1 `result` line for the report, with job id 0
    /// and an empty name: coverage, tests, queries, the verdict digest
    /// and the bug set in one string.
    pub line: String,
    /// Covered statement ids, ascending.
    pub covered: Vec<u32>,
    /// Distinct branch trails the run executed.
    pub paths: usize,
}

/// Golden exploration result of one canonical program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreGolden {
    /// [`ExploreReport::trajectory_digest`]: corpus, schedule,
    /// coverage growth and bugs in one value.
    pub trajectory: u64,
    /// Distinct executed paths.
    pub unique_paths: usize,
    /// Covered statements.
    pub covered: usize,
}

/// The golden table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    /// DSE results by golden key.
    pub dse: BTreeMap<u64, DseGolden>,
    /// Exploration results by golden key.
    pub explore: BTreeMap<u64, ExploreGolden>,
}

/// The deterministic part of a DSE report, in the form it is compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseOutcome {
    /// See [`DseGolden::line`].
    pub line: String,
    /// See [`DseGolden::covered`].
    pub covered: Vec<u32>,
}

impl DseOutcome {
    /// Summarizes a report.
    pub fn of(report: Report) -> DseOutcome {
        let mut covered: Vec<u32> = report.coverage.iter().copied().collect();
        covered.sort_unstable();
        let completion = Completion {
            id: 0,
            name: String::new(),
            outcome: Ok(report),
        };
        DseOutcome {
            line: result_line(&completion, ProtoVersion::V1),
            covered,
        }
    }

    /// Whether the outcome equals the golden one.
    pub fn matches(&self, golden: &DseGolden) -> bool {
        self.line == golden.line && self.covered == golden.covered
    }
}

/// The prefix of a v1 result line up to and including its name.
fn result_prefix(id: u64, name: &str) -> String {
    format!(
        "{{\"v\":1,\"type\":\"result\",\"job\":{id},\"name\":{}",
        escaped(name)
    )
}

/// Whether a service `result` line for the program `name` equals the
/// golden line, apart from its job id.
pub fn service_line_matches(line: &str, name: &str, golden: &DseGolden) -> bool {
    let Some(rest) = line.strip_prefix("{\"v\":1,\"type\":\"result\",\"job\":") else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let Ok(id) = rest[..digits].parse::<u64>() else {
        return false;
    };
    let golden_prefix = result_prefix(0, "");
    let Some(golden_rest) = golden.line.strip_prefix(&golden_prefix) else {
        return false;
    };
    line.strip_prefix(&result_prefix(id, name)) == Some(golden_rest)
}

/// Runs one DSE job through the observed entry point, counting the
/// distinct branch trails it executes.
pub fn run_dse_counting_paths(
    job: &Job,
    config: &expose_dse::EngineConfig,
    caches: &DseCaches,
) -> (Report, usize) {
    let mut trails = HashSet::new();
    let report = run_dse_observed(
        &job.program,
        &job.harness,
        config,
        caches,
        &mut |trace, _| {
            let trail: Vec<(u32, bool)> =
                trace.path.iter().map(|c| (c.branch_id, c.taken)).collect();
            trails.insert(trail_digest(&trail));
        },
    );
    (report, trails.len())
}

/// Whether every bug of the golden line reproduces its assertion
/// failure when the job's program is re-run concretely on the bug's
/// inputs. Returns the number of bugs that did not.
pub fn unreproduced_bugs(job: &Job, golden: &DseGolden) -> Result<usize, String> {
    let value = json::parse(&golden.line).map_err(|e| format!("golden line: {e}"))?;
    let Some(json::Value::Arr(bugs)) = value.get("bugs") else {
        return Err("golden line has no bug list".to_string());
    };
    let interp = InterpConfig {
        support: crate::inputs::engine_config().support,
        max_steps: crate::inputs::MAX_STEPS,
    };
    let mut failed = 0;
    for bug in bugs {
        let json::Value::Arr(parts) = bug else {
            return Err("malformed bug entry".to_string());
        };
        let (Some(stmt), Some(json::Value::Arr(inputs))) =
            (parts.first().and_then(json::Value::as_u64), parts.get(1))
        else {
            return Err("malformed bug entry".to_string());
        };
        let inputs: Vec<String> = inputs
            .iter()
            .map(|v| v.as_str().unwrap_or_default().to_string())
            .collect();
        let trace = execute(&job.program, &job.harness, &inputs, &interp);
        if !trace
            .assertion_failures
            .iter()
            .any(|&s| u64::from(s) == stmt)
        {
            failed += 1;
        }
    }
    Ok(failed)
}

/// The golden comparison of one exploration report.
pub fn explore_matches(report: &ExploreReport, golden: &ExploreGolden) -> bool {
    report.trajectory_digest() == golden.trajectory
        && report.unique_paths == golden.unique_paths
        && report.coverage.len() == golden.covered
}

/// Re-executes every corpus entry of an exploration report. An
/// executed entry must reproduce its stored trail digest; a pending
/// entry must follow the trail it was solved for (a prefix of what it
/// executes). Returns the number of entries that did not.
pub fn unreproduced_corpus_entries(job: &Job, report: &ExploreReport) -> usize {
    let interp = InterpConfig {
        support: crate::inputs::engine_config().support,
        max_steps: crate::inputs::MAX_STEPS,
    };
    report
        .corpus
        .entries()
        .iter()
        .filter(|entry| {
            let trace = execute(&job.program, &job.harness, &entry.inputs, &interp);
            let trail: Vec<(u32, bool)> =
                trace.path.iter().map(|c| (c.branch_id, c.taken)).collect();
            if entry.executed {
                trail_digest(&trail) != entry.trail_digest()
            } else {
                !trail.starts_with(&entry.trail)
            }
        })
        .count()
}

impl Golden {
    /// Reads the golden file; a missing file is an empty table.
    pub fn load(path: &Path) -> Result<Golden, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Golden::parse(&text, &path.display().to_string()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Golden::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parses the NDJSON form written by [`Golden::render`]; `origin`
    /// names the text in errors.
    pub fn parse(text: &str, origin: &str) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let fail = |what: &str| format!("{origin}:{}: {what}", n + 1);
            let value = json::parse(line).map_err(|e| fail(&e.to_string()))?;
            let key = hex_field(&value, "key").ok_or_else(|| fail("bad key"))?;
            match value.get("kind").and_then(json::Value::as_str) {
                Some("dse") => {
                    let line = value.get("line").and_then(json::Value::as_str);
                    let paths = value.get("paths").and_then(json::Value::as_u64);
                    let covered = match value.get("covered") {
                        Some(json::Value::Arr(ids)) => ids
                            .iter()
                            .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
                            .collect::<Option<Vec<u32>>>(),
                        _ => None,
                    };
                    let (Some(line), Some(paths), Some(covered)) = (line, paths, covered) else {
                        return Err(fail("incomplete dse entry"));
                    };
                    golden.dse.insert(
                        key,
                        DseGolden {
                            line: line.to_string(),
                            covered,
                            paths: paths as usize,
                        },
                    );
                }
                Some("explore") => {
                    let trajectory = hex_field(&value, "trajectory");
                    let unique = value.get("unique_paths").and_then(json::Value::as_u64);
                    let covered = value.get("covered").and_then(json::Value::as_u64);
                    let (Some(trajectory), Some(unique), Some(covered)) =
                        (trajectory, unique, covered)
                    else {
                        return Err(fail("incomplete explore entry"));
                    };
                    golden.explore.insert(
                        key,
                        ExploreGolden {
                            trajectory,
                            unique_paths: unique as usize,
                            covered: covered as usize,
                        },
                    );
                }
                _ => return Err(fail("unknown kind")),
            }
        }
        Ok(golden)
    }

    /// Renders the table as NDJSON, sorted by kind and key.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, g) in &self.dse {
            let covered: Vec<String> = g.covered.iter().map(u32::to_string).collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"dse\",\"key\":\"{key:016x}\",\"paths\":{},\"covered\":[{}],\"line\":{}}}",
                g.paths,
                covered.join(","),
                escaped(&g.line)
            );
        }
        for (key, g) in &self.explore {
            let _ = writeln!(
                out,
                "{{\"kind\":\"explore\",\"key\":\"{key:016x}\",\"trajectory\":\"{:016x}\",\
                 \"unique_paths\":{},\"covered\":{}}}",
                g.trajectory, g.unique_paths, g.covered
            );
        }
        out
    }

    /// Computes the reference DSE result of every job whose key is
    /// missing. Returns how many were computed.
    pub fn fill_dse(&mut self, jobs: &[Job]) -> usize {
        let config = reference_config();
        let mut computed = 0;
        for job in jobs {
            if self.dse.contains_key(&job.key) {
                continue;
            }
            let canonical = job.spec.canonical().parse().expect("canonical form parses");
            let (report, paths) =
                run_dse_counting_paths(&canonical, &config, &DseCaches::disabled());
            let outcome = DseOutcome::of(report);
            self.dse.insert(
                job.key,
                DseGolden {
                    line: outcome.line,
                    covered: outcome.covered,
                    paths,
                },
            );
            computed += 1;
        }
        computed
    }

    /// Computes the reference exploration result of every job whose
    /// key is missing. Returns how many were computed.
    pub fn fill_explore(&mut self, jobs: &[Job]) -> usize {
        let config = explore_config(reference_config());
        let mut computed = 0;
        for job in jobs {
            if self.explore.contains_key(&job.key) {
                continue;
            }
            let canonical = job.spec.canonical().parse().expect("canonical form parses");
            let report = explore_with_caches(
                &canonical.program,
                &canonical.harness,
                &config,
                &DseCaches::disabled(),
            );
            self.explore.insert(
                job.key,
                ExploreGolden {
                    trajectory: report.trajectory_digest(),
                    unique_paths: report.unique_paths,
                    covered: report.coverage.len(),
                },
            );
            computed += 1;
        }
        computed
    }
}

fn hex_field(value: &json::Value, key: &str) -> Option<u64> {
    u64::from_str_radix(value.get(key)?.as_str()?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_line() -> DseGolden {
        DseGolden {
            line: "{\"v\":1,\"type\":\"result\",\"job\":0,\"name\":\"\",\"stmts\":3}".to_string(),
            covered: vec![0, 1],
            paths: 2,
        }
    }

    #[test]
    fn service_lines_compare_apart_from_job_id() {
        let golden = golden_line();
        let ok = "{\"v\":1,\"type\":\"result\",\"job\":17,\"name\":\"pkg\",\"stmts\":3}";
        assert!(service_line_matches(ok, "pkg", &golden));
        let wrong_name = "{\"v\":1,\"type\":\"result\",\"job\":17,\"name\":\"other\",\"stmts\":3}";
        assert!(!service_line_matches(wrong_name, "pkg", &golden));
        let wrong_body = "{\"v\":1,\"type\":\"result\",\"job\":17,\"name\":\"pkg\",\"stmts\":4}";
        assert!(!service_line_matches(wrong_body, "pkg", &golden));
        assert!(!service_line_matches(
            "{\"v\":1,\"type\":\"error\"}",
            "pkg",
            &golden
        ));
    }

    #[test]
    fn golden_file_round_trips() {
        let mut golden = Golden::default();
        golden.dse.insert(u64::MAX, golden_line());
        golden.explore.insert(
            3,
            ExploreGolden {
                trajectory: 0xdead_beef_dead_beef,
                unique_paths: 9,
                covered: 4,
            },
        );
        let parsed = Golden::parse(&golden.render(), "test").expect("parses");
        assert_eq!(parsed, golden);
        assert!(Golden::parse("{\"kind\":\"dse\"}", "test").is_err());
    }
}
