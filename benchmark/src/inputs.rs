//! Seeded workload inputs: the programs every workload runs and the
//! NDJSON submit lines the service workload sends.
//!
//! Inputs depend on the seed only: the eleven Table 6 library programs
//! and `generated` Table 7 packages drawn by
//! [`corpus::generate_dse_programs`] from the seed (see
//! [`program_specs`] for how the mix is kept fixed).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use corpus::{generate_dse_programs, library_workloads, ProgramClass};
use expose_core::SupportLevel;
use expose_dse::ast::Program;
use expose_dse::parser::parse_program;
use expose_dse::{EngineConfig, ExploreConfig, Harness};
use expose_service::json::escaped;
use strsolve::SolverConfig;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Generated packages per DSE or service job set (plus the 11
/// libraries: 1011 jobs).
pub const DSE_GENERATED: usize = 1000;
/// Generated packages per exploration job set (plus the 11 libraries).
pub const EXPLORE_GENERATED: usize = 1000;
/// Executions per DSE job (`Budget::full()` of the table binaries).
pub const MAX_EXECUTIONS: usize = 48;
/// Interpreter steps per execution (`Budget::full()`).
pub const MAX_STEPS: u64 = 100_000;
/// Iterations per exploration job.
pub const EXPLORE_ITERATIONS: usize = 32;
/// Name the entry function is renamed to in a golden key.
const CANONICAL_ENTRY: &str = "entry";

/// One program as source: what a job runs and what a submit line
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Package name.
    pub name: String,
    /// Mini-JS source.
    pub source: String,
    /// Entry function.
    pub entry: String,
    /// Number of symbolic string arguments.
    pub arity: usize,
}

impl ProgramSpec {
    /// The program with its entry function renamed to a fixed name.
    /// Generated packages differ only in their entry name, so they
    /// share a canonical form, and its golden result covers them all.
    pub fn canonical(&self) -> ProgramSpec {
        ProgramSpec {
            name: String::new(),
            source: self.source.replace(
                &format!("function {}(", self.entry),
                &format!("function {CANONICAL_ENTRY}("),
            ),
            entry: CANONICAL_ENTRY.to_string(),
            arity: self.arity,
        }
    }

    /// Key of the program's golden entry: a digest of the canonical
    /// source, arity and budget.
    pub fn golden_key(&self) -> u64 {
        let canonical = self.canonical();
        let mut hash = expose_dse::store::Fnv::new();
        for byte in canonical.source.bytes() {
            hash.eat(byte);
        }
        hash.eat_u64(canonical.arity as u64);
        hash.eat_u64(MAX_EXECUTIONS as u64);
        hash.eat_u64(MAX_STEPS);
        hash.eat_u64(EXPLORE_ITERATIONS as u64);
        hash.finish()
    }

    /// The protocol-v1 `submit` line for this program at the
    /// benchmark's budget.
    pub fn submit_line(&self) -> String {
        format!(
            "{{\"type\":\"submit\",\"name\":{},\"entry\":{},\"arity\":{},\
             \"max_executions\":{MAX_EXECUTIONS},\"max_steps\":{MAX_STEPS},\"program\":{}}}",
            escaped(&self.name),
            escaped(&self.entry),
            self.arity,
            escaped(&self.source),
        )
    }

    /// Parses the program and builds its harness.
    pub fn parse(&self) -> Result<Job, String> {
        let program = parse_program(&self.source)
            .map_err(|e| format!("program {} does not parse: {e}", self.name))?;
        Ok(Job {
            spec: self.clone(),
            key: self.golden_key(),
            program,
            harness: Harness::strings(&self.entry, self.arity),
        })
    }
}

/// A parsed program, ready to run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Its source form.
    pub spec: ProgramSpec,
    /// Its golden key ([`ProgramSpec::golden_key`]).
    pub key: u64,
    /// The parsed program.
    pub program: Program,
    /// Symbolic string arguments for the entry function.
    pub harness: Harness,
}

/// Generated packages drawn per package kept: the pool the quotas of
/// [`program_specs`] are filled from.
const POOL_FACTOR: usize = 8;

/// The seeded program list: `generated` packages drawn from `seed`,
/// with the 11 libraries spread evenly among them.
///
/// The packages come from [`generate_dse_programs`], but the mix is
/// fixed: each class gets its expected share of `generated` (60% plain,
/// 25% captures, 10% precedence, 5% backreferences), split evenly over
/// the class's templates, and the first packages of each template in
/// generation order fill its quota. Templates differ in cost by two
/// orders of magnitude, so a mix left to chance would make a run's cost
/// depend on the seed; this way the seed picks which packages run and
/// in which order, not how much work a run holds.
pub fn program_specs(generated: usize, seed: u64) -> Vec<ProgramSpec> {
    let libraries: Vec<ProgramSpec> = library_workloads()
        .into_iter()
        .map(|w| ProgramSpec {
            name: w.name.to_string(),
            source: w.source.to_string(),
            entry: w.entry.to_string(),
            arity: w.arity,
        })
        .collect();

    let mut packages = Vec::with_capacity(generated);
    let pool = generate_dse_programs(generated * POOL_FACTOR, seed);
    // Templates of each class, in a seed-independent order.
    let mut templates: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    let keyed: Vec<(usize, u64, ProgramSpec)> = pool
        .into_iter()
        .map(|p| {
            let class = class_index(p.class);
            let spec = ProgramSpec {
                name: p.name,
                source: p.source,
                entry: p.entry,
                arity: p.arity,
            };
            let key = spec.golden_key();
            templates.entry(class).or_default().insert(key);
            (class, key, spec)
        })
        .collect();
    let mut quota: HashMap<u64, usize> = HashMap::new();
    let mut class_left = generated;
    for (class, keys) in &templates {
        let share = if *class + 1 == CLASS_SHARES.len() {
            class_left
        } else {
            (generated * CLASS_SHARES[*class])
                .div_ceil(100)
                .min(class_left)
        };
        class_left -= share;
        for (i, key) in keys.iter().enumerate() {
            quota.insert(
                *key,
                share / keys.len() + usize::from(i < share % keys.len()),
            );
        }
    }
    for (_, key, spec) in keyed {
        let left = quota.get_mut(&key).expect("every key has a quota");
        if *left > 0 {
            *left -= 1;
            packages.push(spec);
        }
    }

    // The libraries are the slowest jobs; spread them evenly through
    // the order, so that no two of them queue behind each other in a
    // service client's window of in-flight requests.
    let total = libraries.len() + packages.len();
    let slots = libraries.len();
    let mut libraries = libraries.into_iter().enumerate().peekable();
    let mut packages = packages.into_iter();
    (0..total)
        .map(|position| match libraries.peek() {
            Some(&(i, _)) if position == i * total / slots => libraries.next().expect("peeked").1,
            _ => packages.next().expect("one package per remaining slot"),
        })
        .collect()
}

/// Expected share, in percent, of each program class (indexed by
/// [`class_index`]) in [`generate_dse_programs`]' output.
const CLASS_SHARES: [usize; 4] = [60, 25, 10, 5];

fn class_index(class: ProgramClass) -> usize {
    match class {
        ProgramClass::Plain => 0,
        ProgramClass::Captures => 1,
        ProgramClass::Precedence => 2,
        ProgramClass::Backrefs => 3,
    }
}

/// The first job of each distinct program: the warm-up set, the same
/// templates for every seed.
pub fn one_per_template(jobs: &[Job]) -> impl Iterator<Item = &Job> {
    let mut seen = BTreeSet::new();
    jobs.iter().filter(move |job| seen.insert(job.key))
}

/// Parses every spec.
pub fn parse_all(specs: &[ProgramSpec]) -> Result<Vec<Job>, String> {
    specs.iter().map(ProgramSpec::parse).collect()
}

/// Worker count used for flip solving, scheduler shards and service
/// clients: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The engine configuration every measured job runs with: the
/// table budget, full regex support (CEGAR refinement), default
/// caches, and `nproc` flip workers.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        support: SupportLevel::Refinement,
        max_executions: MAX_EXECUTIONS,
        max_steps: MAX_STEPS,
        flip_workers: nproc(),
        ..EngineConfig::default()
    }
}

/// The serial reference configuration the golden results come from:
/// caches off, from-scratch (non-incremental) solving, one flip worker.
pub fn reference_config() -> EngineConfig {
    EngineConfig {
        flip_workers: 1,
        model_cache_capacity: 0,
        query_cache_capacity: 0,
        solver: SolverConfig {
            incremental: false,
            ..SolverConfig::default()
        },
        ..engine_config()
    }
}

/// Exploration settings around an engine configuration.
pub fn explore_config(engine: EngineConfig) -> ExploreConfig {
    ExploreConfig {
        engine,
        max_iterations: EXPLORE_ITERATIONS,
        ..ExploreConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = program_specs(200, 7);
        let b = program_specs(200, 7);
        assert_eq!(a, b);
        let lines_a: Vec<String> = a.iter().map(ProgramSpec::submit_line).collect();
        let lines_b: Vec<String> = b.iter().map(ProgramSpec::submit_line).collect();
        assert_eq!(lines_a, lines_b);
        assert_eq!(a.len(), 11 + 200);
    }

    #[test]
    fn every_seed_gets_the_same_template_mix() {
        let mix = |seed| {
            let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
            for spec in program_specs(1000, seed) {
                *counts.entry(spec.golden_key()).or_insert(0) += 1;
            }
            counts
        };
        let first = mix(1);
        assert_eq!(first.values().sum::<usize>(), 1011);
        for seed in [2, 3, 0xdead_beef] {
            assert_eq!(mix(seed), first, "seed {seed}");
        }
    }

    fn is_package(spec: &ProgramSpec) -> bool {
        spec.name.starts_with("dse-pkg-")
    }

    #[test]
    fn different_seeds_give_different_packages() {
        let a = program_specs(200, 7);
        let b = program_specs(200, 8);
        let libraries = |specs: &[ProgramSpec]| -> Vec<(usize, ProgramSpec)> {
            let mut found: Vec<(usize, ProgramSpec)> = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                if !is_package(spec) {
                    found.push((i, spec.clone()));
                }
            }
            found
        };
        assert_eq!(libraries(&a), libraries(&b), "the libraries are fixed");
        assert_ne!(a, b);
    }

    #[test]
    fn libraries_are_spread_through_the_order() {
        let specs = program_specs(1000, 5);
        let positions: Vec<usize> = (0..specs.len())
            .filter(|&i| !is_package(&specs[i]))
            .collect();
        assert_eq!(positions.len(), 11);
        for pair in positions.windows(2) {
            assert!(pair[1] - pair[0] >= 90, "{positions:?}");
        }
    }

    #[test]
    fn generated_packages_share_canonical_forms() {
        let specs = program_specs(200, 3);
        let mut keys: Vec<u64> = specs.iter().map(ProgramSpec::golden_key).collect();
        keys.sort_unstable();
        keys.dedup();
        // 11 libraries plus the 10 package templates.
        assert_eq!(keys.len(), 21);
        for spec in specs.iter().filter(|s| is_package(s)) {
            let canonical = spec.canonical();
            assert!(canonical.source.contains("function entry("));
            assert!(!canonical.source.contains(&spec.entry));
        }
    }

    #[test]
    fn submit_lines_parse_back() {
        for spec in program_specs(5, 1) {
            let line = spec.submit_line();
            let (request, _) = expose_service::parse_request(&line).expect("parses");
            let expose_service::Request::Submit(submit) = request else {
                panic!("a submit line");
            };
            assert_eq!(submit.program, spec.source);
            assert_eq!(submit.max_executions, Some(MAX_EXECUTIONS));
            assert_eq!(submit.max_steps, Some(MAX_STEPS));
            spec.parse().expect("program parses");
        }
    }
}
