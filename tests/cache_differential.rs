//! Differential tests for the cross-query caches and the parallel flip
//! solver: hits and misses must be observationally identical — same
//! `Sat`/`Unsat`/`Unknown` verdicts, same models — and a DSE report
//! must not depend on the flip worker count.

use std::sync::Arc;

use expose::core::{build_match_model, BuildConfig, ModelCache, SupportLevel};
use expose::dse::{parser::parse_program, run_dse, DseCaches, EngineConfig, Harness, Report};
use expose::strsolve::{Formula, QueryCache, Solver, Term, VarPool};
use expose::syntax::Regex;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// A random conjunction over a small variable pool, mirroring the
/// constraint families the capturing-language models emit.
fn random_formula(rng: &mut StdRng, pool: &mut VarPool) -> Formula {
    let vars: Vec<_> = (0..4).map(|i| pool.fresh_str(format!("v{i}"))).collect();
    let flags: Vec<_> = (0..2).map(|i| pool.fresh_bool(format!("b{i}"))).collect();
    let literals = ["", "a", "b", "ab", "abc", "cc"];
    let n = 1 + rng.random_range(0usize..4);
    let mut conjuncts = Vec::new();
    for _ in 0..n {
        let v = *vars.choose(rng).expect("nonempty");
        let u = *vars.choose(rng).expect("nonempty");
        let lit = *literals.choose(rng).expect("nonempty");
        conjuncts.push(match rng.random_range(0usize..8) {
            0 => Formula::eq_concat(v, vec![Term::Var(u), Term::lit(lit)]),
            1 => Formula::eq_concat(v, vec![Term::lit(lit), Term::Var(u), Term::Var(u)]),
            2 => Formula::eq_lit(v, lit),
            3 => Formula::ne_lit(v, lit),
            4 => Formula::eq_var(v, u),
            5 => Formula::ne_var(v, u),
            // Definedness flags, including inside disjunctions whose
            // untaken branch leaves a flag unassigned — a cached model
            // must not invent assignments for those.
            6 => Formula::bool_is(
                *flags.choose(rng).expect("nonempty"),
                rng.random_range(0usize..2) == 0,
            ),
            _ => Formula::or(vec![
                Formula::bool_is(flags[0], true),
                Formula::bool_is(flags[1], true),
            ]),
        });
    }
    Formula::and(conjuncts)
}

#[test]
fn query_cache_verdicts_match_uncached_on_random_corpus() {
    let cache = Arc::new(QueryCache::new(4096));
    let cached_solver = Solver::default().with_cache(cache.clone());
    let uncached_solver = Solver::default();

    let mut agreements = 0usize;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0xcafe ^ seed);
        let mut pool = VarPool::new();
        let formula = random_formula(&mut rng, &mut pool);

        let (reference, _) = uncached_solver.solve(&formula);
        // First solve may miss or hit (structurally equal formulas
        // recur across seeds); the second is always a hit.
        let (first, _) = cached_solver.solve(&formula);
        let (second, s2) = cached_solver.solve(&formula);
        assert_eq!(s2.cache_hits, 1, "seed {seed}: second solve must hit");

        // Verdicts and models must agree exactly: the solver is
        // deterministic, so the cache must be invisible.
        assert_eq!(reference, first, "seed {seed}: miss path diverged");
        assert_eq!(reference, second, "seed {seed}: hit path diverged");
        agreements += 1;
    }
    assert_eq!(agreements, 300);
    assert!(cache.hits() >= 300);
}

#[test]
fn query_cache_is_sound_across_pools_with_disjoint_numbering() {
    // The same structural query asked from pools with different raw
    // indices: the hit must be rehydrated into the asking pool's vars.
    let cache = Arc::new(QueryCache::new(64));
    let solver = Solver::default().with_cache(cache.clone());
    for padding in 0..5usize {
        let mut pool = VarPool::new();
        for i in 0..padding {
            pool.fresh_str(format!("pad{i}"));
        }
        let v = pool.fresh_str("v");
        let u = pool.fresh_str("u");
        let formula = Formula::and(vec![
            Formula::eq_concat(v, vec![Term::lit("x"), Term::Var(u)]),
            Formula::eq_lit(u, "y"),
        ]);
        let (outcome, _) = solver.solve(&formula);
        let model = outcome.model().expect("sat");
        assert_eq!(model.get_str(v), Some("xy"), "padding {padding}");
        assert_eq!(model.get_str(u), Some("y"), "padding {padding}");
    }
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 4);
}

#[test]
fn model_cache_hit_equals_fresh_build_for_paper_patterns() {
    let patterns = [
        "/^a+$/",
        "/^v?(\\d+)\\.(\\d+)\\.(\\d+)(-([a-z0-9.]+))?$/",
        "/^<(\\w+)>([0-9]*)<\\/\\1>$/",
        "/(a|ab)/",
        "/^a*(a)?$/",
        "/^(?!foo)[a-z]+$/",
    ];
    let cache = ModelCache::new(64);
    let cfg = BuildConfig::default();
    for literal in patterns {
        let regex = Regex::parse_literal(literal).expect("literal");
        for positive in [true, false] {
            // Prime, then hit.
            let mut warm = VarPool::new();
            cache.get_or_build(&regex, positive, SupportLevel::Refinement, &mut warm, &cfg);
            let mut pool_hit = VarPool::new();
            let (cached, hit) = cache.get_or_build(
                &regex,
                positive,
                SupportLevel::Refinement,
                &mut pool_hit,
                &cfg,
            );
            assert!(hit, "{literal} ({positive}) must hit after priming");

            let mut pool_fresh = VarPool::new();
            let fresh = build_match_model(&regex, positive, &mut pool_fresh, &cfg);
            // The rebased cached model must be *identical* to a direct
            // build into an identically-sized pool.
            assert_eq!(cached.formula, fresh.formula, "{literal} ({positive})");
            assert_eq!(cached.input, fresh.input);
            assert_eq!(cached.captures, fresh.captures);
            assert_eq!(cached.exact, fresh.exact);

            // And solving both must agree.
            let solver = Solver::default();
            let (a, _) = solver.solve(&cached.formula);
            let (b, _) = solver.solve(&fresh.formula);
            assert_eq!(a, b, "{literal} ({positive})");
        }
    }
}

/// Everything except timing- and scheduling-dependent report fields.
fn comparable(r: &Report) -> impl PartialEq + std::fmt::Debug {
    (
        {
            let mut coverage: Vec<_> = r.coverage.iter().copied().collect();
            coverage.sort_unstable();
            coverage
        },
        r.stmt_count,
        r.executions,
        r.tests_generated,
        r.bugs.clone(),
        r.queries
            .iter()
            .map(|q| (q.sat, q.refinements, q.limit_hit, q.modeled_regex))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn flip_workers_one_and_eight_produce_identical_reports() {
    for w in expose::corpus::library_workloads()
        .into_iter()
        .filter(|w| matches!(w.name, "semver" | "yn" | "query-string"))
    {
        let program = parse_program(w.source).expect("parse");
        let harness = Harness::strings(w.entry, w.arity);
        let base = EngineConfig {
            max_executions: 10,
            ..EngineConfig::default()
        };
        let serial = run_dse(
            &program,
            &harness,
            &EngineConfig {
                flip_workers: 1,
                ..base.clone()
            },
        );
        let parallel = run_dse(
            &program,
            &harness,
            &EngineConfig {
                flip_workers: 8,
                ..base
            },
        );
        assert_eq!(
            comparable(&serial),
            comparable(&parallel),
            "{}: worker count changed the report",
            w.name
        );
    }
}

#[test]
fn shared_caches_across_runs_preserve_reports() {
    // Two runs of the same program against one shared cache set: the
    // second run (all-hits) must reproduce the first run's report.
    let program = parse_program(
        r#"function f(x) {
            let m = /^([a-z]+)-(\d+)$/.exec(x);
            if (m) { if (m[1] === "build") { return 1; } return 2; }
            return 0;
        }"#,
    )
    .expect("parse");
    let harness = Harness::strings("f", 1);
    let config = EngineConfig {
        max_executions: 10,
        ..EngineConfig::default()
    };
    let caches = DseCaches::from_config(&config);
    let cold = expose::dse::run_dse_with_caches(&program, &harness, &config, &caches);
    let warm = expose::dse::run_dse_with_caches(&program, &harness, &config, &caches);
    assert_eq!(comparable(&cold), comparable(&warm));
    assert!(
        warm.model_cache_hits > 0 && warm.model_cache_misses == 0,
        "warm run must be all model-cache hits: {warm:?}"
    );
}

#[test]
fn warm_session_caches_give_identical_reports_for_every_flip_worker_count() {
    // Cold caches are covered above; this is the warm path, where the
    // flips of a trace replay verdicts from the shared caches and the
    // engine keeps them on the calling thread until one runs a search.
    for w in expose::corpus::library_workloads()
        .into_iter()
        .filter(|w| matches!(w.name, "semver" | "yn" | "query-string"))
    {
        let program = parse_program(w.source).expect("parse");
        let harness = Harness::strings(w.entry, w.arity);
        let config = EngineConfig {
            max_executions: 10,
            ..EngineConfig::default()
        };
        let caches = DseCaches::session_from_config(&config);
        let fill = expose::dse::run_dse_with_caches(&program, &harness, &config, &caches);
        for flip_workers in [1, 2, 8] {
            let warm = expose::dse::run_dse_with_caches(
                &program,
                &harness,
                &EngineConfig {
                    flip_workers,
                    ..config.clone()
                },
                &caches,
            );
            assert_eq!(
                comparable(&fill),
                comparable(&warm),
                "{}: warm run at flip_workers {flip_workers} changed the report",
                w.name
            );
            assert!(
                warm.verdict_replays() > 0,
                "{}: a warm run must replay verdicts: {warm:?}",
                w.name
            );
        }
    }
}
