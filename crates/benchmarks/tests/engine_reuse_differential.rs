//! Differential suite for the warm-engine path of the serving layer: an
//! engine rebuilt around recycled arenas — those of the same program's run
//! ([`rapwam::Engine::with_recycled_memory`] on its [`Engine::into_memory`])
//! or another program's (`Session::run_prepared_reusing`) — must be
//! observationally identical to a fresh engine: byte-identical answers,
//! per-area/per-object reference counts, and merged traces.
//!
//! Covers the extended benchmark registry plus proptest-randomized
//! program/query pairs (including failing queries and backtracking-heavy
//! searches), because the memory's reset has to clear *everything* a
//! previous run could have left behind — a stale word, counter or trace
//! record shows up as a diff here.

use proptest::prelude::*;
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session};
use rapwam::trace::fingerprint;
use rapwam::{Area, Engine, Memory, MemoryConfig, ObjectKind, Outcome, RunResult};

fn render_outcome(session: &Session, result: &RunResult) -> Vec<(String, String)> {
    match &result.outcome {
        Outcome::Success(b) => b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect(),
        Outcome::Failure => vec![("__outcome".to_string(), "failure".to_string())],
    }
}

/// Assert two runs are observationally identical: rendered answers,
/// schedule counters, per-area/per-object counts, traces.
fn assert_identical(what: &str, session: &Session, fresh: &RunResult, reused: &RunResult) {
    assert_eq!(render_outcome(session, fresh), render_outcome(session, reused), "{what}: answers differ");
    assert_eq!(fresh.stats.instructions, reused.stats.instructions, "{what}: instructions differ");
    assert_eq!(fresh.stats.data_refs, reused.stats.data_refs, "{what}: total refs differ");
    assert_eq!(fresh.stats.elapsed_cycles, reused.stats.elapsed_cycles, "{what}: cycles differ");
    assert_eq!(fresh.stats.parcalls, reused.stats.parcalls, "{what}: parcalls differ");
    assert_eq!(fresh.stats.inferences, reused.stats.inferences, "{what}: inferences differ");
    for area in Area::ALL {
        assert_eq!(
            fresh.stats.area_stats.area(area),
            reused.stats.area_stats.area(area),
            "{what}: {} counts differ",
            area.name()
        );
    }
    for object in ObjectKind::ALL {
        assert_eq!(
            fresh.stats.area_stats.object(object),
            reused.stats.area_stats.object(object),
            "{what}: {} counts differ",
            object.name()
        );
    }
    match (&fresh.trace, &reused.trace) {
        (Some(f), Some(r)) => {
            assert_eq!(f.len(), r.len(), "{what}: trace lengths differ");
            assert_eq!(fingerprint(f), fingerprint(r), "{what}: traces differ");
        }
        (None, None) => {}
        _ => panic!("{what}: one run traced, the other did not"),
    }
}

fn small_opts(workers: usize) -> QueryOptions {
    QueryOptions { trace: true, memory: MemoryConfig::small(), ..QueryOptions::parallel(workers) }
}

#[test]
fn reset_engines_match_fresh_engines_on_the_registry() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        let compiled = session.prepare(&b.query, true).unwrap();
        let opts = small_opts(4);
        let config = opts.engine_config();

        let fresh = session.run_prepared(&compiled, &opts).unwrap();

        // Run once, rebuild on the reset memory, run again: the second run
        // must match a fresh engine byte for byte.
        let engine = Engine::new(&compiled, config.clone());
        let (_first, engine) = engine.run_reusable(session.symbols()).unwrap();
        let (engine, warm) = Engine::with_recycled_memory(&compiled, config, engine.into_memory());
        assert!(warm, "{}: matching shapes must recycle the arenas", id.name());
        let (reused, _) = engine.run_reusable(session.symbols()).unwrap();
        assert_identical(&format!("{} (reset)", id.name()), &session, &fresh, &reused);
    }
}

/// The warm path's starting state is the cold path's: before either runs,
/// an engine rebuilt on the memory of one that ran has the machine state
/// and the structural invariants of one just built (a word the memory's
/// reset forgot would otherwise show only in what the second run does with
/// it).
#[test]
fn a_reset_engine_starts_where_a_fresh_one_does() {
    for id in [BenchmarkId::Deriv, BenchmarkId::Queens] {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        let compiled = session.prepare(&b.query, true).unwrap();
        let config = small_opts(4).engine_config();

        let fresh = Engine::new(&compiled, config.clone());
        let (_, ran) = Engine::new(&compiled, config.clone()).run_reusable(session.symbols()).unwrap();
        assert_ne!(ran.state_fingerprint(), fresh.state_fingerprint(), "{}: the run left no mark", id.name());
        let (reset, warm) = Engine::with_recycled_memory(&compiled, config, ran.into_memory());
        assert!(warm, "{}: matching shapes must recycle the arenas", id.name());
        assert_eq!(reset.state_fingerprint(), fresh.state_fingerprint(), "{}", id.name());
        assert_eq!(reset.check_consistency(), Ok(()), "{}", id.name());
        assert_eq!(fresh.check_consistency(), Ok(()), "{}", id.name());
    }
}

#[test]
fn recycled_memory_matches_fresh_engines_across_programs() {
    // Arenas recycled from a *different* program's run (the pool's warm
    // path) must be indistinguishable from fresh ones.
    let donor = benchmark(BenchmarkId::Tak, Scale::Small);
    let mut donor_session = Session::new(&donor.program).unwrap();
    let donor_compiled = donor_session.prepare(&donor.query, true).unwrap();
    let opts = small_opts(4);

    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        let compiled = session.prepare(&b.query, true).unwrap();

        let fresh = session.run_prepared(&compiled, &opts).unwrap();

        let (_, donor_memory, _) = donor_session.run_prepared_reusing(&donor_compiled, &opts, None).unwrap();
        let (reused, _, warm) = session.run_prepared_reusing(&compiled, &opts, Some(donor_memory)).unwrap();
        assert!(warm, "{}: matching shapes must recycle the arenas", id.name());
        assert_identical(&format!("{} (recycled)", id.name()), &session, &fresh, &reused);
    }
}

#[test]
fn mismatched_memory_shapes_fall_back_to_cold_builds() {
    let b = benchmark(BenchmarkId::Deriv, Scale::Small);
    let mut session = Session::new(&b.program).unwrap();
    let compiled = session.prepare(&b.query, true).unwrap();
    let opts = small_opts(2);
    // Donor memory with a different worker count: shape mismatch.
    let donor = Memory::new(MemoryConfig::small(), 3);
    let (result, _, warm) = session.run_prepared_reusing(&compiled, &opts, Some(donor)).unwrap();
    assert!(!warm, "mismatched shapes must rebuild cold");
    assert!(result.outcome.is_success());
}

/// The randomized program family: nondeterministic `pick/3` searches under
/// a CGE, driven through failure and backtracking — the same family the
/// goal-steal property tests use, exercising trail/heap/board state that a
/// warm build must fully clear.
const PROGRAM: &str = "\
    pick(X, [X|_]).\n\
    pick(X, [_|T]) :- pick(X, T).\n\
    good(X, L, K) :- pick(X, L), X > K.\n\
    both(A, B, L, K) :- (ground(L), ground(K) | good(A, L, K) & good(B, L, K)).\n\
    try(L, K, pair(A, B)) :- both(A, B, L, K).\n\
    try(_, _, none).";

fn render_list(items: &[i64]) -> String {
    let rendered: Vec<String> = items.iter().map(|i| i.to_string()).collect();
    format!("[{}]", rendered.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An engine rebuilt on recycled arenas produces byte-identical answers,
    /// per-area counts and traces to a fresh engine across randomized
    /// program/query pairs.
    #[test]
    fn reset_and_recycled_engines_match_fresh_across_random_queries(
        list in prop::collection::vec(-20i64..20, 1..8),
        k in -25i64..25,
        workers in 1usize..5,
    ) {
        let mut session = Session::new(PROGRAM).unwrap();
        let query = format!("try({}, {k}, R)", render_list(&list));
        let compiled = session.prepare(&query, true).unwrap();
        let opts = small_opts(workers);
        let config = opts.engine_config();

        let fresh = session.run_prepared(&compiled, &opts).unwrap();

        // Same program, rebuilt on its own memory.
        let engine = Engine::new(&compiled, config.clone());
        let (_, engine) = engine.run_reusable(session.symbols()).unwrap();
        let (engine, warm) = Engine::with_recycled_memory(&compiled, config, engine.into_memory());
        prop_assert!(warm, "matching shapes must recycle");
        let (reset_run, engine) = engine.run_reusable(session.symbols()).unwrap();
        assert_identical("random query (reset)", &session, &fresh, &reset_run);

        // Recycled-arena path: tear down to the Memory, rebuild, rerun.
        let memory = engine.into_memory();
        let (recycled_run, _, warm) =
            session.run_prepared_reusing(&compiled, &opts, Some(memory)).unwrap();
        prop_assert!(warm, "matching shapes must recycle");
        assert_identical("random query (recycled)", &session, &fresh, &recycled_run);
    }
}
