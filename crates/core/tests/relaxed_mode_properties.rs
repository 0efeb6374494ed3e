//! Stress tests for the relaxed-determinism backend: 8 free-running OS
//! threads over owned arenas, on programs whose parallel goals backtrack
//! internally, fail outright, and force cross-PE recovery.
//!
//! The contract under test (see `rapwam::sched` docs): relaxed runs must
//! produce the *identical answer set* as the reference interleaved backend
//! and leave every Stack Set structurally consistent
//! ([`Engine::check_consistency`]), even though goal placement and
//! interleaving are decided by actual races.  Each property case runs the
//! relaxed engine several times to give the races room to bite.

use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session};
use rapwam::{DeterminismMode, Engine, EngineConfig, MemoryConfig, Outcome, SchedulerKind};

/// A program whose parallel goals backtrack through `pick/2` alternatives
/// before succeeding, and whose parallel call fails outright when no list
/// element exceeds the threshold (forcing the failed-Parcall recovery path
/// and backtracking into `try/3`'s second clause).
const PROGRAM: &str = "\
    pick(X, [X|_]).\n\
    pick(X, [_|T]) :- pick(X, T).\n\
    good(X, L, K) :- pick(X, L), X > K.\n\
    both(A, B, L, K) :- (ground(L), ground(K) | good(A, L, K) & good(B, L, K)).\n\
    try(L, K, pair(A, B)) :- both(A, B, L, K).\n\
    try(_, _, none).";

const RELAXED_WORKERS: usize = 8;

fn render_list(items: &[i64]) -> String {
    let rendered: Vec<String> = items.iter().map(|i| i.to_string()).collect();
    format!("[{}]", rendered.join(","))
}

/// Drive a query on the relaxed backend through the engine API (so the
/// finished engine is still around for `check_consistency`), returning the
/// rendered answer.
fn run_relaxed_checked(program: &str, query: &str, workers: usize) -> String {
    let mut session = Session::new(program).expect("program parses");
    let compiled = session.compile(query, true).expect("query compiles");
    let config = EngineConfig {
        num_workers: workers,
        memory: MemoryConfig::small(),
        scheduler: SchedulerKind::Threaded,
        determinism: DeterminismMode::Relaxed,
        ..EngineConfig::default()
    };
    let (result, engine) =
        Engine::new(&compiled, config).run_reusable(session.symbols()).expect("relaxed drive");
    engine
        .check_consistency()
        .unwrap_or_else(|e| panic!("inconsistent stack sets after relaxed run ({workers} workers): {e}"));
    match &result.outcome {
        Outcome::Success(_) => session.render(result.outcome.binding("R").expect("R bound")),
        Outcome::Failure => "failure".to_string(),
    }
}

/// The reference answer from the interleaved backend.
fn run_interleaved(program: &str, query: &str, workers: usize) -> String {
    let mut session = Session::new(program).expect("program parses");
    let r = session.run(query, &QueryOptions::parallel(workers)).expect("interleaved run");
    match &r.outcome {
        Outcome::Success(_) => session.render(r.outcome.binding("R").expect("R bound")),
        Outcome::Failure => "failure".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Eight-thread relaxed runs agree with the interleaved reference and
    /// leave every Stack Set consistent, across backtracking and failing
    /// parallel goals.  Three relaxed repetitions per case let different
    /// interleavings happen.
    #[test]
    fn relaxed_eight_threads_matches_interleaved(
        list in prop::collection::vec(-20i64..20, 1..8),
        k in -20i64..20,
    ) {
        let query = format!("try({}, {k}, R)", render_list(&list));
        let reference = run_interleaved(PROGRAM, &query, RELAXED_WORKERS);
        for _ in 0..3 {
            let relaxed = run_relaxed_checked(PROGRAM, &query, RELAXED_WORKERS);
            prop_assert_eq!(&relaxed, &reference);
        }
    }
}

/// Deterministic companion: a recursive, steal-heavy workload (Fibonacci
/// over nested CGEs) repeated enough times for placement races to occur,
/// with consistency checked after every run.
#[test]
fn relaxed_fib_stress_stays_consistent() {
    const FIB: &str = "fib(0, 0).\n\
         fib(1, 1).\n\
         fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
                      (ground(N1), ground(N2) | fib(N1, F1) & fib(N2, F2)),\n\
                      F is F1 + F2.";
    for _ in 0..5 {
        let answer = run_relaxed_checked(FIB, "fib(13, R)", RELAXED_WORKERS);
        assert_eq!(answer, "233");
    }
}

/// The `QueryOptions::relaxed` convenience constructor reaches the relaxed
/// backend and reports consistent steal accounting.
#[test]
fn relaxed_query_options_round_trip() {
    let mut session = Session::new(PROGRAM).expect("program parses");
    let r = session.run("try([1,5,2,9,3,7], 4, R)", &QueryOptions::relaxed(4)).expect("relaxed run");
    assert_eq!(session.render(r.outcome.binding("R").expect("R bound")), "pair(5,5)");
    let stolen: u64 = r.stats.workers.iter().map(|w| w.goals_stolen).sum();
    let notices: u64 = r.stats.workers.iter().map(|w| w.steal_notices).sum();
    assert_eq!(stolen, notices, "steal notices must balance steals");
    assert_eq!(stolen, r.stats.goals_actually_parallel);
}
