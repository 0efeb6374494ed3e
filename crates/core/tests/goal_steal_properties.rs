//! Property tests for goal stealing: stolen goals — including goals that
//! backtrack internally or fail outright — must leave the thief's and the
//! victim's Stack Sets structurally consistent, and parallel answers must
//! match sequential ones.
//!
//! The tests drive the engine round-by-round through the scheduler SPI so
//! [`Engine::check_consistency`] can run *between rounds*, not just at the
//! end: a steal that corrupts a Stack Set is caught in the round where it
//! happens, even if the query would still finish.

use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session};
use rapwam::{Engine, EngineConfig, MemoryConfig, Outcome};

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

fn render_list(items: &[i64]) -> String {
    let rendered: Vec<String> = items.iter().map(|i| i.to_string()).collect();
    format!("[{}]", rendered.join(","))
}

/// Run the query with consistency checks after every scheduling round,
/// returning the rendered answer.
fn run_checked(list: &[i64], k: i64, workers: usize) -> String {
    let mut session = Session::new(PROGRAM).expect("program parses");
    let query = format!("try({}, {k}, R)", render_list(list));
    let compiled = session.compile(&query, true).expect("query compiles");
    let config =
        EngineConfig { num_workers: workers, memory: MemoryConfig::small(), ..EngineConfig::default() };
    let mut engine = Engine::new(&compiled, config);
    let n = engine.num_workers();
    let mut rounds = 0u64;
    while !engine.halted() {
        engine.begin_round();
        let mut progress = false;
        for w in 0..n {
            progress |= engine.step_slot(w).expect("step");
        }
        engine.end_round(progress).expect("round");
        engine
            .check_consistency()
            .unwrap_or_else(|e| panic!("inconsistent after round {rounds} ({workers} workers): {e}"));
        rounds += 1;
        assert!(rounds < 1_000_000, "query did not terminate");
    }
    let result = engine.into_result(session.symbols()).expect("result extraction");
    match &result.outcome {
        Outcome::Success(_) => session.render(result.outcome.binding("R").expect("R bound")),
        Outcome::Failure => "failure".to_string(),
    }
}

/// The sequential (WAM) reference answer.
fn run_sequential(list: &[i64], k: i64) -> String {
    let mut session = Session::new(PROGRAM).expect("program parses");
    let query = format!("try({}, {k}, R)", render_list(list));
    let r = session.run(&query, &QueryOptions::sequential()).expect("sequential run");
    match &r.outcome {
        Outcome::Success(_) => session.render(r.outcome.binding("R").expect("R bound")),
        Outcome::Failure => "failure".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn stolen_goals_leave_stack_sets_consistent(
        list in prop::collection::vec(-20i64..20, 1..8),
        k in -20i64..20,
        workers in 2usize..6,
    ) {
        let par = run_checked(&list, k, workers);
        let seq = run_sequential(&list, k);
        prop_assert_eq!(par, seq);
    }
}

/// Deterministic companion: with enough parallel work the run must actually
/// steal goals, backtrack inside stolen goals, and still stay consistent.
#[test]
fn steals_actually_happen_and_stay_consistent() {
    let mut session = Session::new(PROGRAM).expect("program parses");
    let compiled = session.compile("try([1,5,2,9,3,7], 4, R)", true).expect("compiles");
    let config = EngineConfig { num_workers: 4, memory: MemoryConfig::small(), ..EngineConfig::default() };
    let mut engine = Engine::new(&compiled, config);
    while !engine.halted() {
        engine.begin_round();
        let mut progress = false;
        for w in 0..4 {
            progress |= engine.step_slot(w).expect("step");
        }
        engine.end_round(progress).expect("round");
        engine.check_consistency().expect("consistent between rounds");
    }
    let stats = engine.stats();
    let notices: u64 = stats.workers.iter().map(|w| w.steal_notices).sum();
    assert!(notices > 0, "no goal was ever stolen");
    assert_eq!(notices, stats.goals_actually_parallel);
    let result = engine.into_result(session.symbols()).expect("result");
    assert_eq!(session.render(result.outcome.binding("R").expect("R")), "pair(5,5)");
}
