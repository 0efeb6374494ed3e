//! Deterministic instruction fuel: the preemption point must be a pure
//! function of the program, pinned on the strict backend by machine-state
//! fingerprints recorded while a second dispatch loop still reproduced them,
//! and a fuelled run resumed to completion must reproduce the unfuelled
//! run's answers, counters and traces exactly.

mod common;

use common::{state_at_preemption, FUEL_PROGRAMS, PERM, PERM_QUERY, PREEMPTIONS, PREEMPTION_FUEL};
use rapwam::session::{CursorStep, QueryOptions, Session};
use rapwam::{EngineError, Term};
use std::time::Duration;

fn rendered(session: &Session, answers: &[Vec<(String, Term)>]) -> Vec<Vec<(String, String)>> {
    answers.iter().map(|b| b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect()).collect()
}

/// Per program of `FUEL_PROGRAMS`: `(machine fingerprint, instructions
/// retired)` at each preemption of `PREEMPTIONS`.  Regenerate with `cargo run
/// --release --example trace_goldens`.
const PREEMPTION_GOLDENS: [[(u64, u64); 2]; 2] = [
    [(0xde259a15005b66f3, 97), (0x14a62b67925d25e3, 376)],
    [(0x5b90cf3b21b1d2aa, 97), (0x6b63382fec7a4d85, 292)],
];

#[test]
fn preemption_point_matches_its_recorded_machine_state() {
    for ((program, query, workers), goldens) in FUEL_PROGRAMS.into_iter().zip(PREEMPTION_GOLDENS) {
        let opts = QueryOptions::parallel(workers).with_fuel(PREEMPTION_FUEL);
        for (n, golden) in PREEMPTIONS.into_iter().zip(goldens) {
            let state = state_at_preemption(program, query, &opts, n);
            assert_eq!(state, golden, "machine state at preemption {n} diverged ({query})");
        }
    }
}

#[test]
fn fuelled_run_reproduces_unfuelled_answers_counters_and_traces() {
    for (program, query, workers) in FUEL_PROGRAMS {
        let unfuelled_opts = QueryOptions::parallel(workers).with_trace();
        let mut session = Session::new(program).unwrap();
        let compiled = session.prepare_with(query, unfuelled_opts.compile_options()).unwrap();

        let mut cursor = session.open_cursor(&compiled, &unfuelled_opts, None).unwrap();
        let mut baseline_answers = Vec::new();
        while let Some(b) = cursor.next().unwrap() {
            baseline_answers.push(b);
        }
        let baseline_steps = cursor.stats().expect("live engine").instructions;
        let baseline_trace = cursor.take_trace().expect("tracing was on");
        let baseline_fp = cursor.state_fingerprint().expect("live engine");

        // Same run under a tight fuel budget: `next` auto-continues through
        // each preemption (topping the fuel back up), so the stream must be
        // indistinguishable — same answers, same cumulative instruction
        // count, same memory-reference trace, same final machine state.
        let fuelled_opts = QueryOptions::parallel(workers).with_trace().with_fuel(61);
        let mut cursor = session.open_cursor(&compiled, &fuelled_opts, None).unwrap();
        let mut preemptions = 0;
        let mut fuelled_answers = Vec::new();
        loop {
            match cursor.next_step().unwrap() {
                CursorStep::Answer(b) => fuelled_answers.push(b),
                CursorStep::FuelExhausted => preemptions += 1,
                CursorStep::Exhausted => break,
            }
        }
        assert!(preemptions > 0, "fuel budget of 61 never preempted {query}");
        assert_eq!(rendered(&session, &fuelled_answers), rendered(&session, &baseline_answers));
        assert_eq!(cursor.stats().expect("live engine").instructions, baseline_steps);
        assert_eq!(cursor.take_trace().expect("tracing was on"), baseline_trace);
        assert_eq!(cursor.state_fingerprint().expect("live engine"), baseline_fp);
    }
}

#[test]
fn one_shot_run_surfaces_fuel_exhaustion_as_an_error() {
    let mut session = Session::new(PERM).unwrap();
    let opts = QueryOptions::sequential().with_fuel(10);
    let err = session.run(PERM_QUERY, &opts).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("fuel"), "unexpected error: {msg}");

    // An ample budget never fires.
    let opts = QueryOptions::sequential().with_fuel(10_000_000);
    let result = session.run(PERM_QUERY, &opts).unwrap();
    assert!(result.outcome.is_success());
}

#[test]
fn engine_error_carries_the_configured_budget() {
    let mut session = Session::new(PERM).unwrap();
    let opts = QueryOptions::sequential().with_fuel(25);
    match session.run(PERM_QUERY, &opts) {
        Err(rapwam::session::SessionError::Engine(EngineError::FuelExhausted { fuel })) => {
            assert_eq!(fuel, 25);
        }
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
}

#[test]
fn relaxed_backend_preempts_and_completes() {
    // The relaxed backend checks fuel at batch boundaries, so the stop
    // point is schedule-dependent — but preemption must still fire, the
    // cursor must still resume, and the answer stream must be complete.
    let opts = QueryOptions::relaxed(2).with_fuel(61);
    let mut session = Session::new(PERM).unwrap();
    let compiled = session.prepare_with(PERM_QUERY, opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let mut preemptions = 0;
    let mut answers = Vec::new();
    loop {
        match cursor.next_step().unwrap() {
            CursorStep::Answer(b) => answers.push(b),
            CursorStep::FuelExhausted => preemptions += 1,
            CursorStep::Exhausted => break,
        }
    }
    assert!(preemptions > 0, "fuel budget never preempted the relaxed run");
    assert_eq!(answers.len(), 24, "perm/4 has 4! solutions");
}

/// Several answers, each the sum of a parallel recursion, so that stolen
/// goals are in flight around every answer and every last failure.
const PICKED_SUMS: &str = "pick(X, [X|_]).\n\
                           pick(X, [_|T]) :- pick(X, T).\n\
                           upto(0, []).\n\
                           upto(N, [N|T]) :- N > 0, M is N - 1, upto(M, T).\n\
                           sum([], 0).\n\
                           sum([X|Xs], S) :- (ground(Xs) | sum(Xs, S1) & sq(X, X2)), S is S1 + X2.\n\
                           sq(X, Y) :- Y is X * X.\n\
                           q(N, S) :- pick(N, [4, 9, 2, 7, 5, 8]), upto(N, L), sum(L, S).";

/// Every answer of `opts`'s cursor over `PICKED_SUMS`, stepping through its
/// fuel preemptions.
fn picked_sums(opts: &QueryOptions) -> Vec<Vec<(String, String)>> {
    let mut session = Session::new(PICKED_SUMS).unwrap();
    let compiled = session.prepare_with("q(N, S)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, opts, None).unwrap();
    let mut answers = Vec::new();
    while let Some(b) = cursor.next().unwrap_or_else(|e| panic!("{opts:?}: {e}")) {
        answers.push(b);
    }
    rendered(&session, &answers)
}

#[test]
fn relaxed_preemption_never_swallows_an_outcome() {
    // On the relaxed backend one PE's batch may spend the leg's fuel while
    // another is mid-batch on its way to `halt` or to the query's last
    // failure.  Its outcome must win over the preemption: lost, the cursor
    // parked with nobody left to run, and its next leg stalled into an
    // `Internal` error (a one-shot run read `FuelExhausted`).
    let stall = Duration::from_millis(500);
    for width in 2..=8 {
        let unfuelled = picked_sums(&QueryOptions::relaxed(width).with_stall_timeout(stall));
        assert_eq!(unfuelled.len(), 6, "one answer per picked N");
        // The race is rare per leg: every fuel, three times over.
        for fuel in (5..=60).step_by(5).cycle().take(36) {
            let opts = QueryOptions::relaxed(width).with_fuel(fuel).with_stall_timeout(stall);
            assert_eq!(picked_sums(&opts), unfuelled, "{width} PEs, fuel {fuel}");
        }
    }
}

#[test]
fn unlimited_fuel_changes_nothing() {
    // `fuel: None` must leave the engine's behaviour and counters untouched
    // (one relaxed load per round is the entire cost).
    let mut session = Session::new(PERM).unwrap();
    let base = session.run(PERM_QUERY, &QueryOptions::sequential()).unwrap();
    let mut session2 = Session::new(PERM).unwrap();
    let same = session2.run(PERM_QUERY, &QueryOptions::sequential()).unwrap();
    assert_eq!(base.stats.instructions, same.stats.instructions);
    assert!(base.outcome.is_success());
}
