//! Deterministic instruction fuel: the preemption point must be a pure
//! function of the program, pinned byte-identical across both dispatch
//! paths (flat and classic) of the strict backend, and a fuelled run
//! resumed to completion must reproduce the unfuelled run's answers,
//! counters and traces exactly.

use rapwam::session::{CursorStep, QueryOptions, Session};
use rapwam::{EngineError, Term};

const PERM: &str = "app([],L,L).\n\
                    app([H|T],L,[H|R]) :- app(T,L,R).\n\
                    perm([],[]).\n\
                    perm(L,[H|T]) :- app(V,[H|U],L), app(V,U,W), perm(W,T).";

const PERM_QUERY: &str = "perm([1,2,3,4], P)";

/// A CGE-bearing program so the parallel machinery (parcall frames, goal
/// stacks, waiting workers) is live at preemption points.
const PAR_SUM: &str = "sum([], 0).\n\
                       sum([X|Xs], S) :- (ground(Xs) | sum(Xs, S1) & sq(X, X2)), S is S1 + X2.\n\
                       sq(X, Y) :- Y is X * X.";

const PAR_SUM_QUERY: &str = "sum([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16], S)";

fn rendered(session: &Session, answers: &[Vec<(String, Term)>]) -> Vec<Vec<(String, String)>> {
    answers.iter().map(|b| b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect()).collect()
}

/// Step the cursor to its `n`-th fuel preemption and return the machine
/// fingerprint and cumulative instruction count there.
fn fingerprint_at_preemption(program: &str, query: &str, opts: &QueryOptions, n: usize) -> (u64, u64) {
    let mut session = Session::new(program).unwrap();
    let compiled = session.prepare_with(query, opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, opts, None).unwrap();
    let mut preemptions = 0;
    loop {
        match cursor.next_step().unwrap() {
            CursorStep::FuelExhausted => {
                preemptions += 1;
                if preemptions == n {
                    let fp = cursor.state_fingerprint().expect("live engine");
                    let steps = cursor.stats().expect("live engine").instructions;
                    return (fp, steps);
                }
            }
            CursorStep::Answer(_) => {}
            CursorStep::Exhausted => {
                panic!("query exhausted after {preemptions} preemption(s), before the requested {n}")
            }
        }
    }
}

#[test]
fn preemption_point_is_byte_identical_across_dispatch_and_backends() {
    for (program, query, workers) in [(PERM, PERM_QUERY, 1), (PAR_SUM, PAR_SUM_QUERY, 2)] {
        let configs: Vec<(&str, QueryOptions)> = vec![
            ("interleaved/flat", QueryOptions::parallel(workers).with_fuel(97)),
            ("interleaved/classic", QueryOptions::parallel(workers).with_fuel(97).with_classic_dispatch()),
        ];
        // Pin the first and a later preemption point: the first exercises
        // run_resumable's fuel leg, the later ones the resume(Continue)
        // re-arm path.
        for n in [1, 3] {
            let mut seen: Option<(u64, u64)> = None;
            for (name, opts) in &configs {
                let (fp, steps) = fingerprint_at_preemption(program, query, opts, n);
                match &seen {
                    None => seen = Some((fp, steps)),
                    Some((fp0, steps0)) => {
                        assert_eq!(
                            steps, *steps0,
                            "{name}: instruction count at preemption {n} diverged ({query})"
                        );
                        assert_eq!(fp, *fp0, "{name}: machine state at preemption {n} diverged ({query})");
                    }
                }
            }
        }
    }
}

#[test]
fn fuelled_run_reproduces_unfuelled_answers_counters_and_traces() {
    for (program, query, workers) in [(PERM, PERM_QUERY, 1), (PAR_SUM, PAR_SUM_QUERY, 2)] {
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
