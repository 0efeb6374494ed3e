//! Fast sanity checks for the cursor API and host predicates: all-solutions
//! streaming, commit, host predicates called where the query calls them
//! (through a cursor, through a one-shot `run` on either backend, across
//! fuel preemptions, an out-of-range reply included), a bare `Engine` that
//! has no closure for a host call, and no result from an engine parked at
//! spent fuel.

use pwam_front::INT_MAX;
use rapwam::session::{CursorStep, QueryOptions, Session, SessionError};
use rapwam::{Engine, EngineConfig, EngineError, Term};

fn atoms(session: &Session, answers: &[Vec<(String, Term)>], var: &str) -> Vec<String> {
    answers
        .iter()
        .map(|b| {
            let t = b.iter().find(|(n, _)| n == var).map(|(_, t)| t).expect("binding");
            session.render(t)
        })
        .collect()
}

#[test]
fn cursor_streams_all_solutions() {
    let mut session = Session::new("p(1).\np(2).\np(3).").unwrap();
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("p(X)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let mut answers = Vec::new();
    while let Some(b) = cursor.next().unwrap() {
        answers.push(b);
    }
    assert!(cursor.is_done());
    assert_eq!(atoms(&session, &answers, "X"), ["1", "2", "3"]);
    // Exhausted cursors keep returning None.
    assert_eq!(cursor.next().unwrap(), None);
    assert_eq!(cursor.pending_goal_frames(), 0);
    cursor.check_consistency().unwrap();
    assert!(cursor.close().is_some());
}

#[test]
fn cursor_commit_finishes_the_stream() {
    let mut session = Session::new("p(1).\np(2).\np(3).").unwrap();
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("p(X)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let first = cursor.next().unwrap().expect("first answer");
    assert_eq!(atoms(&session, &[first], "X"), ["1"]);
    cursor.commit().unwrap();
    assert!(cursor.is_done());
    assert_eq!(cursor.next().unwrap(), None);
    assert!(cursor.close().is_some());
}

#[test]
fn cursor_matches_run_on_first_answer() {
    let mut session = Session::new("app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).").unwrap();
    let opts = QueryOptions::sequential();
    let run = session.run("app(X, Y, [1,2,3])", &opts).unwrap();
    let first_run = match run.outcome {
        rapwam::Outcome::Success(b) => b,
        rapwam::Outcome::Failure => panic!("query failed"),
    };
    let compiled = session.prepare_with("app(X, Y, [1,2,3])", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let mut count = 0;
    let first_cursor = cursor.next().unwrap().expect("an answer");
    count += 1;
    // Same rendered bindings for the first answer.
    for ((n1, t1), (n2, t2)) in first_run.iter().zip(first_cursor.iter()) {
        assert_eq!(n1, n2);
        assert_eq!(session.render(t1), session.render(t2));
    }
    while cursor.next().unwrap().is_some() {
        count += 1;
    }
    // split of a 3-list has 4 solutions
    assert_eq!(count, 4);
}

#[test]
fn failing_query_yields_empty_stream() {
    let mut session = Session::new("p(1).").unwrap();
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("p(2)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    assert_eq!(cursor.next().unwrap(), None);
    assert!(cursor.is_done());
}

#[test]
fn host_predicate_binds_outputs() {
    let mut session = Session::new("p(X, Y) :- double(X, Y).").unwrap();
    session.register_host("double", 2, |args| {
        let Term::Int(n) = args[0] else { return None };
        Some(vec![(1, Term::Int(n * 2))])
    });
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("p(21, Y)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let answer = cursor.next().unwrap().expect("host call succeeds");
    assert_eq!(atoms(&session, &[answer], "Y"), ["42"]);
    assert_eq!(cursor.next().unwrap(), None);
}

#[test]
fn a_host_reply_past_int_max_is_an_integer_overflow() {
    let mut session = Session::new("p(X, Y) :- double(X, Y).").unwrap();
    session.register_host("double", 2, |args| {
        let Term::Int(n) = args[0] else { return None };
        Some(vec![(1, Term::Int(n * 2))])
    });
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with(&format!("p({INT_MAX}, Y)"), opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let err = cursor.next().unwrap_err();
    assert!(matches!(err, SessionError::Engine(EngineError::IntegerOverflow)), "{err}");
}

#[test]
fn host_predicate_failure_backtracks() {
    let mut session = Session::new("p(1).\np(2).\nq(X) :- p(X), even(X).").unwrap();
    session.register_host("even", 1, |args| matches!(args[0], Term::Int(n) if n % 2 == 0).then(Vec::new));
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("q(X)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let answer = cursor.next().unwrap().expect("one answer");
    assert_eq!(atoms(&session, &[answer], "X"), ["2"]);
    assert_eq!(cursor.next().unwrap(), None);
}

#[test]
fn user_predicates_shadow_hosts() {
    let mut session = Session::new("double(X, X).\np(X, Y) :- double(X, Y).").unwrap();
    session.register_host("double", 2, |_| panic!("host must be shadowed"));
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("p(7, Y)", opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
    let answer = cursor.next().unwrap().expect("an answer");
    assert_eq!(atoms(&session, &[answer], "Y"), ["7"]);
}

#[test]
fn run_answers_a_host_program() {
    let mut session = Session::new("p(1).\np(2).\nq(X) :- p(X), even(X).").unwrap();
    session.register_host("even", 1, |args| matches!(args[0], Term::Int(n) if n % 2 == 0).then(Vec::new));
    for opts in [QueryOptions::sequential(), QueryOptions::parallel(2), QueryOptions::relaxed(2)] {
        let result = session.run("q(X)", &opts).unwrap();
        let x = result.outcome.binding("X").expect("an answer");
        assert_eq!(session.render(x), "2", "{:?}/{:?}", opts.scheduler, opts.determinism);
    }
}

#[test]
fn a_fuel_of_one_streams_the_host_program_unchanged() {
    let mut session = Session::new("p(1).\np(2).\np(3).\np(4).\nq(X) :- p(X), even(X).").unwrap();
    session.register_host("even", 1, |args| matches!(args[0], Term::Int(n) if n % 2 == 0).then(Vec::new));
    let mut drain = |opts: &QueryOptions| {
        let compiled = session.prepare_with("q(X)", opts.compile_options()).unwrap();
        let mut cursor = session.open_cursor(&compiled, opts, None).unwrap();
        let (mut answers, mut preemptions) = (Vec::new(), 0);
        loop {
            match cursor.next_step().unwrap() {
                CursorStep::Answer(b) => answers.push(b),
                CursorStep::FuelExhausted => preemptions += 1,
                CursorStep::Exhausted => break,
            }
        }
        (atoms(&session, &answers, "X"), preemptions)
    };
    let (unfueled, none) = drain(&QueryOptions::sequential());
    assert_eq!(unfueled, ["2", "4"]);
    assert_eq!(none, 0);
    let (fueled, preemptions) = drain(&QueryOptions { fuel: Some(1), ..QueryOptions::sequential() });
    assert_eq!(fueled, unfueled);
    assert!(preemptions > 0, "a fuel of one preempts every leg");
}

/// Drive `engine` by hand, the documented way: rounds until it halts.
fn drive_rounds(engine: &mut Engine<'_>) -> Result<(), EngineError> {
    while !engine.halted() {
        engine.begin_round();
        let mut progress = false;
        for w in 0..engine.num_workers() {
            progress |= engine.step_slot(w)?;
        }
        engine.end_round(progress)?;
    }
    Ok(())
}

#[test]
fn into_result_rejects_a_suspended_engine() {
    let mut session = Session::new("q(X) :- X is 1 + 2.").unwrap();
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("q(X)", opts.compile_options()).unwrap();
    let config = EngineConfig { fuel: Some(1), ..opts.engine_config() };
    let mut engine = Engine::new(&compiled, config);
    drive_rounds(&mut engine).unwrap();
    assert_eq!(engine.finished(), None, "preempted after one instruction");
    assert_eq!(engine.stats().instructions, 1);
    assert!(engine.into_result(session.symbols()).is_err());
}

#[test]
fn a_bare_engine_over_a_host_program_errors_at_the_call() {
    let mut session = Session::new("p(Y) :- h(Y).").unwrap();
    session.register_host("h", 1, |_| Some(vec![(0, Term::Int(1))]));
    let opts = QueryOptions::sequential();
    let compiled = session.prepare_with("p(Y)", opts.compile_options()).unwrap();
    let mut engine = Engine::new(&compiled, opts.engine_config());
    let err = drive_rounds(&mut engine).unwrap_err();
    assert!(matches!(&err, EngineError::BadInstruction { what, .. } if what.contains("h/1")), "{err}");
    assert_eq!(engine.finished(), None);
}

#[test]
fn cursor_streams_under_every_backend() {
    for opts in [QueryOptions::parallel(2), QueryOptions::relaxed(2), QueryOptions::sequential()] {
        let mut session = Session::new("p(1).\np(2).\np(3).").unwrap();
        let compiled = session.prepare_with("p(X)", opts.compile_options()).unwrap();
        let mut cursor = session.open_cursor(&compiled, &opts, None).unwrap();
        let mut seen = Vec::new();
        while let Some(b) = cursor.next().unwrap() {
            seen.push(b);
        }
        assert_eq!(
            atoms(&session, &seen, "X"),
            ["1", "2", "3"],
            "backend {:?}/{:?} parallel={}",
            opts.scheduler,
            opts.determinism,
            opts.parallel
        );
    }
}
