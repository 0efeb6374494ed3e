//! Property-based differential between every backend and the answer oracle.
//!
//! This suite generates *random programs* — random fact tables, backtracking
//! searches with and without cuts, optional CGEs — and checks the whole
//! answer stream of the sequential WAM, the interleaved RAP-WAM and the
//! relaxed threaded RAP-WAM against `common::sld`, a term-level interpreter
//! that shares no code with the compiler or the machine.
//!
//! Each case also runs traced and *untraced* and asserts the untraced
//! counters equal the traced ones — recording a reference is invisible to
//! the statistics.
//!
//! Answers cannot pin the reference stream, so a fixed table of generator
//! cases pins it: counters, trace length and fingerprint of the first-answer
//! run and of the drained stream, recorded while a second executor (the
//! classic enum-fetch dispatch loop, since deleted) still reproduced every
//! row byte for byte.

mod common;

use common::sld::OracleError;
use common::*;
use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session, SessionError};
use rapwam::{EngineError, Outcome, RunResult};

fn run(c: &Case, opts: QueryOptions) -> (Vec<Row>, RunResult) {
    let mut s = Session::new(&program(c, false)).expect("program parses");
    let r = s.run(&query(c), &opts).expect("query runs");
    let answer = match &r.outcome {
        Outcome::Success(b) => vec![row(&s, b)],
        Outcome::Failure => Vec::new(),
    };
    (answer, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_agree_with_the_oracle_on_random_programs(c in case_strategy()) {
        let wam = oracle_stream(&c, Cge::Conjunction);
        let rapwam = oracle_stream(&c, Cge::FirstSolution);
        let (sequential, _, _) = drain(&c, false, &QueryOptions::sequential());
        prop_assert_eq!(&sequential, &wam, "sequential stream");
        let (interleaved, traced_stats, _) = drain(&c, false, &QueryOptions::parallel(c.workers).with_trace());
        prop_assert_eq!(&interleaved, &rapwam, "interleaved stream");
        let (relaxed, _, _) = drain(&c, false, &QueryOptions::relaxed(threaded_workers(c.workers.max(2))));
        prop_assert_eq!(&relaxed, &rapwam, "relaxed stream");

        // Untraced: counters must match the traced run — recording is
        // invisible — over the stream and to the first answer.
        let (fast_stream, fast_stats, _) = drain(&c, false, &QueryOptions::parallel(c.workers));
        prop_assert_eq!(&fast_stream, &rapwam, "untraced interleaved stream");
        assert_counters_equal(&fast_stats, &traced_stats, "untraced vs traced stream");
        let (ans_traced, traced) = run(&c, QueryOptions::parallel(c.workers).with_trace());
        let (ans_fast, fast) = run(&c, QueryOptions::parallel(c.workers));
        prop_assert_eq!(&ans_traced[..], &rapwam[..1]);
        prop_assert_eq!(&ans_fast, &ans_traced);
        assert_counters_equal(&fast.stats, &traced.stats, "untraced vs traced");
    }
}

/// `(first-answer run, drained stream)` of [`golden_cases`], in its order.
/// Regenerate with `cargo run --release --example trace_goldens`.
const CASE_GOLDENS: [(Pin, Pin); 12] = [
    ((89, 126, 126, 0x385530f5d9a1aa5c), (975, 2230, 2230, 0x68733ca07ef4f704)),
    ((128, 218, 218, 0x761f1f4311304bdf), (901, 1804, 1804, 0xf62f0b3b47ee5415)),
    ((167, 310, 310, 0x9dce1622cde5e7b0), (1460, 3283, 3283, 0x6717d62c3ac35d58)),
    ((97, 177, 177, 0xacaf5468ad5f3fcd), (103, 199, 199, 0xce9a2b2573f0f8e4)),
    ((135, 285, 285, 0xbfab018efa38c9a9), (141, 305, 305, 0x5ad097de8093e7e4)),
    ((174, 376, 376, 0xdf47d779e67efd90), (180, 396, 396, 0x7790eaab1c2c2367)),
    ((95, 140, 140, 0x033db4d331d11eac), (101, 162, 162, 0x3828214288bb8c61)),
    ((134, 232, 232, 0xe1c5dccbdb7fd78e), (140, 254, 254, 0x03d1afbd316b43af)),
    ((173, 324, 324, 0x99d9b5f853214a98), (179, 346, 346, 0xc76e6839cc112cad)),
    ((103, 188, 188, 0x98a6904188098ea3), (109, 210, 210, 0x1f391d165436c2f2)),
    ((141, 293, 293, 0x1cdcab3c59977b21), (147, 313, 313, 0x779b99b136fd3c1c)),
    ((180, 384, 384, 0x375afc7408be1830), (186, 404, 404, 0x6021acfe0cb4b207)),
];

#[test]
fn fixed_cases_match_their_recorded_streams() {
    for (c, (first, stream)) in golden_cases().iter().zip(CASE_GOLDENS) {
        assert!(oracle_stream(c, Cge::FirstSolution).len() >= 2, "{c:?}: a stream of one answer");
        assert_eq!(first_answer_pin(c), first, "{c:?}: first-answer run");
        assert_eq!(stream_pin(c), stream, "{c:?}: drained stream");
    }
}

// -----------------------------------------------------------------
// The oracle on its own: where nothing else checks it, hand-written
// expectations do.
// -----------------------------------------------------------------

const Q: &str = "q(1).\nq(2).\n";

/// The answers to `query` as one string per row: the values in name order.
fn answers(program: &str, query: &str, cge: Cge) -> Result<Vec<String>, OracleError> {
    let rows = Oracle::new(program).solutions(query, cge, usize::MAX)?;
    Ok(rows.iter().map(|r| r.iter().map(|(_, v)| v.as_str()).collect::<Vec<_>>().join(",")).collect())
}

#[test]
fn oracle_cut_discards_the_choice_points_of_its_own_clause_only() {
    let program = format!("{Q}first(X) :- q(X), !.\nboth(X, Y) :- first(X), q(Y).\n");
    for cge in [Cge::Conjunction, Cge::FirstSolution] {
        assert_eq!(answers(&program, "first(X)", cge).unwrap(), ["1"]);
        // The cut in first/1 leaves its caller's alternatives alone.
        assert_eq!(answers(&program, "both(X, Y)", cge).unwrap(), ["1,1", "1,2"]);
    }
}

#[test]
fn oracle_cut_inside_a_cge_branch_is_local_to_the_branch() {
    // The cut commits q(X) to 1; q(Y) and the second clause of t/2 survive it.
    let program = format!("{Q}t(X, Y) :- (q(X), ! & q(Y)).\nt(0, 0).\n");
    assert_eq!(answers(&program, "t(X, Y)", Cge::Conjunction).unwrap(), ["1,1", "1,2", "0,0"]);
    // The parallel reading commits q(Y) too; the clause alternative still stays.
    assert_eq!(answers(&program, "t(X, Y)", Cge::FirstSolution).unwrap(), ["1,1", "0,0"]);
}

#[test]
fn oracle_first_solution_commits_branches_only_when_the_conditions_hold() {
    let program = format!("{Q}t(X, Y) :- (q(X) & q(Y)).\nc(G, X, Y) :- (ground(G) | q(X) & q(Y)).\n");
    let all = ["1,1", "1,2", "2,1", "2,2"];
    assert_eq!(answers(&program, "t(X, Y)", Cge::Conjunction).unwrap(), all);
    assert_eq!(answers(&program, "t(X, Y)", Cge::FirstSolution).unwrap(), ["1,1"]);
    // Condition holds: the same split.  Condition fails (`G` unbound): the
    // branches run as the conjunction under both readings.
    assert_eq!(answers(&program, "c(g, X, Y)", Cge::Conjunction).unwrap(), all);
    assert_eq!(answers(&program, "c(g, X, Y)", Cge::FirstSolution).unwrap(), ["1,1"]);
    for cge in [Cge::Conjunction, Cge::FirstSolution] {
        assert_eq!(answers(&program, "c(_, X, Y)", cge).unwrap(), all, "{cge:?}");
    }
}

#[test]
fn oracle_arithmetic_truncates_overflows_and_reports_like_the_machine() {
    let engine = |query: &str| {
        let mut s = Session::new("").expect("empty program");
        s.run(query, &QueryOptions::sequential()).map(|r| match &r.outcome {
            Outcome::Success(b) => row(&s, b).into_iter().map(|(_, v)| v).collect::<Vec<_>>().join(","),
            Outcome::Failure => "no".to_string(),
        })
    };
    for (query, expected) in [
        ("X is -7 // 2, Y is 7 // -2, Z is -7 / 2", "-3,-3,-3"),
        ("X is -7 mod 2, Y is 7 mod -2, Z is -7 mod -2", "1,1,1"),
        ("X is - (3 - 5), Y is + 4", "2,4"),
        // The ends of the range: INT_MAX, INT_MIN and INT_MIN's remainder by
        // -1, which overflows in the host's `i64` only at `i64::MIN`.
        ("X is 4611686018427387903", "4611686018427387903"),
        ("X is -4611686018427387903 - 1", "-4611686018427387904"),
        ("X is (-4611686018427387903 - 1) mod -1", "0"),
    ] {
        assert_eq!(answers("", query, Cge::Conjunction).unwrap(), [expected], "{query}");
        assert_eq!(engine(query).unwrap(), expected, "{query}: the machine");
    }
    // One past either end, whether the host's `i64` overflows or not, and
    // inside a comparison: an error in both, never a wrap or a panic.
    for query in [
        "X is 4611686018427387903 + 1",
        "X is - (-4611686018427387903 - 1)",
        "X is 2147483648 * 2147483648",
        "X is (-4611686018427387903 - 1) // -1",
        "X is 4611686018427387903 * 4611686018427387903",
        "1 < 4611686018427387903 * 2",
    ] {
        assert_eq!(answers("", query, Cge::Conjunction), Err(OracleError::IntegerOverflow), "{query}");
        let err = engine(query).unwrap_err();
        assert!(matches!(err, SessionError::Engine(EngineError::IntegerOverflow)), "{query}: {err}");
    }
    // A literal past INT_MAX does not parse (the oracle parses with the same
    // front end).
    for query in ["X is 9223372036854775807", "X = 4611686018427387904"] {
        let err = engine(query).unwrap_err();
        assert!(matches!(err, SessionError::Front(_)), "{query}: {err}");
        assert!(err.to_string().contains("integer literal out of range"), "{query}: {err}");
    }
    for query in ["X is 1 // 0", "X is 1 / 0", "X is 1 mod 0", "1 < 2 mod (3 - 3)"] {
        assert_eq!(answers("", query, Cge::Conjunction), Err(OracleError::DivisionByZero), "{query}");
        let err = engine(query).unwrap_err();
        assert!(matches!(err, SessionError::Engine(EngineError::DivisionByZero)), "{query}: {err}");
    }
    assert_eq!(answers("", "X is Y + 1", Cge::Conjunction), Err(OracleError::Instantiation));
    assert!(matches!(answers("", "X is a + 1", Cge::Conjunction), Err(OracleError::Type(_))));
    assert!(matches!(answers("", "nope(1)", Cge::Conjunction), Err(OracleError::UnknownPredicate(_))));
}

#[test]
fn oracle_step_limit_stops_a_runaway_proof() {
    let mut oracle = Oracle::new("loop :- loop.\ncount(N) :- N > 0, M is N - 1, count(M).\ncount(0).\n");
    oracle.step_limit = 10_000;
    assert_eq!(oracle.solutions("loop", Cge::Conjunction, 1), Err(OracleError::StepLimit));
    // A proof that fits is not cut short.
    assert_eq!(oracle.solutions("count(100)", Cge::Conjunction, 1).map(|rows| rows.len()), Ok(1));
}
