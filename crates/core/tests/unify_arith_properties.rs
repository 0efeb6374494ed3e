//! Property-style tests of unification structure sharing and the arithmetic
//! builtins, complementing `unify_properties.rs`: occurs-style shared
//! structure, partial instantiation, and the `is`/comparison builtins
//! checked against host arithmetic.

use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session, SessionError};
use rapwam::EngineError;

fn run_bool(session: &mut Session, query: &str) -> bool {
    session
        .run(query, &QueryOptions::sequential())
        .unwrap_or_else(|e| panic!("query {query:?}: {e}"))
        .outcome
        .is_success()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_matches_host(a in -1000i64..1000, b in -1000i64..1000) {
        let mut s = Session::new("ok.").unwrap();
        prop_assert!(run_bool(&mut s, &format!("X is {a} + {b}, X =:= {}", a + b)));
        prop_assert!(run_bool(&mut s, &format!("X is {a} - {b}, X =:= {}", a - b)));
        prop_assert!(run_bool(&mut s, &format!("X is {a} * {b}, X =:= {}", a.wrapping_mul(b))));
    }

    #[test]
    fn division_and_mod_match_host_for_nonzero_divisors(a in -1000i64..1000, b in 1i64..100) {
        let mut s = Session::new("ok.").unwrap();
        prop_assert!(run_bool(&mut s, &format!("X is {a} // {b}, X =:= {}", a.wrapping_div(b))));
        // `mod` is euclidean (ISO floored-for-positive-divisor behaviour).
        prop_assert!(run_bool(&mut s, &format!("X is {a} mod {b}, X =:= {}", a.rem_euclid(b))));
    }

    #[test]
    fn comparisons_agree_with_host(a in -1000i64..1000, b in -1000i64..1000) {
        let mut s = Session::new("ok.").unwrap();
        prop_assert_eq!(run_bool(&mut s, &format!("{a} < {b}")), a < b);
        prop_assert_eq!(run_bool(&mut s, &format!("{a} =< {b}")), a <= b);
        prop_assert_eq!(run_bool(&mut s, &format!("{a} > {b}")), a > b);
        prop_assert_eq!(run_bool(&mut s, &format!("{a} >= {b}")), a >= b);
        prop_assert_eq!(run_bool(&mut s, &format!("{a} =:= {b}")), a == b);
        prop_assert_eq!(run_bool(&mut s, &format!("{a} =\\= {b}")), a != b);
    }

    #[test]
    fn nested_expressions_evaluate_inside_out(a in -50i64..50, b in -50i64..50, c in 1i64..20) {
        let mut s = Session::new("ok.").unwrap();
        let expected = (a.wrapping_add(b)).wrapping_mul(c).wrapping_sub(a.wrapping_div(c));
        prop_assert!(run_bool(&mut s, &format!("X is ({a} + {b}) * {c} - {a} // {c}, X =:= {expected}")));
    }

    #[test]
    fn unification_shares_structure_through_variables(n in -100i64..100) {
        // Binding the same variable twice through a shared subterm must
        // constrain both occurrences: pair(X, X) unifies with pair(N, N) but
        // not with pair(N, N+1).
        let mut s = Session::new("twin(pair(X, X)).").unwrap();
        prop_assert!(run_bool(&mut s, &format!("twin(pair({n}, {n}))")));
        prop_assert!(!run_bool(&mut s, &format!("twin(pair({n}, {}))", n + 1)));
    }

    #[test]
    fn shared_variable_propagates_across_subterms(n in -100i64..100) {
        // X occurs in two sibling structures; binding one side instantiates
        // the other (the classic shared-structure case for the binding
        // machinery that an occurs check would have to traverse).
        let program = "link(f(X), g(X)).";
        let mut s = Session::new(program).unwrap();
        let r = s
            .run(&format!("link(f({n}), G)"), &QueryOptions::sequential())
            .unwrap();
        prop_assert!(r.outcome.is_success());
        let g = s.render(r.outcome.binding("G").unwrap());
        prop_assert_eq!(g, format!("g({n})"));
    }

    #[test]
    fn failed_arithmetic_comparison_does_not_bind(a in -100i64..100) {
        // A failing goal after a binding must undo nothing observable: the
        // session answers the follow-up query independently.
        let mut s = Session::new("ok.").unwrap();
        prop_assert!(!run_bool(&mut s, &format!("X is {a}, X =:= {}", a + 1)));
        prop_assert!(run_bool(&mut s, &format!("X is {a}, X =:= {a}")));
    }
}

#[test]
fn division_by_zero_is_an_error_not_a_failure() {
    let mut s = Session::new("ok.").unwrap();
    assert!(s.run("X is 1 // 0", &QueryOptions::sequential()).is_err());
    assert!(s.run("X is 1 mod 0", &QueryOptions::sequential()).is_err());
}

#[test]
fn unbound_arithmetic_is_an_instantiation_error() {
    let mut s = Session::new("ok.").unwrap();
    assert!(s.run("X is Y + 1", &QueryOptions::sequential()).is_err());
}

#[test]
fn unary_minus_and_plus() {
    let mut s = Session::new("ok.").unwrap();
    assert!(run_bool(&mut s, "X is -(5), X =:= -5"));
    assert!(run_bool(&mut s, "X is +(5), X =:= 5"));
    assert!(run_bool(&mut s, "X is -(-(7)), X =:= 7"));
}

#[test]
fn integer_overflow_is_an_error_instead_of_a_wrap_or_a_panic() {
    // Integers are 63-bit: INT_MIN = -2^62, INT_MAX = 2^62 - 1.  A result
    // past either end is an engine error, and a served query must get it, not
    // kill its worker; the session stays usable afterwards.
    let mut s = Session::new("ok.").unwrap();
    let overflow = |s: &mut Session, query: &str| match s.run(query, &QueryOptions::sequential()) {
        Err(SessionError::Engine(EngineError::IntegerOverflow)) => {}
        other => panic!("{query}: expected an integer overflow, got {other:?}"),
    };
    assert!(run_bool(&mut s, "X is (-4611686018427387903 - 1) mod -1, X =:= 0"));
    assert!(run_bool(&mut s, "X is 4611686018427387903, Y is -X - 1, Y < X"));
    overflow(&mut s, "X is - (-4611686018427387903 - 1)");
    overflow(&mut s, "X is (-4611686018427387903 - 1) // -1");
    overflow(&mut s, "X is 4611686018427387903 + 1 - 1");
    overflow(&mut s, "X is -4611686018427387903 - 2");
    let r = s.run("X is -4611686018427387903 - 1", &QueryOptions::sequential()).unwrap();
    assert_eq!(s.render(r.outcome.binding("X").unwrap()), "-4611686018427387904");
}

#[test]
fn self_unification_of_cyclic_free_variables_terminates() {
    // X = X on a fresh variable must succeed without looping — the
    // rational-tree-adjacent case a naive occurs traversal can spin on.
    let mut s = Session::new("eq(X, X).").unwrap();
    assert!(run_bool(&mut s, "eq(Y, Y)"));
}
