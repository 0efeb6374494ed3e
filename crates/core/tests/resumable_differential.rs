//! Resume-everywhere differential properties for the cursor's engine.
//!
//! The cursor's contract is that parking is pure bookkeeping: halting the
//! engine at an answer boundary and re-entering it later must be
//! *invisible* to every observable
//! the machine reports — answers, aggregate counters, per-area and
//! per-object reference counts, and the byte-level trace fingerprint.
//! These properties generate random backtracking programs (the same family
//! as `oracle_differential.rs`) and check:
//!
//! * an uninterrupted [`Session::run`] and a cursor suspended at the first
//!   answer agree on every counter and on the trace fingerprint — the
//!   suspension point adds nothing to the hot path;
//! * draining the full answer stream yields the answer oracle's sequence
//!   (`common::sld`) on the interleaved and the relaxed backend;
//! * routing a predicate through a registered host function (called by the
//!   engine at every call site) leaves the answer stream identical to the
//!   pure-Prolog version of the same program, through a cursor on every
//!   backend and through a one-shot run;
//! * closing a cursor at *every* answer boundary in turn leaves the engine
//!   consistent (no pending Goal Frames, structural invariants intact) and
//!   recycles arenas that replay the full stream warm.

mod common;

use common::*;
use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session};
use rapwam::trace::fingerprint;
use rapwam::Outcome;

/// The generator's cases with one fact per key, so the compiled `f(X, _)`
/// and the host predicate standing in for it succeed equally often (and the
/// boundary sweep below stays quadratic in a short stream).
fn case_strategy() -> impl Strategy<Value = Case> {
    common::case_strategy().prop_map(Case::one_fact_per_key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An uninterrupted `run` and a cursor suspended at the first answer
    /// are the same execution: identical outcome, counters, and trace
    /// fingerprint at the boundary.  This is the "suspension is off the
    /// hot path" property — `run` and `run_resumable` drive the same
    /// machine to the same halt state.
    #[test]
    fn first_answer_suspension_is_invisible(c in case_strategy()) {
        let opts = QueryOptions { trace: true, ..QueryOptions::parallel(c.workers) };
        let mut s = Session::new(&program(&c, false)).expect("program parses");
        let uninterrupted = s.run(&query(&c), &opts).expect("query runs");

        let (s2, mut cursor) = open(&c, false, &opts);
        let first = cursor.next().expect("cursor step");
        match (&uninterrupted.outcome, &first) {
            (Outcome::Success(b), Some(cb)) => {
                prop_assert_eq!(row(&s2, cb), row(&s, b), "first answers differ");
                prop_assert_eq!(b.len(), cb.len());
            }
            (Outcome::Failure, None) => {}
            (a, b) => prop_assert!(false, "outcome mismatch: run={a:?} cursor_first={b:?}"),
        }
        let stats = cursor.stats().expect("stats");
        assert_counters_equal(&uninterrupted.stats, &stats, "run vs suspended cursor");
        let run_fp = fingerprint(uninterrupted.trace.as_ref().expect("run trace"));
        let cur_fp = fingerprint(&cursor.take_trace().expect("cursor trace"));
        prop_assert_eq!(run_fp, cur_fp, "trace fingerprints differ at the first boundary");
    }

    /// The full answer stream — every Redo re-entry included — is the
    /// oracle's on both backends.  (The reference stream of a drained cursor
    /// is pinned by the recorded rows of `oracle_differential`.)
    #[test]
    fn streams_agree_with_the_oracle_across_backends(c in case_strategy()) {
        let oracle = oracle_stream(&c, Cge::FirstSolution);
        let (interleaved, _, _) = drain(&c, false, &QueryOptions::parallel(c.workers).with_trace());
        prop_assert_eq!(&interleaved, &oracle, "interleaved stream vs oracle");
        let width = threaded_workers(c.workers.max(2));
        let (relaxed, _, _) = drain(&c, false, &QueryOptions::relaxed(width));
        prop_assert_eq!(&relaxed, &oracle, "relaxed stream vs oracle");
    }

    /// Replacing a compiled predicate with a host function — called by the
    /// engine at every call site — changes nothing about the answer stream,
    /// whichever backend runs it and whether a cursor or a one-shot run
    /// asks for it.
    #[test]
    fn host_calls_are_transparent(c in case_strategy()) {
        // The pure baseline must use the same (sequential) clause shape the
        // host variant compiles to.
        let sequential = Case { parallel: false, ..c.clone() };
        let (pure_stream, _, _) = drain(&sequential, false, &QueryOptions::sequential());
        prop_assert_eq!(&pure_stream, &oracle_stream(&sequential, Cge::Conjunction), "pure stream vs oracle");
        let (host_stream, _, _) = drain(&c, true, &QueryOptions::sequential());
        prop_assert_eq!(&pure_stream, &host_stream, "host vs pure streams");

        // A host call runs in sequential code on whichever PE reaches it;
        // only the engine around it changes, threads included.
        let (host_par, _, _) = drain(&c, true, &QueryOptions::parallel(c.workers));
        prop_assert_eq!(&pure_stream, &host_par, "host stream under the interleaved backend");
        let width = threaded_workers(c.workers.max(2));
        let (host_relaxed, _, _) = drain(&c, true, &QueryOptions::relaxed(width));
        prop_assert_eq!(&pure_stream, &host_relaxed, "host stream under the relaxed backend");

        let mut s = session(&c, true);
        let run = s.run(&query(&c), &QueryOptions::sequential()).expect("one-shot host run");
        let first = match &run.outcome {
            Outcome::Success(b) => Some(row(&s, b)),
            Outcome::Failure => None,
        };
        prop_assert_eq!(first.as_ref(), pure_stream.first(), "one-shot host run vs the first answer");
    }

    /// The suspension-point fault sweep: abandon the stream at every
    /// answer boundary in turn.  At each boundary the suspended engine
    /// must be structurally consistent with no Goal Frames pending, and
    /// the arenas recovered from the abandoned cursor must replay the
    /// whole stream when recycled into a fresh one.
    #[test]
    fn closing_at_every_boundary_leaves_a_consistent_engine(c in case_strategy()) {
        let opts = QueryOptions::parallel(c.workers);
        let (full, _, _) = drain(&c, false, &opts);
        for boundary in 0..=full.len() {
            let (s, mut cursor) = open(&c, false, &opts);
            for (i, expected) in full.iter().enumerate().take(boundary) {
                let b = cursor.next().expect("cursor step").expect("answer within the stream");
                prop_assert_eq!(&row(&s, &b), expected, "answer {} diverged", i);
            }
            prop_assert_eq!(cursor.pending_goal_frames(), 0, "goal frames parked at boundary {}", boundary);
            cursor.check_consistency().unwrap_or_else(|e| {
                panic!("inconsistent stack sets closing at boundary {boundary}: {e}")
            });
            let memory = cursor.close().expect("abandoned cursor yields its arenas");

            // The recovered arenas must be clean enough to replay the
            // whole stream warm in a fresh cursor.
            let mut s2 = Session::new(&program(&c, false)).expect("program parses");
            let compiled = s2.prepare_with(&query(&c), opts.compile_options()).expect("compiles");
            let mut replay = s2.open_cursor(&compiled, &opts, Some(memory)).expect("reopens warm");
            let mut seen = Vec::new();
            while let Some(b) = replay.next().expect("replay step") {
                seen.push(row(&s2, &b));
            }
            prop_assert_eq!(&seen, &full, "recycled arenas replay a different stream");
        }
    }
}
