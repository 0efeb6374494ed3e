//! Resume-everywhere differential properties for the suspendable engine.
//!
//! The resumable state machine's contract is that suspension is pure
//! bookkeeping: parking the engine at an answer boundary (or a host-call
//! site) and re-entering it later must be *invisible* to every observable
//! the machine reports — answers, aggregate counters, per-area and
//! per-object reference counts, and the byte-level trace fingerprint.
//! These properties generate random backtracking programs (the same family
//! as `flat_classic_differential.rs`) and check:
//!
//! * an uninterrupted [`Session::run`] and a cursor suspended at the first
//!   answer agree on every counter and on the trace fingerprint — the
//!   suspension point adds nothing to the hot path;
//! * draining the full answer stream yields identical answer sequences
//!   across interleaved/relaxed × flat/classic, with
//!   counter-and-fingerprint equality between the two dispatch paths on
//!   the deterministic backend;
//! * routing a predicate through a registered host function (suspending
//!   the engine at every call site) leaves the answer stream identical to
//!   the pure-Prolog version of the same program;
//! * closing a cursor at *every* answer boundary in turn leaves the engine
//!   consistent (no pending Goal Frames, structural invariants intact) and
//!   recycles arenas that replay the full stream warm.

use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session};
use rapwam::{Area, MemRef, ObjectKind, Outcome, QueryCursor, RunStats, Term};

/// FNV-1a over every field of every reference, in trace order — the same
/// fingerprint the golden-trace suite uses.
fn fingerprint(trace: &[MemRef]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for r in trace {
        mix(r.pe);
        for b in r.addr.to_le_bytes() {
            mix(b);
        }
        mix(r.write as u8);
        mix(r.area.index() as u8);
        mix(ObjectKind::ALL.iter().position(|o| *o == r.object).unwrap() as u8);
        mix(matches!(r.locality, rapwam::Locality::Global) as u8);
        mix(r.locked as u8);
    }
    h
}

#[derive(Debug, Clone)]
struct Case {
    /// Random fact table `f(K, V).` — clause-selection fodder.
    facts: Vec<(i64, i64)>,
    /// Query list for the backtracking search.
    list: Vec<i64>,
    /// Search threshold.
    k: i64,
    /// Commit the search to its first hit with a cut.
    cut: bool,
    /// Route the search through a CGE (`&`) so parcalls execute.
    parallel: bool,
    /// Worker count for the engine.
    workers: usize,
}

/// `host`: emit the membership check as a call to the host predicate
/// `hf/1` instead of consulting the compiled `f/2` table.
fn program(c: &Case, host: bool) -> String {
    let mut p = String::new();
    p.push_str("f(99, 99).\n");
    // One clause per key: `f(X, _)` must succeed at most once per bound X,
    // like the semi-deterministic host predicate it is compared against.
    let mut seen = std::collections::HashSet::new();
    for (k, v) in &c.facts {
        if seen.insert(*k) {
            p.push_str(&format!("f({k}, {v}).\n"));
        }
    }
    p.push_str("pick(X, [X|_]).\npick(X, [_|T]) :- pick(X, T).\n");
    let check = if host { "hf(X)" } else { "f(X, _)" };
    let commit = if c.cut { ", !" } else { "" };
    p.push_str(&format!("good(X, L, K) :- pick(X, L), X > K, {check}{commit}.\n"));
    if c.parallel && !host {
        p.push_str(
            "search(L, K, pair(A, B)) :- \
             (ground(L), ground(K) | good(A, L, K) & good(B, L, K)).\n",
        );
    } else {
        // Host predicates cannot sit inside a parallel goal's subtree in
        // this differential (a suspended PE would stall its siblings), so
        // the host variant always searches sequentially.
        p.push_str("search(L, K, pair(A, B)) :- good(A, L, K), good(B, L, K).\n");
    }
    p.push_str("search(_, _, none).\n");
    p
}

fn query(c: &Case) -> String {
    let items: Vec<String> = c.list.iter().map(|i| i.to_string()).collect();
    format!("search([{}], {}, R)", items.join(","), c.k)
}

fn render_answer(s: &Session, bindings: &[(String, Term)]) -> String {
    bindings.iter().find(|(n, _)| n == "R").map(|(_, t)| s.render(t)).unwrap_or_else(|| "unbound".to_string())
}

/// Open a cursor for `c` on a fresh session and hand both back.
fn open(c: &Case, host: bool, opts: &QueryOptions) -> (Session, QueryCursor) {
    let mut s = Session::new(&program(c, host)).expect("program parses");
    if host {
        let table: Vec<i64> = c.facts.iter().map(|(k, _)| *k).collect();
        s.register_host("hf", 1, move |args| {
            let Term::Int(x) = args[0] else { return None };
            (x == 99 || table.contains(&x)).then(Vec::new)
        });
    }
    let compiled = s.prepare_with(&query(c), opts.compile_options()).expect("query compiles");
    let cursor = s.open_cursor(&compiled, opts, None).expect("cursor opens");
    (s, cursor)
}

/// Drain the stream, returning rendered answers, final stats, and the
/// cumulative trace fingerprint when tracing was on.
fn drain(c: &Case, host: bool, opts: &QueryOptions) -> (Vec<String>, RunStats, Option<u64>) {
    let (s, mut cursor) = open(c, host, opts);
    let mut answers = Vec::new();
    while let Some(b) = cursor.next().expect("cursor step") {
        answers.push(render_answer(&s, &b));
        cursor
            .check_consistency()
            .unwrap_or_else(|e| panic!("inconsistent stack sets suspended at answer {}: {e}", answers.len()));
    }
    assert_eq!(cursor.pending_goal_frames(), 0, "goal frames left after exhaustion");
    let stats = cursor.stats().expect("stats");
    let fp = cursor.take_trace().map(|t| fingerprint(&t));
    (answers, stats, fp)
}

/// Assert every schedule-invariant observable matches between two runs.
fn assert_counters_equal(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(a.inferences, b.inferences, "{what}: inferences");
    assert_eq!(a.data_refs, b.data_refs, "{what}: total refs");
    assert_eq!(a.reads, b.reads, "{what}: reads");
    assert_eq!(a.writes, b.writes, "{what}: writes");
    assert_eq!(a.elapsed_cycles, b.elapsed_cycles, "{what}: cycles");
    assert_eq!(a.parcalls, b.parcalls, "{what}: parcalls");
    for area in Area::ALL {
        assert_eq!(a.area_stats.area(area), b.area_stats.area(area), "{what}: {} counts", area.name());
    }
    for object in ObjectKind::ALL {
        assert_eq!(
            a.area_stats.object(object),
            b.area_stats.object(object),
            "{what}: {} counts",
            object.name()
        );
    }
}

/// CI matrix knob: when `PWAM_THREADS` is set, the threaded-backend drains
/// run at that width instead of the generated per-case worker count.
fn threaded_workers(generated: usize) -> usize {
    std::env::var("PWAM_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(generated)
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((-10i64..10, -10i64..10), 0..6),
        prop::collection::vec(-10i64..10, 1..7),
        -10i64..10,
        any::<bool>(),
        any::<bool>(),
        1usize..4,
    )
        .prop_map(|(facts, list, k, cut, parallel, workers)| Case {
            facts,
            list,
            k,
            cut,
            parallel,
            workers,
        })
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
                prop_assert_eq!(
                    render_answer(&s2, cb),
                    s.render(uninterrupted.outcome.binding("R").expect("R bound")),
                    "first answers differ"
                );
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

    /// The full answer stream is identical across backends and dispatch
    /// paths, with exact counter/fingerprint equality between flat and
    /// classic on the deterministic interleaved backend (where the whole
    /// multi-leg execution — including every Redo re-entry — is replayed
    /// instruction for instruction).
    #[test]
    fn streams_agree_across_backends_and_dispatch(c in case_strategy()) {
        let traced = |o: QueryOptions| QueryOptions { trace: true, ..o };
        let (flat, flat_stats, flat_fp) = drain(&c, false, &traced(QueryOptions::parallel(c.workers)));
        let (classic, classic_stats, classic_fp) =
            drain(&c, false, &traced(QueryOptions::parallel(c.workers).with_classic_dispatch()));
        prop_assert_eq!(&flat, &classic, "flat vs classic streams");
        assert_counters_equal(&flat_stats, &classic_stats, "flat vs classic full stream");
        prop_assert_eq!(flat_fp.expect("flat trace"), classic_fp.expect("classic trace"));

        let width = threaded_workers(c.workers.max(2));
        let (relaxed, _, _) = drain(&c, false, &QueryOptions::relaxed(width));
        prop_assert_eq!(&flat, &relaxed, "interleaved vs relaxed streams");
    }

    /// Replacing a compiled predicate with a host function — suspending
    /// the engine at every call site — changes nothing about the answer
    /// stream.
    #[test]
    fn host_call_suspensions_are_transparent(c in case_strategy()) {
        // The pure baseline must use the same (sequential) clause shape the
        // host variant compiles to.
        let sequential = Case { parallel: false, ..c.clone() };
        let (pure_stream, _, _) = drain(&sequential, false, &QueryOptions::sequential());
        let (host_stream, _, _) = drain(&c, true, &QueryOptions::sequential());
        prop_assert_eq!(&pure_stream, &host_stream, "host vs pure streams");

        // Host servicing is backend-independent (the suspension happens in
        // sequential code; only the engine around it changes).
        let (host_par, _, _) = drain(&c, true, &QueryOptions::parallel(c.workers));
        prop_assert_eq!(&pure_stream, &host_par, "host stream under the interleaved backend");
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
                prop_assert_eq!(&render_answer(&s, &b), expected, "answer {} diverged", i);
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
                seen.push(render_answer(&s2, &b));
            }
            prop_assert_eq!(&seen, &full, "recycled arenas replay a different stream");
        }
    }
}
