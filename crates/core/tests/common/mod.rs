//! Support shared by the differential suites: the random-program generator,
//! the answer oracle, and the comparisons every suite makes.
#![allow(dead_code)]

pub mod cases;
pub mod sld;

pub use cases::*;
pub use sld::{Cge, Oracle, Row};

use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session};
use rapwam::{Area, MemRef, ObjectKind, QueryCursor, RunStats, Term};

/// Random [`Case`]s, biased towards the boundaries where a comparison or a
/// table lookup can be off by one: half the time the threshold `k` is a member
/// of the list (so `X > K` meets `X == K`), and half the fact keys are members
/// of the list (so the `f/2` lookup hits, and clause selection has work to do).
pub fn case_strategy() -> impl Strategy<Value = Case> {
    // `(take it from the list?, at this index modulo its length, or else this)`
    let biased = || (any::<bool>(), 0usize..8, -10i64..10);
    (
        prop::collection::vec((biased(), -10i64..10), 0..6),
        prop::collection::vec(-10i64..10, 1..7),
        biased(),
        any::<bool>(),
        any::<bool>(),
        1usize..4,
    )
        .prop_map(|(facts, list, k, cut, parallel, workers)| {
            let pick = |(from_list, i, free): (bool, usize, i64)| {
                if from_list {
                    list[i % list.len()]
                } else {
                    free
                }
            };
            let facts = facts.into_iter().map(|(key, v)| (pick(key), v)).collect();
            let k = pick(k);
            Case { facts, list, k, cut, parallel, workers }
        })
}

/// CI matrix knob: when `PWAM_THREADS` is set, the relaxed-backend drains run
/// at that width instead of the generated per-case worker count.
pub fn threaded_workers(generated: usize) -> usize {
    std::env::var("PWAM_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(generated)
}

/// Assert every schedule-invariant observable matches between two runs.
pub fn assert_counters_equal(a: &RunStats, b: &RunStats, what: &str) {
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

/// An engine answer in the oracle's shape: the named variables with their
/// rendered bindings, sorted by name.
pub fn row(s: &Session, bindings: &[(String, Term)]) -> Row {
    let mut row: Row =
        bindings.iter().filter(|(n, _)| !n.starts_with('_')).map(|(n, t)| (n.clone(), s.render(t))).collect();
    row.sort();
    row
}

/// The oracle's whole answer stream for `c`.
pub fn oracle_stream(c: &Case, cge: Cge) -> Vec<Row> {
    Oracle::new(&program(c, false)).solutions(&query(c), cge, usize::MAX).expect("oracle proves the query")
}

/// A fresh session over `c`'s program, with the host predicate `hf/1`
/// registered when `host` is set.
pub fn session(c: &Case, host: bool) -> Session {
    let mut s = Session::new(&program(c, host)).expect("program parses");
    if host {
        let table: Vec<i64> = c.facts.iter().map(|(k, _)| *k).collect();
        s.register_host("hf", 1, move |args| {
            let Term::Int(x) = args[0] else { return None };
            (x == 99 || table.contains(&x)).then(Vec::new)
        });
    }
    s
}

/// Open a cursor for `c` on a fresh session and hand both back.
pub fn open(c: &Case, host: bool, opts: &QueryOptions) -> (Session, QueryCursor) {
    let mut s = session(c, host);
    let compiled = s.prepare_with(&query(c), opts.compile_options()).expect("query compiles");
    let cursor = s.open_cursor(&compiled, opts, None).expect("cursor opens");
    (s, cursor)
}

/// Drain the stream, checking the suspended engine at every answer, and
/// return the answers, the final stats, and the cumulative trace when tracing
/// was on.
pub fn drain(c: &Case, host: bool, opts: &QueryOptions) -> (Vec<Row>, RunStats, Option<Vec<MemRef>>) {
    let (s, mut cursor) = open(c, host, opts);
    let mut answers = Vec::new();
    while let Some(b) = cursor.next().expect("cursor step") {
        answers.push(row(&s, &b));
        cursor
            .check_consistency()
            .unwrap_or_else(|e| panic!("inconsistent stack sets suspended at answer {}: {e}", answers.len()));
    }
    assert_eq!(cursor.pending_goal_frames(), 0, "goal frames left after exhaustion");
    let stats = cursor.stats().expect("stats");
    (answers, stats, cursor.take_trace())
}
