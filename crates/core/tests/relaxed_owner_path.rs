//! The relaxed backend's references.
//!
//! A free-running PE makes a reference exactly as an interleaved PE does: it
//! counts it in its own worker's table, records it in its own buffer when
//! tracing, and moves the word without a lock, whichever Stack Set holds it.
//! Four things pin that:
//!
//! * With **one** PE there is nothing to race, so a relaxed run must count
//!   what the interleaved reference counts, reference for reference.
//! * When goals **are** stolen, part of the parallel machinery's traffic
//!   crosses into another PE's Stack Set (the thief's) and the rest stays in
//!   the issuer's own (the parent's).  Interleaved PEs are deterministic, so
//!   an untraced run must count, kind by kind and PE by PE, what a traced run
//!   counts.
//! * A **traced** relaxed run records every reference once, and the merged
//!   trace keeps each PE's records in that PE's program order — a stolen
//!   Goal Frame's words as one run of consecutive reads by the thief.
//! * Word soundness holds for **any** program, including one whose
//!   unconditional `&` lies about independence: two PEs racing on one
//!   variable cell may produce either binding, a failure or a typed error,
//!   but never a panic, a hang or a cell nobody stored.

use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session};
use rapwam::{MemRef, ObjectKind, Outcome};
use std::time::Duration;

#[test]
fn one_relaxed_pe_counts_exactly_what_one_interleaved_pe_counts() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        let strict = session.run(&b.query, &QueryOptions::parallel(1)).unwrap();
        let relaxed = session.run(&b.query, &QueryOptions::relaxed(1)).unwrap();
        let name = id.name();
        assert!(strict.outcome.is_success(), "{name}: the reference run failed");
        assert_eq!(relaxed.outcome, strict.outcome, "{name}: answers");
        let (r, s) = (&relaxed.stats, &strict.stats);
        assert_eq!(r.instructions, s.instructions, "{name}: instructions");
        assert_eq!(r.data_refs, s.data_refs, "{name}: data_refs");
        assert_eq!((r.reads, r.writes), (s.reads, s.writes), "{name}: read/write split");
        assert_eq!(r.area_stats.per_object, s.area_stats.per_object, "{name}: per_object");
        assert_eq!(r.area_stats.per_area, s.area_stats.per_area, "{name}: per_area");
        assert_eq!(r.area_stats.global_refs, s.area_stats.global_refs, "{name}: global_refs");
        assert_eq!(r.area_stats.local_refs, s.area_stats.local_refs, "{name}: local_refs");
        assert_eq!(r.area_stats.locked_refs, s.area_stats.locked_refs, "{name}: locked_refs");
    }
}

#[test]
fn the_owner_path_neither_loses_nor_invents_a_count_when_goals_are_stolen() {
    for id in [BenchmarkId::Tak, BenchmarkId::Fib, BenchmarkId::Deriv] {
        let b = benchmark(id, Scale::Small);
        let mut session = Session::new(&b.program).unwrap();
        for workers in [1, 2, 4] {
            let what = format!("{} on {workers} interleaved PEs", id.name());
            let untraced = session.run(&b.query, &QueryOptions::parallel(workers)).unwrap();
            let traced = session.run(&b.query, &QueryOptions::parallel(workers).with_trace()).unwrap();
            assert_eq!(untraced.outcome, traced.outcome, "{what}: answers");
            let stolen = untraced.stats.goals_actually_parallel;
            assert_eq!(stolen > 0, workers > 1, "{what}: {stolen} goals stolen");
            let (u, t) = (&untraced.stats.area_stats, &traced.stats.area_stats);
            // The kinds the parallel machinery adds to the WAM's.
            for kind in ObjectKind::ALL.into_iter().filter(|k| !k.in_wam()) {
                assert!(workers == 1 || t.object(kind).total() > 0, "{what}: no {kind:?} reference at all");
                assert_eq!(u.object(kind), t.object(kind), "{what}: {kind:?}");
            }
            assert_eq!(u.locked_refs, t.locked_refs, "{what}: locked_refs");
            assert_eq!(u.global_refs, t.global_refs, "{what}: global_refs");
            assert_eq!(u.per_pe, t.per_pe, "{what}: per-PE totals");
        }
    }
}

#[test]
fn a_traced_relaxed_run_records_every_reference() {
    let b = benchmark(BenchmarkId::Fib, Scale::Small);
    let mut session = Session::new(&b.program).unwrap();
    for workers in [1, 4] {
        let run = session.run(&b.query, &QueryOptions::relaxed(workers).with_trace()).unwrap();
        assert!(run.outcome.is_success());
        let trace = run.trace.expect("tracing was requested");
        let stats = &run.stats.area_stats;
        assert_eq!(trace.len() as u64, run.stats.data_refs, "{workers} PEs: trace length vs data_refs");
        assert_eq!(run.stats.data_refs, stats.total.total());
        assert_eq!(stats.per_pe.iter().map(|pe| pe.total()).sum::<u64>(), stats.total.total());
        for (pe, counted) in stats.per_pe.iter().enumerate() {
            let own: Vec<&MemRef> = trace.iter().filter(|r| r.pe as usize == pe).collect();
            let writes = own.iter().filter(|r| r.write).count() as u64;
            assert_eq!((own.len() as u64 - writes, writes), (counted.reads, counted.writes), "PE {pe}");
            // Program order, where the merged trace alone can show it: a PE
            // writes a Parcall counter either as the second half of an
            // update, right after its read of that word, or while it lays a
            // fresh frame out word by word, right after the word below.
            for pair in own.windows(2) {
                let (before, r) = (pair[0], pair[1]);
                if r.write && r.object == ObjectKind::ParcallCount {
                    let update = !before.write && before.addr == r.addr && before.object == r.object;
                    let layout = before.write && before.addr + 1 == r.addr;
                    assert!(update || layout, "PE {pe}: {r:?} follows {before:?}");
                }
            }
        }
        if workers == 1 {
            // One PE has one program order, and the strict run records it.
            let strict = session.run(&b.query, &QueryOptions::parallel(1).with_trace()).unwrap();
            assert!(trace == strict.trace.unwrap(), "one relaxed PE left the strict reference order");
        }
    }
}

/// A thief reads the Goal Frame it pops — four header words, then the
/// arguments — out of the *victim's* Goal Stack, under the victim's board
/// lock and with nothing in between: in the thief's own order those are
/// `4 + arity` reads of consecutive addresses, once per stolen goal.
#[test]
fn a_stolen_goal_frame_is_read_as_one_run_of_consecutive_words() {
    let b = benchmark(BenchmarkId::Fib, Scale::Small);
    let mut session = Session::new(&b.program).unwrap();
    let words = 4 + 2; // the parallel goals are `fib/2`
    for (options, backend) in
        [(QueryOptions::parallel(4), "interleaved"), (QueryOptions::relaxed(4), "relaxed")]
    {
        let set_words = options.memory.stack_set_words();
        let run = session.run(&b.query, &options.with_trace()).unwrap();
        assert!(run.outcome.is_success());
        let stolen = run.stats.goals_actually_parallel;
        // Interleaved PEs steal deterministically; free-running ones may not.
        assert!(stolen > 0 || backend == "relaxed", "{backend}: nothing was stolen");
        let trace = run.trace.expect("tracing was requested");
        // Only a steal reads a Goal Frame in another PE's Stack Set.
        let from_a_victim =
            |r: &MemRef| r.object == ObjectKind::GoalFrame && (r.addr / set_words) as u8 != r.pe;
        assert!(
            trace.iter().all(|r| !(from_a_victim(r) && r.write)),
            "{backend}: a thief wrote a Goal Frame"
        );
        let mut frames_read = 0;
        for pe in 0..4u8 {
            let own: Vec<&MemRef> = trace.iter().filter(|r| r.pe == pe).collect();
            // Maximal groups of such reads, in this PE's own order.
            for frame in own.chunk_by(|a, b| from_a_victim(a) && from_a_victim(b)) {
                if !from_a_victim(frame[0]) {
                    continue;
                }
                let addrs: Vec<u32> = frame.iter().map(|r| r.addr).collect();
                let expected: Vec<u32> = (frame[0].addr..).take(words).collect();
                assert_eq!(addrs, expected, "{backend}: PE {pe}'s reads of the frame at {}", frame[0].addr);
                frames_read += 1;
            }
        }
        assert_eq!(frames_read, stolen, "{backend}: Goal Frames read from a victim vs goals stolen");
    }
}

/// `p/1`'s unconditional `&` claims `a(X)` and `b(X)` are independent; they
/// both bind `X`.  The spin gives an idle PE time to steal `b(X)`, so the
/// two bindings really do race.
const DEPENDENT_GOALS: &str = "\
    spin(0).\n\
    spin(N) :- N > 0, M is N - 1, spin(M).\n\
    a(X) :- spin(40), X = 1.\n\
    b(X) :- spin(40), X = 2.\n\
    p(X) :- a(X) & b(X).";

#[test]
fn racing_on_one_variable_never_panics_or_hangs() {
    let mut session = Session::new(DEPENDENT_GOALS).unwrap();
    // A hang would surface as a typed error through the stall watchdog or
    // the time budget, never as a stuck test.
    let options = QueryOptions::relaxed(8)
        .with_stall_timeout(Duration::from_secs(2))
        .with_time_budget(Duration::from_secs(20));
    let (mut answers, mut failures, mut errors) = (0, 0, 0);
    for _ in 0..200 {
        match session.run("p(X)", &options) {
            Ok(run) => match &run.outcome {
                Outcome::Success(_) => {
                    let x = session.render(run.outcome.binding("X").expect("X is a query variable"));
                    assert!(x == "1" || x == "2", "X = {x}: a binding neither goal made");
                    answers += 1;
                }
                Outcome::Failure => failures += 1,
            },
            Err(e) => {
                eprintln!("typed error: {e}");
                errors += 1;
            }
        }
    }
    println!("dependent goals on relaxed(8): {answers} answers, {failures} failures, {errors} typed errors");
    assert_eq!(answers + failures + errors, 200);
}
