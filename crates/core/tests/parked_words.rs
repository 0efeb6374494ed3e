//! A dropped memory's word arrays are parked for the next build of their
//! size (`mem.rs`, "where words come from"), and a parked array may next
//! serve another program — another tenant's, in a server.  So the sweep that
//! clears what a run wrote has to be complete over the *whole* array, however
//! the run ended and whichever path each write took.  `Memory::is_pristine`
//! scans every word of every arena; the suites below call it
//!
//! * after `reset` (the sweep a warm pool slot relies on), and
//! * on a `Memory::new` of the same shape made right after the dirty memory
//!   was dropped (the sweep at drop; the new memory is built from the parked
//!   arrays unless a concurrent test took them first, and must read `Empty`
//!   everywhere either way),
//!
//! for runs that stop at an answer, drain to failure, are preempted out of
//! fuel or die of `OutOfMemory`; traced and untraced; on 1 / 2 / 4 interleaved
//! PEs and on free-running threads (`PWAM_THREADS`, default 4).

mod common;

use common::*;
use proptest::prelude::*;
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{CursorStep, QueryOptions, Session};
use rapwam::{EngineError, Memory, MemoryConfig, SessionError};

/// Where a run is abandoned.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the first answer: choice points, trail and frames all live.
    FirstAnswer,
    /// After the last answer, when the query has failed.
    Drained,
    /// At the first preemption of a run under this much fuel per leg.
    OutOfFuel(u64),
}

/// The four machines: 1 / 2 / 4 interleaved PEs and relaxed threads.
fn machines() -> [QueryOptions; 4] {
    [
        QueryOptions::parallel(1),
        QueryOptions::parallel(2),
        QueryOptions::parallel(4),
        QueryOptions::relaxed(threaded_workers(4)),
    ]
}

/// Run `query` to `stop` and hand back the memory as the run left it.
fn memory_after(program: &str, query: &str, opts: &QueryOptions, stop: Stop) -> Memory {
    let opts = match stop {
        Stop::OutOfFuel(fuel) => opts.clone().with_fuel(fuel),
        _ => opts.clone(),
    };
    let mut session = Session::new(program).expect("program parses");
    let compiled = session.prepare_with(query, opts.compile_options()).expect("query compiles");
    let mut cursor = session.open_cursor(&compiled, &opts, None).expect("cursor opens");
    loop {
        match (cursor.next_step().expect("cursor step"), stop) {
            (CursorStep::Answer(_), Stop::FirstAnswer) => break,
            (CursorStep::FuelExhausted, Stop::OutOfFuel(_)) => break,
            (CursorStep::Exhausted, _) => break,
            _ => {}
        }
    }
    cursor.close().expect("the engine survived the run")
}

/// Both sweeps over one run's leavings.
fn assert_both_sweeps_are_complete(program: &str, query: &str, opts: &QueryOptions, stop: Stop, what: &str) {
    let mut memory = memory_after(program, query, opts, stop);
    assert!(!memory.is_pristine(), "{what}: the run wrote nothing, so it tests nothing");
    memory.reset();
    assert!(memory.is_pristine(), "{what}: reset left a word behind");
    drop(memory);
    drop(memory_after(program, query, opts, stop));
    let next = Memory::new(opts.memory, opts.workers);
    assert!(next.is_pristine(), "{what}: a word survived the drop into the next memory");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_programs_leave_nothing_behind(c in case_strategy(), fuel in 5u64..120) {
        // A Stack-Set size of this test's own, so what it parks it gets back.
        let memory = MemoryConfig { heap_words: (1 << 14) + 8, ..MemoryConfig::small() };
        let (program, query) = (program(&c, false), query(&c));
        for machine in machines() {
            for traced in [false, true] {
                let opts = QueryOptions { trace: traced, memory, ..machine.clone() };
                for stop in [Stop::FirstAnswer, Stop::Drained, Stop::OutOfFuel(fuel)] {
                    let what = format!("{c:?} on {} PEs ({:?}), traced {traced}, {stop:?}", opts.workers, opts.determinism);
                    assert_both_sweeps_are_complete(&program, &query, &opts, stop, &what);
                }
            }
        }
    }
}

/// The registry at full-size Stack Sets (13 MB a PE): the arrays every bench
/// binary and the server's default requests park and take.
#[test]
fn registry_programs_leave_nothing_behind_in_full_size_stack_sets() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        for (m, machine) in machines().into_iter().enumerate() {
            for traced in [false, true] {
                let opts = QueryOptions { trace: traced, ..machine.clone() };
                // Alternate the stopping points over the grid rather than
                // multiply by them: each full-size check scans 13 MB a PE.
                let stop = if (m + traced as usize).is_multiple_of(2) {
                    Stop::FirstAnswer
                } else {
                    Stop::OutOfFuel(997)
                };
                let what = format!(
                    "{} on {} PEs ({:?}), traced {traced}, {stop:?}",
                    id.name(),
                    opts.workers,
                    opts.determinism
                );
                let memory = memory_after(&b.program, &b.query, &opts, stop);
                assert!(!memory.is_pristine(), "{what}: the run wrote nothing");
                drop(memory);
                let next = Memory::new(opts.memory, opts.workers);
                assert!(next.is_pristine(), "{what}: a word survived the drop into the next memory");
            }
        }
    }
}

/// A run that dies of `OutOfMemory` loses its engine inside the run; the
/// memory is dropped there, with every area written right up to its end.
#[test]
fn a_run_that_exhausts_its_stack_set_leaves_nothing_behind() {
    let memory = MemoryConfig {
        heap_words: 160,
        local_words: 96,
        control_words: 96,
        trail_words: 32,
        pdl_words: 32,
        goal_stack_words: 64,
        message_words: 32,
    };
    let mut died = 0;
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        for machine in machines() {
            for traced in [false, true] {
                let opts = QueryOptions { trace: traced, memory, ..machine.clone() };
                let what = format!(
                    "{} on {} PEs ({:?}), traced {traced}",
                    id.name(),
                    opts.workers,
                    opts.determinism
                );
                let mut session = Session::new(&b.program).unwrap();
                match session.run(&b.query, &opts) {
                    Err(SessionError::Engine(EngineError::OutOfMemory { .. })) => died += 1,
                    Ok(_) => {}
                    Err(e) => panic!("{what}: {e}"),
                }
                let next = Memory::new(memory, opts.workers);
                assert!(next.is_pristine(), "{what}: a word survived the drop into the next memory");
            }
        }
    }
    assert!(died >= 40, "only {died} of 56 runs exhausted a 512-word Stack Set");
}
