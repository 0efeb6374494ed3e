//! A traced run must leave nothing behind for the next one.  However a traced
//! run ends — at its first answer, drained, out of fuel, out of memory, closed
//! mid-stream, dropped with its records never taken, or taken half-way — the
//! next traced run produces exactly its recorded trace: the same length and
//! the same `trace::fingerprint`.  The predecessors run on 1, 2 and 4
//! interleaved PEs and on the relaxed backend at `PWAM_THREADS` PEs (4 when
//! unset); each is followed by strict runs with recorded goldens and by a
//! relaxed run whose every record must be its own.

mod common;

use common::{golden_cases, program, query, threaded_workers};
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{CursorStep, QueryOptions, Session, SessionError};
use rapwam::trace::fingerprint;
use rapwam::{EngineError, MemoryConfig};

/// (PEs, trace length, fingerprint) of deriv at `Scale::Small` on the
/// interleaved backend, traced, default Stack Sets.  The 2-PE row is
/// `slot_batching`'s.
const DERIV_GOLDENS: [(usize, usize, u64); 3] =
    [(1, 1705, 0x00039f020862ae8b), (2, 1725, 0xb43083a3afa69624), (4, 1799, 0x17e6133e190bb124)];

/// A program with a CGE and several answers: the generator case with a
/// threshold inside its list and three workers' worth of table.
fn predecessor_session(opts: &QueryOptions) -> (Session, std::sync::Arc<pwam_compiler::CompiledProgram>) {
    let case =
        golden_cases().into_iter().find(|c| c.parallel && !c.cut && c.workers == 3).expect("a golden case");
    let mut session = Session::new(&program(&case, false)).expect("program parses");
    let compiled = session.prepare_with(&query(&case), opts.compile_options()).expect("query compiles");
    (session, compiled)
}

fn cursor(opts: &QueryOptions) -> rapwam::QueryCursor {
    let (session, compiled) = predecessor_session(opts);
    session.open_cursor(&compiled, opts, None).expect("cursor opens")
}

/// How a traced run ends, and a run that ends that way.
type Abandonment = (&'static str, fn(&QueryOptions));

/// Ways a traced run can end, each leaving its engine's records untaken or
/// half-taken.
const ABANDONMENTS: [Abandonment; 7] = [
    ("dropped at its first answer", |opts| {
        let mut c = cursor(opts);
        assert!(c.next().expect("cursor step").is_some());
    }),
    ("drained, records never taken", |opts| {
        let mut c = cursor(opts);
        let mut answers = 0;
        while c.next().expect("cursor step").is_some() {
            answers += 1;
        }
        assert!(answers >= 2, "the predecessor has one answer only");
    }),
    ("out of fuel", |opts| {
        // Tak's answer lies thousands of instructions past the batches a
        // relaxed PE may still finish once the fuel is spent, so the run
        // ends out of fuel on every backend.
        let b = benchmark(BenchmarkId::Tak, Scale::Small);
        let mut session = Session::new(&b.program).expect("program parses");
        let compiled = session.prepare_with(&b.query, opts.compile_options()).expect("query compiles");
        let run = session.run_prepared(&compiled, &opts.clone().with_fuel(60));
        assert!(matches!(run, Err(SessionError::Engine(EngineError::FuelExhausted { .. }))), "{run:?}");
        let mut c = session.open_cursor(&compiled, &opts.clone().with_fuel(60), None).expect("cursor opens");
        assert_eq!(c.next_step().expect("cursor step"), CursorStep::FuelExhausted);
    }),
    ("out of memory", |opts| {
        let b = benchmark(BenchmarkId::Deriv, Scale::Small);
        let tiny = opts.clone().with_memory(MemoryConfig { heap_words: 16, ..MemoryConfig::small() });
        let run = Session::new(&b.program).expect("program parses").run(&b.query, &tiny);
        assert!(matches!(run, Err(SessionError::Engine(EngineError::OutOfMemory { .. }))), "{run:?}");
    }),
    ("closed mid-stream", |opts| {
        let mut c = cursor(opts);
        assert!(c.next().expect("cursor step").is_some());
        assert!(c.close().is_some(), "the engine was lost");
    }),
    ("an engine dropped without take_trace", |opts| {
        let mut c = cursor(opts);
        assert!(c.next().expect("cursor step").is_some(), "the query has answers");
        assert!(c.stats().expect("live engine").data_refs > 0);
        drop(c);
    }),
    ("records taken at the first answer, then drained", |opts| {
        let mut c = cursor(opts);
        assert!(c.next().expect("cursor step").is_some());
        let taken = c.take_trace().expect("tracing was on");
        assert_eq!(taken.len() as u64, c.stats().expect("live engine").data_refs);
        while c.next().expect("cursor step").is_some() {}
        assert!(c.take_trace().is_none(), "tracing stops where the records were taken");
    }),
];

fn deriv_traced(opts: &QueryOptions) -> rapwam::RunResult {
    let b = benchmark(BenchmarkId::Deriv, Scale::Small);
    Session::new(&b.program).expect("program parses").run(&b.query, opts).expect("deriv runs")
}

/// The runs that follow an abandonment: deriv on every strict width of the
/// goldens, and on the relaxed backend.
fn assert_followers_are_clean(after: &str) {
    for (pes, len, fp) in DERIV_GOLDENS {
        let run = deriv_traced(&QueryOptions::parallel(pes).with_trace());
        let trace = run.trace.expect("trace requested");
        assert_eq!((trace.len(), fingerprint(&trace)), (len, fp), "{pes} PE(s) after a predecessor {after}");
    }
    let pes = threaded_workers(4);
    let run = deriv_traced(&QueryOptions::relaxed(pes).with_trace());
    let trace = run.trace.expect("trace requested");
    assert_eq!(trace.len() as u64, run.stats.data_refs, "relaxed after a predecessor {after}");
    for (w, own) in run.stats.area_stats.per_pe.iter().enumerate() {
        let records = trace.iter().filter(|r| r.pe as usize == w).count() as u64;
        assert_eq!(records, own.total(), "PE {w}'s records, relaxed after a predecessor {after}");
    }
}

fn predecessors() -> Vec<(String, QueryOptions)> {
    let mut machines: Vec<_> =
        [1, 2, 4].map(|pes| (format!("on {pes} interleaved PE(s)"), QueryOptions::parallel(pes))).into();
    let pes = threaded_workers(4);
    machines.push((format!("relaxed on {pes} PE(s)"), QueryOptions::relaxed(pes)));
    machines
}

#[test]
fn a_traced_run_after_an_abandoned_one_produces_its_recorded_trace() {
    assert_followers_are_clean("(none)");
    for (machine, opts) in predecessors() {
        for (how, abandon) in ABANDONMENTS {
            abandon(&opts.clone().with_trace());
            assert_followers_are_clean(&format!("{machine}, {how}"));
        }
    }
}

#[test]
fn an_untraced_run_after_an_abandoned_traced_one_counts_what_it_always_did() {
    let counts = |opts: &QueryOptions| {
        let run = deriv_traced(opts);
        assert!(run.trace.is_none());
        (run.stats.instructions, run.stats.data_refs)
    };
    let before: Vec<_> = DERIV_GOLDENS.map(|(pes, ..)| counts(&QueryOptions::parallel(pes))).into();
    for (machine, opts) in predecessors() {
        for (how, abandon) in ABANDONMENTS {
            abandon(&opts.clone().with_trace());
            let after: Vec<_> = DERIV_GOLDENS.map(|(pes, ..)| counts(&QueryOptions::parallel(pes))).into();
            assert_eq!(after, before, "untraced after a predecessor {machine}, {how}");
        }
    }
}
