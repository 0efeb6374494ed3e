//! End-to-end integration tests spanning every crate: Prolog source →
//! compiled RAP-WAM code → multi-PE execution trace → coherent-cache
//! simulation, on small inputs so the whole suite stays fast.

use pwam_suite::benchmarks::{all_benchmarks, benchmark, runner, BenchmarkId, Scale};
use pwam_suite::cachesim::{simulate, CacheConfig, Protocol, SimConfig};
use pwam_suite::rapwam::session::{QueryOptions, Session};
use pwam_suite::rapwam::{Area, Locality};

/// Trace one benchmark at a given PE count.
fn trace_of(id: BenchmarkId, pes: usize) -> Vec<pwam_suite::rapwam::MemRef> {
    let b = benchmark(id, Scale::Small);
    let mut session = Session::new(&b.program).unwrap();
    let result = session.run(&b.query, &QueryOptions::parallel(pes).with_trace()).unwrap();
    assert!(result.outcome.is_success());
    result.trace.unwrap()
}

#[test]
fn parallel_answers_match_sequential_answers_for_every_benchmark() {
    for b in all_benchmarks(Scale::Small) {
        let (seq_session, seq) = runner::run_benchmark_with_session(&b, &QueryOptions::sequential()).unwrap();
        runner::validate(&b, &seq_session, &seq).unwrap();
        for pes in [2usize, 4, 8] {
            let (par_session, par) =
                runner::run_benchmark_with_session(&b, &QueryOptions::parallel(pes)).unwrap();
            runner::validate(&b, &par_session, &par).unwrap_or_else(|e| {
                panic!("{} wrong on {pes} PEs: {e}", b.id.name());
            });
        }
    }
}

#[test]
fn traces_contain_shared_and_locked_references_when_parallel() {
    let trace = trace_of(BenchmarkId::Qsort, 4);
    assert!(!trace.is_empty());
    let global = trace.iter().filter(|r| r.locality() == Locality::Global).count();
    let locked = trace.iter().filter(|r| r.locked()).count();
    assert!(global > 0, "no globally-tagged references in a parallel run");
    assert!(locked > 0, "no locked references (goal stack / counts) in a parallel run");
    // Goal Stack traffic only exists in the parallel machine (Table 1).
    assert!(trace.iter().any(|r| r.area() == Area::GoalStack));
}

#[test]
fn sequential_traces_use_only_wam_areas() {
    let b = benchmark(BenchmarkId::Deriv, Scale::Small);
    let mut session = Session::new(&b.program).unwrap();
    let result = session.run(&b.query, &QueryOptions::sequential().with_trace()).unwrap();
    let trace = result.trace.unwrap();
    assert!(trace.iter().all(|r| r.object.in_wam()), "sequential execution touched a parallel-only object");
    assert!(trace.iter().all(|r| r.pe == 0));
}

#[test]
fn protocol_ranking_matches_the_paper_on_real_traces() {
    // Figure 4's ranking: broadcast <= hybrid <= conventional write-through,
    // checked on a real multi-PE trace at a medium cache size.
    let trace = trace_of(BenchmarkId::Qsort, 4);
    let tr = |protocol| {
        let config = SimConfig {
            cache: CacheConfig { size_words: 512, line_words: 4, write_allocate: true },
            protocol,
            num_pes: 4,
        };
        simulate(&config, &trace).traffic_ratio()
    };
    let broadcast = tr(Protocol::WriteInBroadcast);
    let hybrid = tr(Protocol::Hybrid);
    let write_through = tr(Protocol::WriteThrough);
    assert!(broadcast <= hybrid + 1e-9, "broadcast {broadcast} vs hybrid {hybrid}");
    assert!(hybrid <= write_through + 1e-9, "hybrid {hybrid} vs write-through {write_through}");
    assert!(write_through > broadcast, "write-through must be strictly worse than broadcast");
}

#[test]
fn write_update_broadcast_is_close_to_write_invalidate_broadcast() {
    // "The write-through broadcast cache statistics are almost identical to
    // those of the write-in broadcast cache."
    let trace = trace_of(BenchmarkId::Matrix, 4);
    let mk = |protocol| SimConfig {
        cache: CacheConfig { size_words: 1024, line_words: 4, write_allocate: true },
        protocol,
        num_pes: 4,
    };
    let invalidate = simulate(&mk(Protocol::WriteInBroadcast), &trace).traffic_ratio();
    let update = simulate(&mk(Protocol::WriteThroughBroadcast), &trace).traffic_ratio();
    let diff = (invalidate - update).abs() / invalidate.max(1e-9);
    assert!(
        diff < 0.15,
        "broadcast variants differ by {:.1}% (invalidate {invalidate}, update {update})",
        diff * 100.0
    );
}

#[test]
fn traffic_ratio_decreases_with_cache_size_on_real_traces() {
    let trace = trace_of(BenchmarkId::Deriv, 2);
    let mut previous = f64::INFINITY;
    for size in [64u32, 256, 1024, 4096] {
        let config = SimConfig {
            cache: CacheConfig::paper_policy(size, Protocol::WriteInBroadcast),
            protocol: Protocol::WriteInBroadcast,
            num_pes: 2,
        };
        let tr = simulate(&config, &trace).traffic_ratio();
        assert!(tr <= previous + 0.05, "traffic ratio rose from {previous} to {tr} at {size} words");
        previous = tr;
    }
}

#[test]
fn caches_capture_most_traffic_at_large_sizes() {
    // The broadcast cache must capture the bulk of the processor traffic
    // once it is big enough (the paper quotes >70%; our traces reach that at
    // larger sizes — see EXPERIMENTS.md).
    let trace = trace_of(BenchmarkId::Qsort, 2);
    let config = SimConfig {
        cache: CacheConfig { size_words: 4096, line_words: 4, write_allocate: true },
        protocol: Protocol::WriteInBroadcast,
        num_pes: 2,
    };
    let result = simulate(&config, &trace);
    assert!(
        result.capture_ratio() > 0.6,
        "a 4096-word broadcast cache captured only {:.0}%",
        100.0 * result.capture_ratio()
    );
}

#[test]
fn locality_tags_drive_the_hybrid_protocol() {
    // The hybrid protocol must treat the trace's Local-tagged writes as
    // copy-back: its write-through word count must be well below the
    // conventional write-through protocol's.
    let trace = trace_of(BenchmarkId::Tak, 2);
    let mk = |protocol| SimConfig {
        cache: CacheConfig { size_words: 1024, line_words: 4, write_allocate: true },
        protocol,
        num_pes: 2,
    };
    let hybrid = simulate(&mk(Protocol::Hybrid), &trace);
    let wthru = simulate(&mk(Protocol::WriteThrough), &trace);
    assert!(
        hybrid.write_through_words * 2 < wthru.write_through_words,
        "hybrid wrote through {} words vs {} for conventional write-through",
        hybrid.write_through_words,
        wthru.write_through_words
    );
}

#[test]
fn compiler_and_engine_agree_on_a_handwritten_program() {
    // A final end-to-end sanity check written directly against the umbrella
    // crate's re-exports (what a downstream user would do).
    let mut session = Session::new(
        "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.\n\
         double([], []).\ndouble([X|Xs], [Y|Ys]) :- Y is 2 * X, double(Xs, Ys).\n\
         both(L, N, D) :- (ground(L) | len(L, N) & double(L, D)).",
    )
    .unwrap();
    let result = session.run("both([1,2,3,4], N, D)", &QueryOptions::parallel(2)).unwrap();
    assert_eq!(session.render(result.outcome.binding("N").unwrap()), "4");
    assert_eq!(session.render(result.outcome.binding("D").unwrap()), "[2,4,6,8]");
}
