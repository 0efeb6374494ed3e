//! Determinism: the simulator is a pure function of (config, trace). The
//! same inputs must give bit-identical `SimResult`s across repeated runs,
//! across interleaved runs of other configurations, for every protocol, and
//! through the parallel sweep — and, for the paper's four traces, identical
//! to the numbers recorded before the LRU's replacement scan became a
//! recency list.

mod common;

use common::{sim_rows, SimRow};
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use pwam_cachesim::sweep::run_sweep_with_threads;
use pwam_cachesim::{run_sweep, simulate, CacheConfig, Protocol, SimConfig};
use rapwam::session::{QueryOptions, Session};
use rapwam::{Area, Locality, MemRef, ObjectKind};

fn engine_trace() -> Vec<MemRef> {
    let bench = benchmark(BenchmarkId::Qsort, Scale::Small);
    let mut session = Session::new(&bench.program).unwrap();
    let result = session.run(&bench.query, &QueryOptions::parallel(4).with_trace()).unwrap();
    result.trace.expect("tracing was requested")
}

fn synthetic_trace() -> Vec<MemRef> {
    (0..10_000u32)
        .map(|i| MemRef {
            pe: (i % 4) as u8,
            addr: (i.wrapping_mul(31)) % 8192,
            write: i % 3 == 0,
            area: if i % 5 == 0 { Area::Trail } else { Area::Heap },
            object: if i % 5 == 0 { ObjectKind::TrailEntry } else { ObjectKind::HeapTerm },
            locality: if i % 2 == 0 { Locality::Local } else { Locality::Global },
            locked: false,
        })
        .collect()
}

fn config(protocol: Protocol) -> SimConfig {
    SimConfig {
        cache: CacheConfig { size_words: 1024, line_words: 4, write_allocate: true },
        protocol,
        num_pes: 4,
    }
}

#[test]
fn repeated_runs_are_identical_for_every_protocol() {
    for trace in [engine_trace(), synthetic_trace()] {
        for protocol in Protocol::ALL {
            let cfg = config(protocol);
            let first = simulate(&cfg, &trace);
            for _ in 0..3 {
                assert_eq!(first, simulate(&cfg, &trace), "protocol {protocol:?} not deterministic");
            }
        }
    }
}

#[test]
fn interleaving_other_configurations_does_not_perturb_results() {
    let trace = synthetic_trace();
    let baselines: Vec<_> = Protocol::ALL.iter().map(|&p| simulate(&config(p), &trace)).collect();
    // Re-run in reverse order, interleaved with differently-sized caches.
    for (&protocol, baseline) in Protocol::ALL.iter().zip(&baselines).rev() {
        let small = SimConfig {
            cache: CacheConfig { size_words: 64, line_words: 4, write_allocate: false },
            protocol,
            num_pes: 4,
        };
        let _ = simulate(&small, &trace);
        assert_eq!(baseline, &simulate(&config(protocol), &trace));
    }
}

#[test]
fn engine_trace_itself_is_deterministic() {
    // Two fresh sessions over the same program and query must emit the same
    // reference trace — the property that makes trace-driven simulation
    // reproducible end to end.
    let a = engine_trace();
    let b = engine_trace();
    assert_eq!(a, b);
}

#[test]
fn parallel_sweep_is_deterministic_at_any_thread_count() {
    let trace = synthetic_trace();
    let configs: Vec<SimConfig> = Protocol::ALL
        .iter()
        .flat_map(|&p| {
            [64u32, 1024].into_iter().map(move |size| SimConfig {
                cache: CacheConfig { size_words: size, line_words: 4, write_allocate: size >= 512 },
                protocol: p,
                num_pes: 4,
            })
        })
        .collect();
    let reference = run_sweep(&trace, &configs);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            reference,
            run_sweep_with_threads(&trace, &configs, threads),
            "sweep differs at {threads} threads"
        );
    }
    assert_eq!(reference, run_sweep(&trace, &configs));
}

/// `examples/trace_goldens.rs` prints these rows; they were printed at commit
/// `7f4f4c9`, where the fully associative cache still found its victim by
/// scanning every resident line for the smallest last-use stamp.
#[rustfmt::skip]
const SIM_GOLDENS: [SimRow; 48] = [
    (BenchmarkId::Deriv, Protocol::WriteInBroadcast, 64, [1799, 204, 761, 1825, 1049, 79, 22, 0]),
    (BenchmarkId::Deriv, Protocol::WriteInBroadcast, 512, [1799, 56, 152, 832, 242, 63, 34, 0]),
    (BenchmarkId::Deriv, Protocol::WriteInBroadcast, 2048, [1799, 56, 152, 832, 242, 63, 34, 0]),
    (BenchmarkId::Deriv, Protocol::WriteThroughBroadcast, 64, [1799, 196, 758, 1788, 1029, 67, 0, 45]),
    (BenchmarkId::Deriv, Protocol::WriteThroughBroadcast, 512, [1799, 40, 147, 826, 265, 35, 0, 78]),
    (BenchmarkId::Deriv, Protocol::WriteThroughBroadcast, 2048, [1799, 40, 147, 826, 265, 35, 0, 78]),
    (BenchmarkId::Deriv, Protocol::Hybrid, 64, [1799, 204, 761, 1809, 1153, 22, 22, 0]),
    (BenchmarkId::Deriv, Protocol::Hybrid, 512, [1799, 168, 710, 1545, 1066, 1, 25, 0]),
    (BenchmarkId::Deriv, Protocol::Hybrid, 2048, [1799, 116, 340, 1204, 678, 5, 29, 0]),
    (BenchmarkId::Deriv, Protocol::WriteThrough, 64, [1799, 204, 761, 1921, 1331, 0, 22, 0]),
    (BenchmarkId::Deriv, Protocol::WriteThrough, 512, [1799, 56, 152, 1937, 1347, 0, 34, 0]),
    (BenchmarkId::Deriv, Protocol::WriteThrough, 2048, [1799, 56, 152, 1937, 1347, 0, 34, 0]),
    (BenchmarkId::Tak, Protocol::WriteInBroadcast, 64, [32751, 2156, 5442, 18810, 8896, 1271, 112, 0]),
    (BenchmarkId::Tak, Protocol::WriteInBroadcast, 512, [32751, 219, 798, 5324, 1510, 541, 179, 0]),
    (BenchmarkId::Tak, Protocol::WriteInBroadcast, 2048, [32751, 178, 790, 3872, 1153, 232, 185, 0]),
    (BenchmarkId::Tak, Protocol::WriteThroughBroadcast, 64, [32751, 2088, 5433, 18604, 8794, 1207, 0, 247]),
    (BenchmarkId::Tak, Protocol::WriteThroughBroadcast, 512, [32751, 137, 760, 5378, 1646, 422, 0, 402]),
    (BenchmarkId::Tak, Protocol::WriteThroughBroadcast, 2048, [32751, 81, 748, 3766, 1279, 64, 0, 450]),
    (BenchmarkId::Tak, Protocol::Hybrid, 64, [32751, 2151, 5442, 17582, 11166, 27, 109, 0]),
    (BenchmarkId::Tak, Protocol::Hybrid, 512, [32751, 808, 2588, 11334, 9026, 8, 119, 0]),
    (BenchmarkId::Tak, Protocol::Hybrid, 2048, [32751, 682, 1882, 10773, 8330, 9, 125, 0]),
    (BenchmarkId::Tak, Protocol::WriteThrough, 64, [32751, 2156, 5442, 27339, 20983, 0, 112, 0]),
    (BenchmarkId::Tak, Protocol::WriteThrough, 512, [32751, 219, 798, 22783, 19911, 0, 179, 0]),
    (BenchmarkId::Tak, Protocol::WriteThrough, 2048, [32751, 178, 790, 22587, 19868, 0, 185, 0]),
    (BenchmarkId::Qsort, Protocol::WriteInBroadcast, 64, [7406, 563, 1778, 4802, 2590, 261, 56, 0]),
    (BenchmarkId::Qsort, Protocol::WriteInBroadcast, 512, [7406, 151, 304, 1820, 571, 182, 116, 0]),
    (BenchmarkId::Qsort, Protocol::WriteInBroadcast, 2048, [7406, 151, 304, 1820, 571, 182, 116, 0]),
    (BenchmarkId::Qsort, Protocol::WriteThroughBroadcast, 64, [7406, 537, 1780, 4754, 2591, 226, 0, 140]),
    (BenchmarkId::Qsort, Protocol::WriteThroughBroadcast, 512, [7406, 89, 286, 1852, 727, 93, 0, 352]),
    (BenchmarkId::Qsort, Protocol::WriteThroughBroadcast, 2048, [7406, 89, 286, 1852, 727, 93, 0, 352]),
    (BenchmarkId::Qsort, Protocol::Hybrid, 64, [7406, 563, 1782, 5098, 3265, 73, 54, 0]),
    (BenchmarkId::Qsort, Protocol::Hybrid, 512, [7406, 382, 1187, 3625, 2562, 11, 83, 0]),
    (BenchmarkId::Qsort, Protocol::Hybrid, 2048, [7406, 289, 761, 3240, 2114, 13, 92, 0]),
    (BenchmarkId::Qsort, Protocol::WriteThrough, 64, [7406, 563, 1778, 6637, 5004, 0, 56, 0]),
    (BenchmarkId::Qsort, Protocol::WriteThrough, 512, [7406, 151, 304, 6205, 4956, 0, 116, 0]),
    (BenchmarkId::Qsort, Protocol::WriteThrough, 2048, [7406, 151, 304, 6205, 4956, 0, 116, 0]),
    (BenchmarkId::Matrix, Protocol::WriteInBroadcast, 64, [2542, 294, 646, 2126, 1025, 82, 9, 0]),
    (BenchmarkId::Matrix, Protocol::WriteInBroadcast, 512, [2542, 66, 199, 1060, 283, 51, 18, 0]),
    (BenchmarkId::Matrix, Protocol::WriteInBroadcast, 2048, [2542, 66, 199, 1060, 283, 51, 18, 0]),
    (BenchmarkId::Matrix, Protocol::WriteThroughBroadcast, 64, [2542, 288, 646, 2117, 1025, 76, 0, 15]),
    (BenchmarkId::Matrix, Protocol::WriteThroughBroadcast, 512, [2542, 54, 199, 1078, 319, 39, 0, 66]),
    (BenchmarkId::Matrix, Protocol::WriteThroughBroadcast, 2048, [2542, 54, 199, 1078, 319, 39, 0, 66]),
    (BenchmarkId::Matrix, Protocol::Hybrid, 64, [2542, 294, 646, 2115, 1206, 12, 9, 0]),
    (BenchmarkId::Matrix, Protocol::Hybrid, 512, [2542, 234, 646, 1827, 1134, 0, 9, 0]),
    (BenchmarkId::Matrix, Protocol::Hybrid, 2048, [2542, 216, 576, 1792, 1069, 3, 15, 0]),
    (BenchmarkId::Matrix, Protocol::WriteThrough, 64, [2542, 294, 646, 2255, 1382, 0, 9, 0]),
    (BenchmarkId::Matrix, Protocol::WriteThrough, 512, [2542, 66, 199, 2139, 1362, 0, 18, 0]),
    (BenchmarkId::Matrix, Protocol::WriteThrough, 2048, [2542, 66, 199, 2139, 1362, 0, 18, 0]),
];

#[test]
fn simulated_statistics_match_their_recorded_values() {
    let rows = sim_rows();
    assert_eq!(rows.len(), SIM_GOLDENS.len());
    for (row, golden) in rows.iter().zip(&SIM_GOLDENS) {
        assert_eq!(row, golden, "a simulated statistic moved");
    }
}
