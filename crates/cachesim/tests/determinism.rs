//! Determinism: the simulator is a pure function of (config, trace). The
//! same inputs must give bit-identical `SimResult`s across repeated runs,
//! across interleaved runs of other configurations, for every protocol, and
//! through the parallel sweep — and, for the paper's four traces, identical
//! to the numbers recorded before the LRU's replacement scan became a
//! recency list (`SIM_GOLDENS`) and before traces were numbered
//! (`SWEEP_GOLDENS`).

mod common;

use common::{sim_rows, sweep_rows, SimRow, SweepRow};
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use pwam_cachesim::sweep::run_sweep_with_threads;
use pwam_cachesim::{run_sweep, simulate, CacheConfig, Protocol, SimConfig};
use rapwam::session::{QueryOptions, Session};
use rapwam::{MemRef, ObjectKind};

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
            object: ObjectKind::ALL[(i / 5 % 12) as usize],
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

/// The benchmark's `trace-sim` sweep, every counter.  `examples/trace_goldens.rs`
/// prints these rows; they were printed while each PE's cache still found a
/// line through a hash map keyed by its address, before a trace's lines were
/// numbered once per sweep.
#[rustfmt::skip]
const SWEEP_GOLDENS: [SweepRow; 32] = [
    (BenchmarkId::Deriv, Protocol::WriteInBroadcast, 512, [45546, 17748, 27798, 660, 1503, 13256, 3490, 176, 176, 0, 1381, 2163, 0]),
    (BenchmarkId::Deriv, Protocol::WriteInBroadcast, 2048, [45546, 17748, 27798, 477, 1470, 7908, 2160, 183, 185, 0, 501, 1947, 0]),
    (BenchmarkId::Deriv, Protocol::WriteThroughBroadcast, 512, [45546, 17748, 27798, 578, 1482, 13520, 3944, 0, 0, 752, 1251, 2060, 0]),
    (BenchmarkId::Deriv, Protocol::WriteThroughBroadcast, 2048, [45546, 17748, 27798, 373, 1443, 8382, 2841, 0, 0, 994, 365, 1816, 0]),
    (BenchmarkId::Deriv, Protocol::Hybrid, 512, [45546, 17748, 27798, 1527, 5507, 19663, 15159, 146, 146, 0, 35, 1527, 13463]),
    (BenchmarkId::Deriv, Protocol::Hybrid, 2048, [45546, 17748, 27798, 1271, 3971, 18208, 13514, 157, 157, 0, 18, 1617, 11740]),
    (BenchmarkId::Deriv, Protocol::WriteThrough, 512, [45546, 17748, 27798, 660, 1503, 36450, 30137, 176, 176, 0, 0, 2163, 27798]),
    (BenchmarkId::Deriv, Protocol::WriteThrough, 2048, [45546, 17748, 27798, 477, 1470, 35586, 29928, 183, 185, 0, 0, 1947, 27798]),
    (BenchmarkId::Tak, Protocol::WriteInBroadcast, 512, [113336, 48836, 64500, 439, 1975, 16488, 4295, 173, 177, 0, 1935, 2414, 0]),
    (BenchmarkId::Tak, Protocol::WriteInBroadcast, 2048, [113336, 48836, 64500, 184, 1920, 8644, 2339, 178, 182, 0, 289, 2104, 0]),
    (BenchmarkId::Tak, Protocol::WriteThroughBroadcast, 512, [113336, 48836, 64500, 360, 1939, 16476, 4410, 0, 0, 388, 1803, 2299, 0]),
    (BenchmarkId::Tak, Protocol::WriteThroughBroadcast, 2048, [113336, 48836, 64500, 92, 1880, 8625, 2502, 0, 0, 461, 140, 1972, 0]),
    (BenchmarkId::Tak, Protocol::Hybrid, 512, [113336, 48836, 64500, 1947, 6178, 34595, 28846, 116, 117, 0, 15, 1947, 26775]),
    (BenchmarkId::Tak, Protocol::Hybrid, 2048, [113336, 48836, 64500, 1632, 4806, 33264, 27426, 123, 126, 0, 11, 1986, 25316]),
    (BenchmarkId::Tak, Protocol::WriteThrough, 512, [113336, 48836, 64500, 439, 1975, 74156, 67087, 173, 177, 0, 0, 2414, 64500]),
    (BenchmarkId::Tak, Protocol::WriteThrough, 2048, [113336, 48836, 64500, 184, 1920, 72916, 66782, 178, 182, 0, 0, 2104, 64500]),
    (BenchmarkId::Qsort, Protocol::WriteInBroadcast, 512, [121426, 50171, 71255, 1216, 2536, 23168, 5904, 112, 117, 0, 2333, 3752, 0]),
    (BenchmarkId::Qsort, Protocol::WriteInBroadcast, 2048, [121426, 50171, 71255, 533, 2353, 13300, 3455, 130, 141, 0, 992, 2886, 0]),
    (BenchmarkId::Qsort, Protocol::WriteThroughBroadcast, 512, [121426, 50171, 71255, 1172, 2526, 23720, 6542, 0, 0, 816, 2252, 3698, 0]),
    (BenchmarkId::Qsort, Protocol::WriteThroughBroadcast, 2048, [121426, 50171, 71255, 468, 2339, 14328, 4545, 0, 0, 1284, 917, 2807, 0]),
    (BenchmarkId::Qsort, Protocol::Hybrid, 512, [121426, 50171, 71255, 3378, 8547, 39653, 28802, 96, 99, 0, 285, 3378, 25057]),
    (BenchmarkId::Qsort, Protocol::Hybrid, 2048, [121426, 50171, 71255, 2250, 6701, 35002, 26244, 119, 122, 0, 142, 2834, 23166]),
    (BenchmarkId::Qsort, Protocol::WriteThrough, 512, [121426, 50171, 71255, 1216, 2536, 86263, 75119, 112, 117, 0, 0, 3752, 71255]),
    (BenchmarkId::Qsort, Protocol::WriteThrough, 2048, [121426, 50171, 71255, 533, 2353, 82799, 74271, 130, 141, 0, 0, 2886, 71255]),
    (BenchmarkId::Matrix, Protocol::WriteInBroadcast, 512, [30136, 18149, 11987, 790, 2008, 17564, 4409, 18, 18, 0, 1695, 2798, 0]),
    (BenchmarkId::Matrix, Protocol::WriteInBroadcast, 2048, [30136, 18149, 11987, 262, 2000, 12584, 3164, 18, 18, 0, 1022, 2262, 0]),
    (BenchmarkId::Matrix, Protocol::WriteThroughBroadcast, 512, [30136, 18149, 11987, 787, 2008, 17570, 4433, 0, 0, 54, 1680, 2795, 0]),
    (BenchmarkId::Matrix, Protocol::WriteThroughBroadcast, 2048, [30136, 18149, 11987, 250, 2000, 12652, 3253, 0, 0, 120, 1009, 2250, 0]),
    (BenchmarkId::Matrix, Protocol::Hybrid, 512, [30136, 18149, 11987, 2691, 6423, 20294, 12212, 9, 9, 0, 6, 2691, 9506]),
    (BenchmarkId::Matrix, Protocol::Hybrid, 2048, [30136, 18149, 11987, 2147, 6300, 18206, 11594, 15, 15, 0, 12, 2200, 9370]),
    (BenchmarkId::Matrix, Protocol::WriteThrough, 512, [30136, 18149, 11987, 790, 2008, 23179, 14803, 18, 18, 0, 0, 2798, 11987]),
    (BenchmarkId::Matrix, Protocol::WriteThrough, 2048, [30136, 18149, 11987, 262, 2000, 21035, 14267, 18, 18, 0, 0, 2262, 11987]),
];

#[test]
fn the_trace_sim_sweep_matches_its_recorded_values_at_any_thread_count() {
    let rows = sweep_rows(|trace, configs, one_thread| {
        for threads in [2usize, 8] {
            assert_eq!(one_thread, run_sweep_with_threads(trace, configs, threads), "{threads} threads");
        }
        for (config, result) in configs.iter().zip(one_thread) {
            assert_eq!(result, &simulate(config, trace), "{config:?} alone");
        }
    });
    assert_eq!(rows.len(), SWEEP_GOLDENS.len());
    for (row, golden) in rows.iter().zip(&SWEEP_GOLDENS) {
        assert_eq!(row, golden, "a counter of the trace-sim sweep moved");
    }
}
