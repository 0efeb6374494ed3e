//! The inputs of `SIM_GOLDENS` (`determinism.rs`) and what a row pins of one
//! simulation.  `examples/trace_goldens.rs` includes this file, so the
//! regenerator prints its rows from the very constants and function the
//! suite checks them with.
#![allow(dead_code)]

use pwam_benchmarks::{benchmark, run_benchmark_with_session, BenchmarkId, Scale};
use pwam_cachesim::{simulate, CacheConfig, Protocol, SimConfig};
use rapwam::session::QueryOptions;

/// PEs of the traced run and of the simulated machine.
pub const SIM_WORKERS: usize = 4;
/// Cache sizes in words: below, at and above the `paper_policy` switch to
/// write-allocate, so evictions of both policies are pinned.
pub const SIM_SIZES: [u32; 3] = [64, 512, 2048];

/// `[refs, read_misses, write_misses, bus_words, bus_transactions,
/// write_backs, invalidations, updates]` of one simulation.
pub type SimCounts = [u64; 8];
pub type SimRow = (BenchmarkId, Protocol, u32, SimCounts);

/// One row per paper benchmark × protocol × size, over the benchmark's
/// `Scale::Small` trace on [`SIM_WORKERS`] interleaved PEs.
pub fn sim_rows() -> Vec<SimRow> {
    let mut rows = Vec::new();
    for id in BenchmarkId::ALL {
        let b = benchmark(id, Scale::Small);
        let (_, run) = run_benchmark_with_session(&b, &QueryOptions::parallel(SIM_WORKERS).with_trace())
            .expect("benchmark runs");
        let trace = run.trace.expect("trace requested");
        for protocol in Protocol::ALL {
            for size in SIM_SIZES {
                let config = SimConfig {
                    cache: CacheConfig::paper_policy(size, protocol),
                    protocol,
                    num_pes: SIM_WORKERS,
                };
                let r = simulate(&config, &trace);
                let counts = [
                    r.refs,
                    r.read_misses,
                    r.write_misses,
                    r.bus_words,
                    r.bus_transactions,
                    r.write_backs,
                    r.invalidations,
                    r.updates,
                ];
                rows.push((id, protocol, size, counts));
            }
        }
    }
    rows
}
