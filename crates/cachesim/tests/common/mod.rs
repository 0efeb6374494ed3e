//! The inputs of `SIM_GOLDENS` and `SWEEP_GOLDENS` (`determinism.rs`) and
//! what a row pins of one simulation.  `examples/trace_goldens.rs` includes
//! this file, so the regenerator prints its rows from the very constants and
//! functions the suite checks them with.
#![allow(dead_code)]

use pwam_benchmarks::{benchmark, run_benchmark_with_session, BenchmarkId, Scale};
use pwam_cachesim::sweep::run_sweep_with_threads;
use pwam_cachesim::{simulate, CacheConfig, Protocol, SimConfig, SimResult};
use rapwam::session::QueryOptions;
use rapwam::MemRef;

/// PEs of the traced run and of the simulated machine.
pub const SIM_WORKERS: usize = 4;
/// Cache sizes in words: below, at and above the `paper_policy` switch to
/// write-allocate, so evictions of both policies are pinned.
pub const SIM_SIZES: [u32; 3] = [64, 512, 2048];

/// `[refs, read_misses, write_misses, bus_words, bus_transactions,
/// write_backs, invalidations, updates]` of one simulation.
pub type SimCounts = [u64; 8];
pub type SimRow = (BenchmarkId, Protocol, u32, SimCounts);

/// The benchmark's traced run on [`SIM_WORKERS`] interleaved PEs.
pub fn traced(id: BenchmarkId, scale: Scale) -> Vec<MemRef> {
    let b = benchmark(id, scale);
    let (_, run) = run_benchmark_with_session(&b, &QueryOptions::parallel(SIM_WORKERS).with_trace())
        .expect("benchmark runs");
    run.trace.expect("trace requested")
}

/// One configuration per protocol × size, under `paper_policy`.
pub fn paper_configs(sizes: &[u32]) -> Vec<SimConfig> {
    Protocol::ALL
        .into_iter()
        .flat_map(|protocol| {
            sizes.iter().map(move |&size| SimConfig {
                cache: CacheConfig::paper_policy(size, protocol),
                protocol,
                num_pes: SIM_WORKERS,
            })
        })
        .collect()
}

/// One row per paper benchmark × protocol × size, over the benchmark's
/// `Scale::Small` trace on [`SIM_WORKERS`] interleaved PEs.
pub fn sim_rows() -> Vec<SimRow> {
    let mut rows = Vec::new();
    for id in BenchmarkId::ALL {
        let trace = traced(id, Scale::Small);
        for config in paper_configs(&SIM_SIZES) {
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
            rows.push((id, config.protocol, config.cache.size_words, counts));
        }
    }
    rows
}

/// The cache sizes of the benchmark's `trace-sim` sweep.
pub const SWEEP_SIZES: [u32; 2] = [512, 2048];

/// Every counter of a [`SimResult`] (all its fields but `config`, which the
/// row names): `[refs, reads, writes, read_misses, write_misses, bus_words,
/// bus_transactions, invalidations, copies_invalidated, updates,
/// write_backs, line_fetches, write_through_words]`.
pub type SweepCounts = [u64; 13];
pub type SweepRow = (BenchmarkId, Protocol, u32, SweepCounts);

pub fn sweep_counts(r: &SimResult) -> SweepCounts {
    [
        r.refs,
        r.reads,
        r.writes,
        r.read_misses,
        r.write_misses,
        r.bus_words,
        r.bus_transactions,
        r.invalidations,
        r.copies_invalidated,
        r.updates,
        r.write_backs,
        r.line_fetches,
        r.write_through_words,
    ]
}

/// The `trace-sim` sweep, one row per paper benchmark × protocol × size:
/// [`SWEEP_SIZES`] under `paper_policy` on [`SIM_WORKERS`] PEs, over the
/// benchmark's `Scale::Paper` trace, swept on one thread.  `check` sees each
/// trace, the configurations and the one-thread results, so a caller can
/// hold other ways of computing them to the same numbers.
pub fn sweep_rows(mut check: impl FnMut(&[MemRef], &[SimConfig], &[SimResult])) -> Vec<SweepRow> {
    let configs = paper_configs(&SWEEP_SIZES);
    let mut rows = Vec::new();
    for id in BenchmarkId::ALL {
        let trace = traced(id, Scale::Paper);
        let results = run_sweep_with_threads(&trace, &configs, 1);
        check(&trace, &configs, &results);
        for (config, r) in configs.iter().zip(&results) {
            rows.push((id, config.protocol, config.cache.size_words, sweep_counts(r)));
        }
    }
    rows
}
