//! Parallel parameter sweeps.
//!
//! Regenerating Figure 4 means simulating every (protocol × cache size ×
//! PE count) combination over four benchmark traces.  Each configuration is
//! an independent simulation over the same trace, so the sweep numbers the
//! trace's lines once per line size among the configurations and shares the
//! trace and its numberings read-only with scoped OS threads.  The threads
//! claim configurations from one atomic index and hand their results back
//! through their join handles.

use crate::config::SimConfig;
use crate::multisim::{number_lines, simulate_numbered};
use crate::results::SimResult;
use rapwam::MemRef;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run every configuration over the same trace, in parallel, preserving the
/// order of `configs` in the returned vector.
pub fn run_sweep(trace: &[MemRef], configs: &[SimConfig]) -> Vec<SimResult> {
    run_sweep_with_threads(trace, configs, num_threads())
}

/// As [`run_sweep`] but with an explicit worker-thread count (used by the
/// scaling benchmark).
pub fn run_sweep_with_threads(trace: &[MemRef], configs: &[SimConfig], threads: usize) -> Vec<SimResult> {
    // (line_words, line number of each reference, distinct lines)
    let mut numberings: Vec<(u32, Vec<u32>, u32)> = Vec::new();
    for c in configs {
        let line_words = c.cache.line_words;
        if !numberings.iter().any(|(w, ..)| *w == line_words) {
            let (lines, count) = number_lines(trace, line_words);
            numberings.push((line_words, lines, count));
        }
    }
    let run = |i: usize| {
        let config = &configs[i];
        let (_, lines, count) =
            numberings.iter().find(|(w, ..)| *w == config.cache.line_words).expect("numbered above");
        simulate_numbered(config, trace, lines, *count)
    };

    let threads = threads.max(1).min(configs.len().max(1));
    if threads == 1 {
        return (0..configs.len()).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, SimResult)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Relaxed: the index only hands out work; the results
                    // come back through `join`, which synchronises.
                    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < configs.len());
                    std::iter::from_fn(claim).map(|i| (i, run(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a sweep thread panicked")).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, Protocol};
    use crate::multisim::simulate;
    use proptest::prelude::*;
    use rapwam::ObjectKind;

    fn synthetic_trace(n: u32) -> Vec<MemRef> {
        (0..n)
            .map(|i| MemRef {
                pe: (i % 2) as u8,
                addr: (i * 7) % 4096,
                write: i % 4 == 0,
                object: ObjectKind::ALL[(i / 3 % 12) as usize],
            })
            .collect()
    }

    fn configs() -> Vec<SimConfig> {
        let mut out = Vec::new();
        for protocol in Protocol::ALL {
            for size in [64u32, 256, 1024] {
                out.push(SimConfig {
                    cache: CacheConfig { size_words: size, line_words: 4, write_allocate: size >= 512 },
                    protocol,
                    num_pes: 2,
                });
            }
        }
        out
    }

    #[test]
    fn parallel_sweep_matches_sequential_simulation() {
        let trace = synthetic_trace(20_000);
        let configs = configs();
        let parallel = run_sweep(&trace, &configs);
        for (cfg, par) in configs.iter().zip(&parallel) {
            let seq = simulate(cfg, &trace);
            assert_eq!(par.bus_words, seq.bus_words, "config {cfg:?}");
            assert_eq!(par.refs, seq.refs);
            assert_eq!(par.read_misses, seq.read_misses);
        }
    }

    #[test]
    fn sweep_preserves_configuration_order() {
        let trace = synthetic_trace(5_000);
        let configs = configs();
        let results = run_sweep(&trace, &configs);
        assert_eq!(results.len(), configs.len());
        for (cfg, res) in configs.iter().zip(&results) {
            assert_eq!(&res.config, cfg);
        }
    }

    #[test]
    fn single_thread_fallback_works() {
        let trace = synthetic_trace(1_000);
        let configs = configs();
        let results = run_sweep_with_threads(&trace, &configs, 1);
        assert_eq!(results.len(), configs.len());
    }

    /// `(pe, addr, write, object)`: addresses low enough to share lines and
    /// high enough to reach `u32::MAX`, objects from every Table 1 row.
    fn arb_refs() -> impl Strategy<Value = Vec<(u8, u32, bool, ObjectKind)>> {
        let addr = prop_oneof![0u32..600, (0u32..40).prop_map(|k| u32::MAX - k)];
        let flag = prop::sample::select(vec![false, true]);
        let object = prop::sample::select(ObjectKind::ALL.to_vec());
        prop::collection::vec((0u8..4, addr, flag, object), 0..800)
    }

    /// `(line_words, num_pes, size_words, protocol, write_allocate)`.
    fn arb_configs() -> impl Strategy<Value = Vec<(u32, usize, u32, Protocol, bool)>> {
        let config = (
            prop::sample::select(vec![1u32, 2, 4, 8]),
            prop::sample::select(vec![1usize, 2, 4]),
            prop::sample::select(vec![8u32, 32, 128, 1024]),
            prop::sample::select(Protocol::ALL.to_vec()),
            prop::sample::select(vec![false, true]),
        );
        prop::collection::vec(config, 1..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_sweep_over_mixed_line_sizes_and_pe_counts_is_each_configuration_alone(
            refs in arb_refs(),
            configs in arb_configs(),
            trace_pes in prop::sample::select(vec![1usize, 2, 4]),
            threads in 1usize..5,
        ) {
            let trace: Vec<MemRef> = refs
                .iter()
                .map(|&(pe, addr, write, object)| MemRef { pe: pe % trace_pes as u8, addr, write, object })
                .collect();
            // Every configuration has at least the PEs the trace names.
            let configs: Vec<SimConfig> = configs
                .iter()
                .map(|&(line_words, num_pes, size_words, protocol, write_allocate)| SimConfig {
                    cache: CacheConfig { size_words, line_words, write_allocate },
                    protocol,
                    num_pes: num_pes.max(trace_pes),
                })
                .collect();
            let swept = run_sweep_with_threads(&trace, &configs, threads);
            prop_assert_eq!(swept.len(), configs.len());
            for (config, result) in configs.iter().zip(&swept) {
                prop_assert_eq!(result, &simulate(config, &trace), "{:?} at {} threads", config, threads);
            }
        }
    }
}
