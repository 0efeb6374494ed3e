//! Parallel parameter sweeps.
//!
//! Regenerating Figure 4 means simulating every (protocol × cache size ×
//! PE count) combination over four benchmark traces.  Each configuration is
//! an independent simulation over the same trace, so the sweep decodes the
//! trace once per line size among the configurations — into the packed
//! stream of `multisim`, lines numbered and no-op reads dropped — and
//! shares the streams read-only with scoped OS threads.  The calling thread
//! is one of them: it decodes the streams, chunk after chunk, while the
//! others already replay the chunks decoded so far, and then joins them.
//! So decoding, the one serial step, overlaps the replays instead of
//! preceding them.  The threads claim configurations from one atomic index
//! and hand their results back through their join handles.

use crate::config::SimConfig;
use crate::multisim::{replay, Stream};
use crate::results::SimResult;
use rapwam::MemRef;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run every configuration over the same trace, in parallel, preserving the
/// order of `configs` in the returned vector.
pub fn run_sweep(trace: &[MemRef], configs: &[SimConfig]) -> Vec<SimResult> {
    run_sweep_with_threads(trace, configs, num_threads())
}

/// As [`run_sweep`] but with an explicit thread count, the calling thread
/// included (used by the scaling benchmark).
pub fn run_sweep_with_threads(trace: &[MemRef], configs: &[SimConfig], threads: usize) -> Vec<SimResult> {
    let mut streams: Vec<Stream> = Vec::new();
    for c in configs {
        let line_words = c.cache.line_words;
        if !streams.iter().any(|s| s.line_words == line_words) {
            streams.push(Stream::new(trace.len(), line_words));
        }
    }
    let decode = || {
        // A decoder that unwinds leaves no replay waiting for a chunk.
        struct Abandon<'a>(&'a [Stream]);
        impl Drop for Abandon<'_> {
            fn drop(&mut self) {
                self.0.iter().for_each(Stream::abandon);
            }
        }
        let _abandon = Abandon(&streams);
        streams.iter().for_each(|stream| stream.decode(trace));
    };
    let run = |i: usize| {
        let config = &configs[i];
        let stream =
            streams.iter().find(|s| s.line_words == config.cache.line_words).expect("one per line size");
        replay(config, stream)
    };

    let threads = threads.max(1).min(configs.len().max(1));
    if threads == 1 {
        decode();
        return (0..configs.len()).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        // Relaxed: the index only hands out work; the results come back
        // through `join`, which synchronises.
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < configs.len());
        std::iter::from_fn(claim).map(|i| (i, run(i))).collect::<Vec<_>>()
    };
    let mut done: Vec<(usize, SimResult)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        decode();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("a sweep thread panicked"));
        }
        done
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
    use crate::multisim::{simulate, simulate_unfiltered};
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
    #[should_panic]
    fn a_decoder_that_panics_fails_the_sweep_instead_of_hanging_it() {
        // Zero-word lines divide by zero: the zero-word configuration
        // panics in its replay, the calling thread panics decoding its
        // stream, and the thread that claims a four-word configuration
        // waits for a chunk that was to be decoded next.
        let configs: Vec<SimConfig> = [0, 4, 4]
            .into_iter()
            .map(|line_words| SimConfig {
                cache: CacheConfig { size_words: 64, line_words, write_allocate: true },
                protocol: Protocol::WriteInBroadcast,
                num_pes: 2,
            })
            .collect();
        run_sweep_with_threads(&synthetic_trace(1_000), &configs, 3);
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

    /// `(pe, addr, reads, object, interloper)`: `reads` reads by `pe` of
    /// the words of `addr`'s four-word line, and — when `interloper` is
    /// `Some((other, after, write))` — one reference by PE `other` to that
    /// line after the `after`-th read.  Runs of same-PE, same-line reads are
    /// what the packed stream drops; the interloper's writes are what must
    /// stop it.
    type Burst = (u8, u32, u32, ObjectKind, Option<(u8, u32, bool)>);

    fn arb_bursts() -> impl Strategy<Value = Vec<Burst>> {
        let flag = || prop::sample::select(vec![false, true]);
        let interloper = (flag(), 0u8..8, 0u32..6, flag())
            .prop_map(|(on, other, after, write)| on.then_some((other, after, write)));
        let object = prop::sample::select(ObjectKind::ALL.to_vec());
        prop::collection::vec((0u8..8, 0u32..300, 1u32..6, object, interloper), 0..300)
    }

    /// The trace of `bursts` on `pes` PEs.
    fn burst_trace(bursts: &[Burst], pes: usize) -> Vec<MemRef> {
        let mut trace = Vec::new();
        for &(pe, addr, reads, object, interloper) in bursts {
            let (pe, line) = (pe % pes as u8, addr / 4 * 4);
            for k in 0..reads {
                trace.push(MemRef { pe, addr: line + (addr + k) % 4, write: false, object });
                if let Some((other, after, write)) = interloper.filter(|i| i.1 == k) {
                    let other = other % pes as u8;
                    trace.push(MemRef { pe: other, addr: line + after % 4, write, object });
                }
            }
        }
        trace
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

        #[test]
        fn dropping_repeated_reads_changes_no_result(
            bursts in arb_bursts(),
            configs in arb_configs(),
            pes in 1usize..9,
            threads in 1usize..4,
        ) {
            let trace = burst_trace(&bursts, pes);
            let configs: Vec<SimConfig> = configs
                .iter()
                .map(|&(line_words, _, size_words, protocol, write_allocate)| SimConfig {
                    cache: CacheConfig { size_words, line_words, write_allocate },
                    protocol,
                    num_pes: pes,
                })
                .collect();
            let swept = run_sweep_with_threads(&trace, &configs, threads);
            for (config, result) in configs.iter().zip(&swept) {
                prop_assert_eq!(result, &simulate_unfiltered(config, &trace), "{:?}", config);
            }
        }
    }
}
