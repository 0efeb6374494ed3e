//! Strict N-PE rounds are pinned.
//!
//! The N-PE strict driver may skip the bookkeeping of slots that cannot act
//! and batch rounds in which only one worker runs, but nothing a caller can
//! see may move: every worker's scheduling counters, the elapsed cycles, the
//! merged trace, the fuel preemption points and the step limit.  The goldens
//! below were recorded on the round driver that gave every worker one
//! `Step` per round.
//!
//! A mismatch prints the whole observed table, paste-ready; paste it only
//! for an intentional change of the schedule.

mod common;

use common::{fold_fingerprints, state_at_preemption};
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session, SessionError};
use rapwam::trace::fingerprint;
use rapwam::{EngineError, MemoryConfig, RunResult};

fn run(id: BenchmarkId, opts: &QueryOptions) -> Result<RunResult, SessionError> {
    let b = benchmark(id, Scale::Small);
    Session::new(&b.program).unwrap().run(&b.query, opts)
}

/// One traced strict run at `Scale::Small`: `(benchmark, PEs, compiled
/// for CGE?, elapsed_cycles, trace length, trace fingerprint, per worker
/// [instructions, idle_cycles, steal_attempts, goals_stolen])`.
/// `batch_exits_budget` is left out: it counts driver re-entries, so it
/// depends on how long a slot is.
type Row = (BenchmarkId, usize, bool, u64, usize, u64, &'static [[u64; 4]]);

/// Every registry program on 2, 4 and 8 PEs compiled for CGE, and on 4 PEs
/// compiled sequentially (all work on worker 0, the others idle throughout).
#[rustfmt::skip]
const GOLDENS: &[Row] = &[
    (BenchmarkId::Deriv, 2, true, 397, 1725, 0xb43083a3afa69624, &[[338, 59, 0, 0], [325, 71, 71, 1]]),
    (BenchmarkId::Deriv, 4, true, 248, 1799, 0x17e6133e190bb124, &[[241, 7, 0, 0], [136, 111, 71, 1], [145, 102, 102, 2], [139, 108, 108, 2]]),
    (BenchmarkId::Deriv, 8, true, 195, 1938, 0xf4670690e37e34bb, &[[186, 9, 0, 0], [123, 71, 71, 1], [82, 112, 110, 2], [71, 123, 115, 1], [67, 127, 127, 3], [47, 147, 147, 4], [39, 155, 155, 1], [39, 155, 155, 1]]),
    (BenchmarkId::Deriv, 4, false, 611, 1246, 0x0aecc09ca9b6b297, &[[611, 0, 0, 0], [0, 610, 610, 0], [0, 610, 610, 0], [0, 610, 610, 0]]),
    (BenchmarkId::Tak, 2, true, 8449, 32655, 0x8b6ea28d022caba5, &[[5974, 2475, 0, 0], [8172, 276, 276, 17]]),
    (BenchmarkId::Tak, 4, true, 4660, 32751, 0x3546dce4102b38a5, &[[4660, 0, 0, 0], [1589, 3070, 585, 8], [4014, 645, 645, 14], [3875, 784, 784, 1]]),
    (BenchmarkId::Tak, 8, true, 2866, 33809, 0x6872dccc0dd16c95, &[[2096, 770, 0, 0], [888, 1977, 443, 7], [2326, 539, 530, 12], [2241, 624, 624, 1], [1215, 1650, 681, 2], [2073, 792, 792, 36], [1745, 1120, 797, 24], [1500, 1365, 768, 2]]),
    (BenchmarkId::Tak, 4, false, 12920, 23401, 0x0081ec6459cc2d01, &[[12920, 0, 0, 0], [0, 12919, 12919, 0], [0, 12919, 12919, 0], [0, 12919, 12919, 0]]),
    (BenchmarkId::Qsort, 2, true, 2738, 7258, 0x3e11f48376def7bf, &[[2738, 0, 0, 0], [1842, 895, 895, 6]]),
    (BenchmarkId::Qsort, 4, true, 2447, 7406, 0x0a34a0ac7e187616, &[[2147, 300, 0, 0], [945, 1501, 950, 4], [836, 1610, 1399, 4], [648, 1798, 1798, 6]]),
    (BenchmarkId::Qsort, 8, true, 2427, 7684, 0xdd7d26181190e1cb, &[[2147, 280, 0, 0], [870, 1556, 1033, 4], [634, 1792, 1427, 4], [465, 1961, 1845, 5], [213, 2213, 2213, 6], [184, 2242, 2242, 9], [42, 2384, 2384, 1], [7, 2419, 2419, 1]]),
    (BenchmarkId::Qsort, 4, false, 4406, 5770, 0xf8265776d86f89f2, &[[4406, 0, 0, 0], [0, 4405, 4405, 0], [0, 4405, 4405, 0], [0, 4405, 4405, 0]]),
    (BenchmarkId::Matrix, 2, true, 1616, 2502, 0x1cd1acbc3060da51, &[[611, 1005, 0, 0], [1471, 144, 144, 1]]),
    (BenchmarkId::Matrix, 4, true, 684, 2542, 0xe76cfee2cd19df0e, &[[611, 73, 0, 0], [488, 195, 144, 1], [488, 195, 166, 1], [495, 188, 188, 1]]),
    (BenchmarkId::Matrix, 8, true, 676, 2559, 0x898b306373934e49, &[[611, 65, 0, 0], [488, 187, 144, 1], [488, 187, 166, 1], [487, 188, 188, 1], [7, 668, 668, 1], [0, 675, 675, 0], [0, 675, 675, 0], [0, 675, 675, 0]]),
    (BenchmarkId::Matrix, 4, false, 2054, 2138, 0xe1498ab5117a9fdf, &[[2054, 0, 0, 0], [0, 2053, 2053, 0], [0, 2053, 2053, 0], [0, 2053, 2053, 0]]),
    (BenchmarkId::Boyer, 2, true, 4715, 17725, 0x2fc73ba6a9ecea03, &[[4567, 148, 0, 0], [1952, 2762, 2762, 4]]),
    (BenchmarkId::Boyer, 4, true, 3794, 17901, 0xe3d19df423c41fd9, &[[3738, 56, 0, 0], [1058, 2735, 2735, 3], [880, 2913, 2913, 8], [835, 2958, 2932, 3]]),
    (BenchmarkId::Boyer, 8, true, 3475, 18119, 0xddf220e316bffd42, &[[3426, 49, 0, 0], [661, 2813, 2813, 3], [503, 2971, 2971, 6], [510, 2964, 2940, 2], [443, 3031, 3031, 6], [342, 3132, 3132, 3], [302, 3172, 3172, 4], [310, 3164, 3164, 3]]),
    (BenchmarkId::Boyer, 4, false, 6137, 14367, 0x8525e2fed81f67e8, &[[6137, 0, 0, 0], [0, 6136, 6136, 0], [0, 6136, 6136, 0], [0, 6136, 6136, 0]]),
    (BenchmarkId::Queens, 2, true, 2839, 9151, 0x8f617df73df406c8, &[[2570, 268, 104, 7], [917, 1921, 1887, 14]]),
    (BenchmarkId::Queens, 4, true, 2618, 11675, 0xffbab6213f70709f, &[[2371, 243, 236, 6], [793, 1822, 1807, 17], [643, 1973, 1950, 15], [484, 2130, 2124, 12]]),
    (BenchmarkId::Queens, 8, true, 2618, 11734, 0x06effeabd0a34ae7, &[[2229, 389, 382, 0], [677, 1940, 1934, 11], [622, 1994, 1989, 11], [447, 2167, 2161, 11], [257, 2354, 2354, 11], [55, 2562, 2562, 11], [0, 2617, 2617, 0], [0, 2617, 2617, 0]]),
    (BenchmarkId::Queens, 4, false, 2489, 5746, 0xb0537868f8f30837, &[[2489, 0, 0, 0], [0, 2488, 2488, 0], [0, 2488, 2488, 0], [0, 2488, 2488, 0]]),
    (BenchmarkId::Fib, 2, true, 6311, 24504, 0x32fe3032bc67c83c, &[[3956, 2355, 0, 0], [6262, 48, 48, 2]]),
    (BenchmarkId::Fib, 4, true, 3040, 24771, 0x993941430678d29a, &[[2488, 552, 0, 0], [2049, 990, 92, 5], [2805, 234, 83, 4], [2865, 174, 169, 8]]),
    (BenchmarkId::Fib, 8, true, 1547, 25183, 0x78d9264d1fdfa66b, &[[1480, 67, 0, 0], [1466, 80, 80, 6], [1351, 195, 188, 10], [1046, 500, 171, 4], [1309, 237, 121, 9], [1374, 172, 172, 6], [1238, 308, 206, 3], [923, 623, 198, 2]]),
    (BenchmarkId::Fib, 4, false, 8595, 15795, 0xf3649d7eeb8bab21, &[[8595, 0, 0, 0], [0, 8594, 8594, 0], [0, 8594, 8594, 0], [0, 8594, 8594, 0]]),
];

fn observe(id: BenchmarkId, pes: usize, parallel: bool) -> Row {
    let opts = QueryOptions { parallel, ..QueryOptions::parallel(pes).with_trace() };
    let result = run(id, &opts).unwrap();
    assert!(result.outcome.is_success(), "{} on {pes} PEs", id.name());
    let trace = result.trace.expect("trace requested");
    let workers: Vec<[u64; 4]> = result
        .stats
        .workers
        .iter()
        .map(|w| [w.instructions, w.idle_cycles, w.steal_attempts, w.goals_stolen])
        .collect();
    (id, pes, parallel, result.stats.elapsed_cycles, trace.len(), fingerprint(&trace), Vec::leak(workers))
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from("const GOLDENS: &[Row] = &[\n");
    for (id, pes, parallel, cycles, len, fp, workers) in rows {
        let workers: Vec<String> =
            workers.iter().map(|w| format!("[{}, {}, {}, {}]", w[0], w[1], w[2], w[3])).collect();
        out += &format!(
            "    (BenchmarkId::{id:?}, {pes}, {parallel}, {cycles}, {len}, {fp:#018x}, &[{}]),\n",
            workers.join(", ")
        );
    }
    out + "];\n"
}

#[test]
fn n_pe_counters_cycles_and_traces_match_the_round_driver() {
    let mut observed = Vec::new();
    for id in BenchmarkId::EXTENDED {
        for pes in [2, 4, 8] {
            observed.push(observe(id, pes, true));
        }
        observed.push(observe(id, 4, false));
    }
    assert!(
        observed.as_slice() == GOLDENS,
        "the strict N-PE schedule moved; observed:\n{}",
        render(&observed)
    );
}

/// Per program: the fold of `(machine fingerprint, instructions retired)`
/// at the first preemption under every fuel of the sweep, on 4 PEs.
const FUEL_GOLDENS: [(BenchmarkId, u64); 2] =
    [(BenchmarkId::Deriv, 10633599641494625118), (BenchmarkId::Matrix, 5476251652837789595)];

#[test]
fn n_pe_fuel_preempts_at_the_same_round() {
    let mut observed = Vec::new();
    for (id, _) in FUEL_GOLDENS {
        let b = benchmark(id, Scale::Small);
        let states = (1..=400).step_by(7).map(|k| {
            let opts = QueryOptions::parallel(4).with_fuel(k).with_memory(MemoryConfig::small());
            let (fp, retired) = state_at_preemption(&b.program, &b.query, &opts, 1);
            assert!(retired >= k, "{}: fuel {k} preempted after {retired}", id.name());
            fp ^ retired.rotate_left(32)
        });
        observed.push((id, fold_fingerprints(states)));
    }
    assert_eq!(observed, FUEL_GOLDENS, "an N-PE preemption point moved");
}

#[test]
fn n_pe_step_limit_fires_at_the_same_instruction() {
    for id in BenchmarkId::EXTENDED {
        for pes in [2, 4] {
            let total = run(id, &QueryOptions::parallel(pes)).unwrap().stats.instructions;
            for k in [1, 97, total - 1] {
                let limited = QueryOptions { max_steps: k, ..QueryOptions::parallel(pes) };
                match run(id, &limited) {
                    Err(SessionError::Engine(EngineError::StepLimitExceeded { limit })) => {
                        assert_eq!(limit, k)
                    }
                    other => panic!("{} on {pes} PEs: max_steps {k} gave {other:?}", id.name()),
                }
            }
            let exact = QueryOptions { max_steps: total, ..QueryOptions::parallel(pes) };
            assert!(run(id, &exact).unwrap().outcome.is_success(), "{} on {pes} PEs", id.name());
        }
    }
}
