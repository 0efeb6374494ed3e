//! Run-to-event slots are unobservable.
//!
//! A one-PE engine's running worker executes up to the next
//! scheduling-relevant event per slot instead of one instruction.  Nothing
//! a caller can see may move: the goldens below were
//! recorded on the instruction-at-a-time driver this replaced (the fuel-sweep
//! folds later, while a second dispatch loop still reproduced them).

mod common;

use common::{fold_fingerprints, state_at_preemption, FUEL_SWEEP, FUEL_SWEEP_PROGRAMS};
use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session, SessionError};
use rapwam::trace::fingerprint;
use rapwam::{EngineError, MemoryConfig, RunResult};

fn run(id: BenchmarkId, opts: &QueryOptions) -> Result<RunResult, SessionError> {
    let b = benchmark(id, Scale::Small);
    Session::new(&b.program).unwrap().run(&b.query, opts)
}

/// (benchmark, instructions, data_refs, elapsed_cycles) of a one-PE run at
/// `Scale::Small`.
const ONE_PE_GOLDENS: [(BenchmarkId, u64, u64, u64); 7] = [
    (BenchmarkId::Deriv, 663, 1705, 663),
    (BenchmarkId::Tak, 14160, 32357, 14160),
    (BenchmarkId::Qsort, 4586, 7156, 4586),
    (BenchmarkId::Matrix, 2082, 2482, 2082),
    (BenchmarkId::Boyer, 6522, 17654, 6522),
    (BenchmarkId::Queens, 2578, 6399, 2578),
    (BenchmarkId::Fib, 10219, 24467, 10219),
];

#[test]
fn one_pe_counters_match_the_per_instruction_driver() {
    for (id, instructions, data_refs, elapsed_cycles) in ONE_PE_GOLDENS {
        let stats = run(id, &QueryOptions::parallel(1)).unwrap().stats;
        let what = id.name();
        assert_eq!(stats.instructions, instructions, "{what}: instructions");
        assert_eq!(stats.data_refs, data_refs, "{what}: data_refs");
        assert_eq!(stats.elapsed_cycles, elapsed_cycles, "{what}: elapsed_cycles");
        // One PE: every cycle is an instruction or an idle/waiting slot.
        let idle: u64 = stats.workers.iter().map(|w| w.idle_cycles).sum();
        assert_eq!(stats.elapsed_cycles, stats.instructions + idle, "{what}: cycle accounting");
    }
}

/// Per program of `FUEL_SWEEP_PROGRAMS`: the fold of the machine
/// fingerprints at the first preemption under every fuel of `FUEL_SWEEP`, on
/// one PE.  Regenerate with `cargo run --release --example trace_goldens`.
const FUEL_SWEEP_GOLDENS: [u64; 2] = [0x95455d7f9a650a92, 0x881fade52f8f4b11];

#[test]
fn fuel_preempts_after_exactly_k_instructions() {
    for (id, golden) in FUEL_SWEEP_PROGRAMS.into_iter().zip(FUEL_SWEEP_GOLDENS) {
        let b = benchmark(id, Scale::Small);
        let states = FUEL_SWEEP.map(|k| {
            // At most 300 instructions run, so the smallest arenas do
            // (and keep the engine builds cheap).
            let opts = QueryOptions::parallel(1).with_fuel(k).with_memory(MemoryConfig::small());
            let (fp, retired) = state_at_preemption(&b.program, &b.query, &opts, 1);
            assert_eq!(retired, k, "{}: fuel {k} preempted late or early", id.name());
            fp
        });
        assert_eq!(fold_fingerprints(states), golden, "{}: a machine state diverged", id.name());
    }
}

#[test]
fn step_limit_fires_at_the_same_instruction() {
    // The limit is enforced when a round closes with `steps > max_steps`,
    // so the failing run has retired exactly `max_steps + 1` instructions.
    // The engine is lost with the error, so pin the boundary from both
    // sides instead: `total - 1` is exceeded, `total` is not.
    for (id, total, _, _) in ONE_PE_GOLDENS {
        for k in [1, 97, total - 1] {
            let limited = QueryOptions { max_steps: k, ..QueryOptions::parallel(1) };
            match run(id, &limited) {
                Err(SessionError::Engine(EngineError::StepLimitExceeded { limit })) => {
                    assert_eq!(limit, k)
                }
                other => panic!("{}: max_steps {k} gave {other:?}", id.name()),
            }
        }
        let exact = QueryOptions { max_steps: total, ..QueryOptions::parallel(1) };
        assert!(run(id, &exact).unwrap().outcome.is_success(), "{}", id.name());
    }
}

#[test]
fn two_pe_trace_with_steals_is_unchanged() {
    // (benchmark, trace length, fingerprint) on two PEs; steals happen, so
    // the per-board steal count is on the path.
    let goldens: [(BenchmarkId, usize, u64); 2] =
        [(BenchmarkId::Deriv, 1725, 0xb43083a3afa69624), (BenchmarkId::Fib, 24504, 0x32fe3032bc67c83c)];
    for (id, len, fp) in goldens {
        let result = run(id, &QueryOptions::parallel(2).with_trace()).unwrap();
        let trace = result.trace.expect("trace requested");
        let what = id.name();
        let stolen: u64 = result.stats.workers.iter().map(|w| w.goals_stolen).sum();
        let notices: u64 = result.stats.workers.iter().map(|w| w.steal_notices).sum();
        assert!(stolen > 0, "{what}: no steal occurred");
        assert_eq!(notices, stolen, "{what}: every steal must reach its victim's books");
        // With two PEs the victim of a steal is the other one.
        let pes = &result.stats.workers;
        assert_eq!(pes[0].steal_notices, pes[1].goals_stolen, "{what}: PE 0 as victim");
        assert_eq!(pes[1].steal_notices, pes[0].goals_stolen, "{what}: PE 1 as victim");
        assert_eq!(trace.len(), len, "{what}: trace length");
        assert_eq!(fingerprint(&trace), fp, "{what}: trace fingerprint");
    }
}
