//! Regenerate every recorded golden of the reference stream, paste-ready:
//!
//! 1. `REGISTRY_GOLDENS` of `crates/benchmarks/tests/scheduler_differential.rs`
//!    — the seven registry programs × 1/2/4/8 interleaved PEs;
//! 2. `CASE_GOLDENS` of `crates/core/tests/oracle_differential.rs` — the
//!    fixed generator cases, first-answer run and drained stream;
//! 3. `FUEL_SWEEP_GOLDENS` of `crates/core/tests/slot_batching.rs` and
//!    `PREEMPTION_GOLDENS` of `crates/core/tests/fuel_differential.rs` — the
//!    machine state at fuel preemptions.
//!
//! The inputs are the constants the suites themselves iterate
//! (`crates/core/tests/common/cases.rs` is included below), so a row printed
//! here is the row its test computes.
//!
//! Run after an *intentional* change to the reference stream (compilation
//! scheme, frame layouts, protocol reads/writes), and paste only once the
//! change's semantics are validated by what does not depend on these rows:
//! the oracle suites (`oracle_differential`, `resumable_differential`,
//! `parcall_cancel_properties`, `scheduler_differential`'s
//! `oracle_agrees_with_the_registry`) and `overhead_gate` must be green
//! first.
//!
//! ```text
//! cargo run --release --example trace_goldens
//! ```

#[path = "../crates/core/tests/common/cases.rs"]
mod cases;

use cases::*;
use pwam_benchmarks::{benchmark, run_benchmark_with_session, BenchmarkId, Scale};
use rapwam::session::QueryOptions;
use rapwam::MemoryConfig;

/// The PE counts `REGISTRY_GOLDENS` covers.
const REGISTRY_WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    println!("// scheduler_differential.rs: REGISTRY_GOLDENS");
    println!("// (benchmark, workers, instructions, data_refs, trace length, fingerprint)");
    for id in BenchmarkId::EXTENDED {
        for workers in REGISTRY_WORKERS {
            let row = |classic: bool| {
                let b = benchmark(id, Scale::Small);
                let o = QueryOptions { classic_dispatch: classic, ..QueryOptions::parallel(workers).with_trace() };
                let (_, r) = run_benchmark_with_session(&b, &o).expect("benchmark runs");
                pin(&r.stats, &r.trace.expect("trace requested"))
            };
            let (instructions, data_refs, len, fp) = row(false);
            assert_eq!(row(true), (instructions, data_refs, len, fp), "{id:?} x {workers}: classic disagrees");
            println!("(BenchmarkId::{id:?}, {workers}, {instructions}, {data_refs}, {len}, {fp:#018x}),");
        }
    }

    println!("\n// oracle_differential.rs: CASE_GOLDENS");
    println!("// ((instructions, data_refs, trace length, fingerprint) of the first-answer run, of the stream)");
    let show = |(instructions, data_refs, len, fp): Pin| format!("({instructions}, {data_refs}, {len}, {fp:#018x})");
    for c in golden_cases() {
        assert_eq!(first_answer_pin(&c, true), first_answer_pin(&c, false), "{c:?}: classic disagrees");
        assert_eq!(stream_pin(&c, true), stream_pin(&c, false), "{c:?}: classic disagrees on the stream");
        println!("({}, {}),", show(first_answer_pin(&c, false)), show(stream_pin(&c, false)));
    }

    println!("\n// slot_batching.rs: FUEL_SWEEP_GOLDENS");
    println!("// fold of the machine fingerprints over FUEL_SWEEP, in FUEL_SWEEP_PROGRAMS order");
    for id in FUEL_SWEEP_PROGRAMS {
        let b = benchmark(id, Scale::Small);
        let sweep = |classic: bool| {
            fold_fingerprints(FUEL_SWEEP.map(|k| {
                let opts = QueryOptions { classic_dispatch: classic, ..QueryOptions::parallel(1) }
                    .with_fuel(k)
                    .with_memory(MemoryConfig::small());
                state_at_preemption(&b.program, &b.query, &opts, 1).0
            }))
        };
        assert_eq!(sweep(true), sweep(false), "{id:?}: classic disagrees");
        println!("{:#018x}, // {id:?}", sweep(false));
    }

    println!("\n// fuel_differential.rs: PREEMPTION_GOLDENS");
    println!("// [(fingerprint, instructions) at preemption 1, at preemption 3], in FUEL_PROGRAMS order");
    for (program, query, workers) in FUEL_PROGRAMS {
        let at = |n: usize, classic: bool| {
            let opts = QueryOptions { classic_dispatch: classic, ..QueryOptions::parallel(workers) };
            state_at_preemption(program, query, &opts.with_fuel(PREEMPTION_FUEL), n)
        };
        let rows: Vec<String> = PREEMPTIONS
            .iter()
            .map(|&n| {
                let (fp, steps) = at(n, false);
                assert_eq!(at(n, true), (fp, steps), "{query}: classic disagrees at preemption {n}");
                format!("({fp:#018x}, {steps})")
            })
            .collect();
        println!("[{}],", rows.join(", "));
    }
}
