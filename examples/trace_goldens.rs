//! Regenerate every recorded golden of the reference stream, paste-ready:
//!
//! 1. `REGISTRY_GOLDENS` of `crates/benchmarks/tests/scheduler_differential.rs`
//!    — the seven registry programs × 1/2/4/8 interleaved PEs;
//! 2. `CASE_GOLDENS` of `crates/core/tests/oracle_differential.rs` — the
//!    fixed generator cases, first-answer run and drained stream;
//! 3. `FUEL_SWEEP_GOLDENS` of `crates/core/tests/slot_batching.rs` and
//!    `PREEMPTION_GOLDENS` of `crates/core/tests/fuel_differential.rs` — the
//!    machine state at fuel preemptions;
//! 4. `SIM_GOLDENS` of `crates/cachesim/tests/determinism.rs` — the cache
//!    simulator's counters over the paper's four traces (4 PEs, 4 protocols,
//!    3 cache sizes under `paper_policy`);
//! 5. `SWEEP_GOLDENS` of the same file — every counter of the benchmark's
//!    `trace-sim` sweep (4 protocols × 512 and 2048 words) over the four
//!    `Scale::Paper` traces.
//!
//! The inputs are the constants the suites themselves iterate
//! (`crates/core/tests/common/cases.rs` and `crates/cachesim/tests/common/mod.rs`
//! are included below), so a row printed here is the row its test computes.
//!
//! Run after an *intentional* change to the reference stream (compilation
//! scheme, frame layouts, protocol reads/writes), and paste only once the
//! change's semantics are validated by what does not depend on these rows:
//! the oracle suites (`oracle_differential`, `resumable_differential`,
//! `parcall_cancel_properties`, `scheduler_differential`'s
//! `oracle_agrees_with_the_registry`) and `overhead_gate` must be green
//! first.  The rows in the tree today were printed at commit `71321df`, where
//! a second executor (the classic dispatch loop, deleted right after) was
//! still asserted to reproduce each of them; the `SIM_GOLDENS` rows at commit
//! `7f4f4c9`, by the stamp-and-scan LRU the recency list then replaced; the
//! `SWEEP_GOLDENS` rows while each cache still found a line through a hash
//! map keyed by its address, before traces were numbered.
//!
//! ```text
//! cargo run --release --example trace_goldens
//! ```

#[path = "../crates/core/tests/common/cases.rs"]
mod cases;
#[path = "../crates/cachesim/tests/common/mod.rs"]
mod sim;

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
            let b = benchmark(id, Scale::Small);
            let (_, r) = run_benchmark_with_session(&b, &QueryOptions::parallel(workers).with_trace())
                .expect("benchmark runs");
            let (instructions, data_refs, len, fp) = pin(&r.stats, &r.trace.expect("trace requested"));
            println!("(BenchmarkId::{id:?}, {workers}, {instructions}, {data_refs}, {len}, {fp:#018x}),");
        }
    }

    println!("\n// oracle_differential.rs: CASE_GOLDENS");
    println!(
        "// ((instructions, data_refs, trace length, fingerprint) of the first-answer run, of the stream)"
    );
    let show =
        |(instructions, data_refs, len, fp): Pin| format!("({instructions}, {data_refs}, {len}, {fp:#018x})");
    for c in golden_cases() {
        println!("({}, {}),", show(first_answer_pin(&c)), show(stream_pin(&c)));
    }

    println!("\n// slot_batching.rs: FUEL_SWEEP_GOLDENS");
    println!("// fold of the machine fingerprints over FUEL_SWEEP, in FUEL_SWEEP_PROGRAMS order");
    for id in FUEL_SWEEP_PROGRAMS {
        let b = benchmark(id, Scale::Small);
        let sweep = fold_fingerprints(FUEL_SWEEP.map(|k| {
            let opts = QueryOptions::parallel(1).with_fuel(k).with_memory(MemoryConfig::small());
            state_at_preemption(&b.program, &b.query, &opts, 1).0
        }));
        println!("{sweep:#018x}, // {id:?}");
    }

    println!("\n// fuel_differential.rs: PREEMPTION_GOLDENS");
    println!("// [(fingerprint, instructions) at preemption 1, at preemption 3], in FUEL_PROGRAMS order");
    for (program, query, workers) in FUEL_PROGRAMS {
        let opts = QueryOptions::parallel(workers).with_fuel(PREEMPTION_FUEL);
        let rows: Vec<String> = PREEMPTIONS
            .iter()
            .map(|&n| {
                let (fp, steps) = state_at_preemption(program, query, &opts, n);
                format!("({fp:#018x}, {steps})")
            })
            .collect();
        println!("[{}],", rows.join(", "));
    }

    println!("\n// determinism.rs: SIM_GOLDENS");
    println!("// (benchmark, protocol, cache words, [refs, read_misses, write_misses, bus_words,");
    println!("//   bus_transactions, write_backs, invalidations, updates])");
    for (id, protocol, size, counts) in sim::sim_rows() {
        println!("(BenchmarkId::{id:?}, Protocol::{protocol:?}, {size}, {counts:?}),");
    }

    println!("\n// determinism.rs: SWEEP_GOLDENS");
    println!("// (benchmark, protocol, cache words, [refs, reads, writes, read_misses, write_misses,");
    println!("//   bus_words, bus_transactions, invalidations, copies_invalidated, updates,");
    println!("//   write_backs, line_fetches, write_through_words])");
    for (id, protocol, size, counts) in sim::sweep_rows(|_, _, _| {}) {
        println!("(BenchmarkId::{id:?}, Protocol::{protocol:?}, {size}, {counts:?}),");
    }
}
