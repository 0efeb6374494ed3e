//! The MLIPS (raw instruction-throughput) regression gate for the
//! dispatch loop and its memory references.
//!
//! The gate is self-calibrating: it measures the *same* benchmark on the
//! *same* machine through the same executor twice — with `with_trace()`,
//! where every reference also claims a sequence number and is pushed onto its
//! PE's trace buffer, and untraced — and asserts the untraced/traced speedup
//! floor of every benchmark that has one.  Absolute MIPS numbers vary by
//! host; the ratio varies less (in-process, best-of-N, the legs alternating
//! attempt by attempt), and `mlips_speedup_floor` documents on which
//! programs it still tells a healthy tree from one whose references got
//! dearer.
//!
//! The CI `mlips-gate` job runs the release `mlips_throughput` binary on
//! the full suite and uploads `BENCH_mlips.json`; this test enforces the
//! floors in the ordinary test run so a reference-cost regression fails
//! `cargo test` too.

use pwam_benchmarks::mlips::{compare_dispatch_paths, mlips_speedup_floor};
use pwam_benchmarks::{BenchmarkId, Scale};

#[test]
fn flat_dispatch_meets_per_benchmark_floors() {
    if cfg!(debug_assertions) {
        // The floors are properties of the *optimised* executor — without
        // inlining the per-opcode handlers the ratio measures nothing.
        // Debug runs still exercise the harness through the unit tests in
        // `pwam_benchmarks::mlips`; the floors are enforced by release
        // test runs and the CI `mlips-gate` job.
        eprintln!("skipping MLIPS floors in a debug build");
        return;
    }
    // Every program that has a floor (boyer, and fib — dominated by
    // goal-finish/pickup boundaries, so it gates the driver-free transitions
    // too).  Paper scale: the runs are still only a few milliseconds each,
    // and the smallest scale is too short for the speedup to converge (the
    // fixed engine set-up cost dilutes the dispatch-loop gain).  The CI job
    // records the full extended suite.
    let mut below = Vec::new();
    for id in BenchmarkId::EXTENDED {
        let Some(floor) = mlips_speedup_floor(id) else { continue };
        let c = compare_dispatch_paths(id, Scale::Paper, 6);
        println!(
            "{:>6}: {:>8} instrs, traced {:>7.2} MIPS -> flat {:>7.2} MIPS, speedup {:.3} (floor {floor:.2})",
            id.name(),
            c.instructions,
            c.traced_mips,
            c.flat_mips,
            c.speedup,
        );
        if c.speedup < floor {
            below.push(format!("{} {:.3} < {floor:.2}", id.name(), c.speedup));
        }
    }
    assert!(
        below.is_empty(),
        "untraced-over-traced speedup fell below the gate — an untraced reference got dearer: {}",
        below.join(", ")
    );
}

/// The floors ISSUE 22 re-derived, asserted by name so a floor edit cannot
/// quietly weaken them.
#[test]
fn headline_floors_are_the_issues() {
    assert_eq!(mlips_speedup_floor(BenchmarkId::Boyer), Some(1.7));
    assert_eq!(mlips_speedup_floor(BenchmarkId::Fib), Some(1.7));
}
