//! The MLIPS (raw instruction-throughput) regression gate for the
//! dispatch loop's owner path.
//!
//! The gate is self-calibrating: it measures the *same* benchmark on the
//! *same* machine through the same executor twice — with `with_trace()`,
//! where every reference is recorded in its arena's book and appended to the
//! trace, and untraced, where a PE's references to its own Stack Set take the
//! unrecorded owner path with batched accounting — and asserts the
//! untraced/traced speedup floor per benchmark.  Absolute MIPS numbers vary
//! by host; the ratio does not (in-process, best-of-N, the legs alternating
//! attempt by attempt).
//!
//! The CI `mlips-gate` job runs the release `mlips_throughput` binary on
//! the full suite and uploads `BENCH_mlips.json`; this test enforces the
//! same floors in the ordinary test run on a reduced benchmark set so an
//! owner-path regression fails `cargo test` too.

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
    // The headline pair (tak and deriv), one guard benchmark (qsort), and
    // the goal-transition-heavy pair (queens and fib — dominated by
    // goal-finish/pickup boundaries, so they gate the driver-free
    // transitions specifically).  Paper scale: the runs are still only a
    // few milliseconds each, and the smallest scale is too short for the
    // speedup to converge (the fixed engine set-up cost dilutes the
    // dispatch-loop gain).  The CI job runs the full extended suite.
    let mut below = Vec::new();
    for id in
        [BenchmarkId::Deriv, BenchmarkId::Tak, BenchmarkId::Qsort, BenchmarkId::Queens, BenchmarkId::Fib]
    {
        let c = compare_dispatch_paths(id, Scale::Paper, 6);
        println!(
            "{:>6}: {:>8} instrs, traced {:>7.2} MIPS -> flat {:>7.2} MIPS, speedup {:.3} (floor {:.2})",
            id.name(),
            c.instructions,
            c.traced_mips,
            c.flat_mips,
            c.speedup,
            c.floor,
        );
        if c.speedup < c.floor {
            below.push(format!("{} {:.3} < {:.2}", id.name(), c.speedup, c.floor));
        }
    }
    assert!(
        below.is_empty(),
        "untraced-over-traced speedup fell below the gate — the owner path regressed: {}",
        below.join(", ")
    );
}

/// The headline floors the ISSUE pins explicitly, asserted by name so a
/// floor edit cannot quietly weaken them.
#[test]
fn headline_floors_are_the_issues() {
    assert!(mlips_speedup_floor(BenchmarkId::Tak) >= 1.3);
    assert!(mlips_speedup_floor(BenchmarkId::Deriv) >= 1.3);
}
