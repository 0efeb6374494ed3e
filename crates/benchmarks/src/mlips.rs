//! MLIPS throughput harness: raw abstract-machine instructions per second.
//!
//! The overhead gate ([`crate::overhead`]) pins *instruction counts* — how
//! much work the RAP-WAM does relative to the sequential WAM.  This module
//! measures the orthogonal quantity: how fast the host executor retires
//! those instructions.  [`measure_mlips`] runs one registry benchmark on
//! the interleaved backend ([`mlips_workers`] PEs; default one, CI also
//! gates two), times the engine run (compilation and engine construction
//! excluded), and reports millions of instructions per second over the
//! best of `runs` attempts.
//!
//! Because wall-clock throughput is machine-dependent, the regression gate
//! (`mlips_gate` integration test) does not pin absolute numbers.  Instead
//! it measures the flattened executor *and* the classic pre-flattening
//! dispatch path ([`rapwam::session::QueryOptions::classic_dispatch`]) on
//! the same machine in the same process, and gates the ratio: the dense
//! pre-decoded fast path must stay at least [`mlips_speedup_floor`] times
//! faster than the baseline per benchmark.  The measured values are
//! recorded in `BENCH_mlips.json` at the repository root so the raw-speed
//! trajectory is visible across PRs.

use crate::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session};
use rapwam::{Engine, Outcome};
use serde::Serialize;
use std::time::Instant;

/// The worker count the MLIPS harness runs at: `PWAM_MLIPS_THREADS`,
/// default 1.  The backend is always the interleaved one, so flat and
/// classic retire the *same* instruction stream and the speedup ratio stays
/// meaningful.
///
/// CI runs the default 1-PE leg and a 2-PE leg: the latter exercises the
/// flat loop's driver-free goal transitions and park/steal cold exits,
/// where quantum boundaries and cross-PE handoffs actually occur.
pub fn mlips_workers() -> usize {
    std::env::var("PWAM_MLIPS_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(1).max(1)
}

/// Throughput of one benchmark on the interleaved backend.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MlipsReport {
    pub id: BenchmarkId,
    pub scale: Scale,
    /// Whether the run used the classic (pre-flattening) dispatch path.
    pub classic_dispatch: bool,
    /// Abstract-machine instructions executed by one run.
    pub instructions: u64,
    /// Best wall-clock engine time over all attempts, in seconds.
    pub best_secs: f64,
    /// Number of timed attempts.
    pub runs: usize,
}

impl MlipsReport {
    /// Millions of abstract-machine instructions retired per second.
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.best_secs / 1e6
    }
}

/// Time `id` at `scale` on [`mlips_workers`] interleaved PEs and report the
/// best-of-`runs` throughput.  Only the engine run is timed: compilation is
/// cached by the session, and the attempts share one engine, reset between
/// them outside the clock.  Arenas are allocated as untouched zero pages, so
/// the first attempt pays the kernel's page faults for every page the program
/// reaches; from the second on the Stack Sets are warm and the clock sees the
/// dispatch loop alone, which is what best-of-`runs` then reports.
pub fn measure_mlips(id: BenchmarkId, scale: Scale, runs: usize, classic_dispatch: bool) -> MlipsReport {
    let bench = benchmark(id, scale);
    let mut session =
        Session::new(&bench.program).unwrap_or_else(|e| panic!("{}: parse failed: {e}", id.name()));
    let workers = mlips_workers();
    let options = QueryOptions { classic_dispatch, ..QueryOptions::parallel(workers) };
    let compiled = session
        .prepare_with(&bench.query, options.compile_options())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", id.name()));
    let mut config = options.engine_config();
    // One PE runs the default configuration: its slots already run to the
    // next scheduling event.  With several PEs the default quantum of 1
    // would measure the round driver's per-instruction handoff, not the
    // dispatch loop; a large quantum lets both paths run their batch loop
    // properly.  Applied to the classic path too, so the comparison stays
    // entry-for-entry fair.
    if workers > 1 {
        config.quantum = 4096;
    }

    let runs = runs.max(1);
    let mut best_secs = f64::INFINITY;
    let mut instructions = 0;
    let mut engine = Engine::new(&compiled, config);
    for _ in 0..runs {
        let start = Instant::now();
        let (result, finished) = engine
            .run_reusable(session.symbols())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", id.name()));
        let secs = start.elapsed().as_secs_f64();
        assert!(matches!(result.outcome, Outcome::Success(_)), "{}: benchmark query failed", id.name());
        instructions = result.stats.instructions;
        best_secs = best_secs.min(secs.max(1e-9));
        engine = finished;
        engine.reset();
    }
    MlipsReport { id, scale, classic_dispatch, instructions, best_secs, runs }
}

/// One benchmark's entry in `BENCH_mlips.json`: the flattened fast path
/// against the classic dispatch baseline, measured back to back on the same
/// machine.
#[derive(Debug, Clone, Serialize)]
pub struct MlipsComparison {
    pub id: BenchmarkId,
    pub scale: Scale,
    pub instructions: u64,
    /// MIPS through the classic (pre-flattening) dispatch path.
    pub classic_mips: f64,
    /// MIPS through the flattened (dense pre-decoded) fast path.
    pub flat_mips: f64,
    /// `flat_mips / classic_mips` — the gated quantity.
    pub speedup: f64,
    /// The per-benchmark floor the gate enforces on `speedup`.
    pub floor: f64,
    /// Worker count of the run.
    pub workers: usize,
}

/// Measure one benchmark through both dispatch paths and report the gated
/// comparison.  The paths are interleaved run by run (classic, flat,
/// classic, flat, …) so a load spike on the host penalises both equally.
pub fn compare_dispatch_paths(id: BenchmarkId, scale: Scale, runs: usize) -> MlipsComparison {
    let classic = measure_mlips(id, scale, runs, true);
    let flat = measure_mlips(id, scale, runs, false);
    // One more alternating round, keeping each path's best: guards the
    // ratio against one-sided interference from the host.
    let classic2 = measure_mlips(id, scale, runs, true);
    let flat2 = measure_mlips(id, scale, runs, false);
    let classic_mips = classic.mips().max(classic2.mips());
    let flat_mips = flat.mips().max(flat2.mips());
    MlipsComparison {
        id,
        scale,
        instructions: flat.instructions,
        classic_mips,
        flat_mips,
        speedup: flat_mips / classic_mips,
        floor: mlips_speedup_floor(id),
        workers: mlips_workers(),
    }
}

/// The gated flattened-over-classic throughput floor per registry program.
///
/// tak and deriv carry the original headline requirement (≥ 1.3× over the
/// pre-flattening baseline); every floor was raised once the flat loop
/// became self-sufficient across goal boundaries (driver-free goal
/// transitions, the wider register caches, batched accounting): local
/// measurements sit at 2.3–3.2× on one interleaved PE and 2.2–3.0× on two,
/// so the floors below keep generous headroom
/// for shared-CI noise while still catching any regression that
/// re-introduces per-access recording under the book lock, bounds-checked
/// fetch, or per-goal driver round trips.  The classic baseline stays what
/// it was when the floors were set — every reference recorded, under the
/// arena's lock, never on the owner path — so the ratio keeps its meaning.
pub fn mlips_speedup_floor(id: BenchmarkId) -> f64 {
    match id {
        BenchmarkId::Tak | BenchmarkId::Deriv => 1.5,
        BenchmarkId::Fib | BenchmarkId::Queens => 1.4,
        _ => 1.2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mips_divides() {
        let r = MlipsReport {
            id: BenchmarkId::Tak,
            scale: Scale::Small,
            classic_dispatch: false,
            instructions: 2_000_000,
            best_secs: 0.5,
            runs: 3,
        };
        assert!((r.mips() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn headline_floors_are_the_issues() {
        assert!(mlips_speedup_floor(BenchmarkId::Tak) >= 1.3);
        assert!(mlips_speedup_floor(BenchmarkId::Deriv) >= 1.3);
        for id in BenchmarkId::EXTENDED {
            assert!(mlips_speedup_floor(id) > 0.0);
        }
    }

    #[test]
    fn harness_measures_a_small_run() {
        let r = measure_mlips(BenchmarkId::Deriv, Scale::Small, 1, false);
        assert!(r.instructions > 0);
        assert!(r.best_secs > 0.0);
        assert!(r.mips() > 0.0);
    }
}
