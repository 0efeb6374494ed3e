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
//!
//! A third leg ([`MlipsLeg::Wam`]) times the same program compiled
//! sequentially, which puts the paper's scheduling claim — goals that are
//! not executed remotely pay almost no overhead — in *time* beside the
//! overhead gate's instruction counts: `cge_over_wam_time` is recorded per
//! program, and not gated (it wanders ±15 % on a shared host).

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

/// Which executor configuration a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MlipsLeg {
    /// The CGE-annotated program on [`mlips_workers`] PEs through the
    /// flattened fast path.
    Flat,
    /// The same through the classic (pre-flattening) dispatch path.
    Classic,
    /// The program compiled sequentially ([`QueryOptions::sequential`]: every
    /// `&` an ordinary conjunction) on one PE through the flattened path —
    /// the WAM a CGE-annotated run is an overhead over.
    Wam,
}

/// Throughput of one benchmark on the interleaved backend.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MlipsReport {
    pub id: BenchmarkId,
    pub scale: Scale,
    pub leg: MlipsLeg,
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

/// Time `id` at `scale` on the interleaved backend, configured per `leg`, and
/// report the best-of-`runs` throughput.  Only the engine run is timed: compilation is
/// cached by the session, and the attempts share one engine, reset between
/// them outside the clock.  Arenas are allocated as untouched zero pages, so
/// the first attempt pays the kernel's page faults for every page the program
/// reaches; from the second on the Stack Sets are warm and the clock sees the
/// dispatch loop alone, which is what best-of-`runs` then reports.
pub fn measure_mlips(id: BenchmarkId, scale: Scale, runs: usize, leg: MlipsLeg) -> MlipsReport {
    let bench = benchmark(id, scale);
    let mut session =
        Session::new(&bench.program).unwrap_or_else(|e| panic!("{}: parse failed: {e}", id.name()));
    let options = match leg {
        MlipsLeg::Flat => QueryOptions::parallel(mlips_workers()),
        MlipsLeg::Classic => QueryOptions::parallel(mlips_workers()).with_classic_dispatch(),
        MlipsLeg::Wam => QueryOptions::sequential(),
    };
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
    if options.workers > 1 {
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
    MlipsReport { id, scale, leg, instructions, best_secs, runs }
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
    /// Worker count of the flat and classic runs.
    pub workers: usize,
    /// MIPS of the sequentially compiled program ([`MlipsLeg::Wam`]).
    pub wam_mips: f64,
    /// Time of the flat CGE-annotated run over the time of the WAM run.  At
    /// one worker no goal is ever stolen, so this is the paper's "goals that
    /// are not actually executed remotely pay almost no overhead" as a
    /// wall-clock ratio.  Recorded, not gated.
    pub cge_over_wam_time: f64,
}

/// Measure one benchmark through both dispatch paths (and as a WAM) and
/// report the gated comparison.  The legs are interleaved run by run
/// (classic, flat, wam, classic, flat, wam) so a load spike on the host
/// penalises them equally.
pub fn compare_dispatch_paths(id: BenchmarkId, scale: Scale, runs: usize) -> MlipsComparison {
    let round =
        || [MlipsLeg::Classic, MlipsLeg::Flat, MlipsLeg::Wam].map(|leg| measure_mlips(id, scale, runs, leg));
    // Two alternating rounds, keeping each leg's best: guards the ratios
    // against one-sided interference from the host.
    let ([classic1, flat1, wam1], [classic2, flat2, wam2]) = (round(), round());
    let best = |a: MlipsReport, b: MlipsReport| if a.best_secs <= b.best_secs { a } else { b };
    let (classic, flat, wam) = (best(classic1, classic2), best(flat1, flat2), best(wam1, wam2));
    MlipsComparison {
        id,
        scale,
        instructions: flat.instructions,
        classic_mips: classic.mips(),
        flat_mips: flat.mips(),
        speedup: flat.mips() / classic.mips(),
        floor: mlips_speedup_floor(id),
        workers: mlips_workers(),
        wam_mips: wam.mips(),
        cge_over_wam_time: flat.best_secs / wam.best_secs,
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
            leg: MlipsLeg::Flat,
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
        let r = measure_mlips(BenchmarkId::Deriv, Scale::Small, 1, MlipsLeg::Flat);
        assert!(r.instructions > 0);
        assert!(r.best_secs > 0.0);
        assert!(r.mips() > 0.0);
        // The WAM leg runs the same program without its parallel machinery.
        let wam = measure_mlips(BenchmarkId::Deriv, Scale::Small, 1, MlipsLeg::Wam);
        assert!(wam.instructions > 0 && wam.instructions < r.instructions);
    }
}
