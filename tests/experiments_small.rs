//! The experiment harness run end-to-end on small inputs: every table and
//! figure entry point must produce data with the paper's qualitative shape.
//!
//! The suite honours `PWAM_DETERMINISM` like the
//! binaries do.  Under relaxed determinism two classes of assertions are
//! skipped: elapsed-cycle speedup (free-running threads have no rounds —
//! relaxed runs report a critical-path estimate) and
//! goal-placement counts (which PE steals which goal is an actual race,
//! and on a single-core host the parent usually wins).  Everything
//! answer- and work-invariant stays asserted in both modes.

use pwam_suite::cachesim::Protocol;
use pwam_suite::harness::experiments::{
    ablation_alloc, ablation_bus, determinism, figure2, figure4, mlips, table1, table2, table3,
    ExperimentScale,
};
use pwam_suite::harness::paper::claims;
use pwam_suite::rapwam::DeterminismMode;

const SCALE: ExperimentScale = ExperimentScale::Small;

/// True when the run is schedule-deterministic, i.e. placement- and
/// cycle-based assertions are meaningful.
fn strict() -> bool {
    determinism() == DeterminismMode::Strict
}

#[test]
fn table1_lists_all_twelve_storage_objects() {
    let rows = table1();
    assert_eq!(rows.len(), 12);
    // Exactly three locked object kinds, as in the paper.
    assert_eq!(rows.iter().filter(|r| r.locked).count(), 3);
    // Six of them exist in the sequential WAM.
    assert_eq!(rows.iter().filter(|r| r.in_wam).count(), 6);
}

#[test]
fn table2_shows_bounded_overhead_and_parallel_goals() {
    let t = table2(SCALE, 4);
    assert_eq!(t.rows.len(), 4);
    for row in &t.rows {
        assert!(row.refs_rapwam >= row.refs_wam, "{}: parallel work below sequential", row.benchmark);
        assert!(row.overhead < 0.8, "{}: overhead {:.2} is implausible", row.benchmark, row.overhead);
        if strict() {
            assert!(row.goals_in_parallel > 0, "{}: no goals executed in parallel", row.benchmark);
        }
        assert!(row.refs_per_instruction > 1.0 && row.refs_per_instruction < 8.0);
    }
    // matrix has the coarsest grain and therefore the lowest overhead.
    let matrix = t.rows.iter().find(|r| r.benchmark == "matrix").unwrap();
    let deriv = t.rows.iter().find(|r| r.benchmark == "deriv").unwrap();
    assert!(matrix.overhead <= deriv.overhead + 0.05);
}

#[test]
fn figure2_work_stays_bounded_and_speedup_grows() {
    let fig = figure2(SCALE, &[1, 2, 4, 8]);
    assert_eq!(fig.points.len(), 4);
    for p in &fig.points {
        assert!(p.work_pct_of_wam >= 99.0, "work below the WAM at {} PEs", p.pes);
        assert!(p.work_pct_of_wam < 200.0, "work exploded at {} PEs: {}", p.pes, p.work_pct_of_wam);
    }
    // Speed-up must increase from 1 to 8 PEs (deriv has enough parallelism
    // even at the small scale).  Elapsed cycles are an emulation metric of
    // the strict backend; relaxed runs report a critical-path estimate
    // instead, so the growth assertion only holds under strict determinism.
    if strict() {
        let s1 = fig.points[0].speedup;
        let s8 = fig.points[3].speedup;
        assert!(s8 > s1 * 1.5, "speed-up did not grow: {s1} -> {s8}");
    }
    // Work on 1 PE must not exceed work on 8 PEs by much (overhead grows
    // with actual parallelism, not the other way around).
    assert!(fig.points[0].work_pct_of_wam <= fig.points[3].work_pct_of_wam + 10.0);
    // Nor what it measures today: the 1-PE overhead may only shrink.
    assert!(
        fig.points[0].work_pct_of_wam <= claims::FIGURE2_ONE_PE_MAX_WORK_PCT_SMALL,
        "1-PE work grew: {:.2}% of the WAM",
        fig.points[0].work_pct_of_wam
    );
}

#[test]
fn table3_reproduces_the_sign_pattern_of_the_fit() {
    let rows = table3(SCALE);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        // tak has the best locality of the three, deriv the worst — the same
        // ordering as the paper's normalised deviations.
        let dev = |name: &str| {
            row.entries.iter().find(|e| e.benchmark == name).expect("entry").normalised_deviation
        };
        assert!(dev("tak") < dev("qsort"), "tak should sit below qsort");
        assert!(dev("qsort") < dev("deriv"), "qsort should sit below deriv");
        // All traffic ratios are sane.
        for e in &row.entries {
            assert!(e.traffic_ratio > 0.0 && e.traffic_ratio < 1.5);
        }
    }
    // Larger caches give lower traffic for every benchmark.
    for (a, b) in rows[0].entries.iter().zip(&rows[1].entries) {
        assert!(b.traffic_ratio <= a.traffic_ratio + 0.02, "{}: traffic grew with cache size", a.benchmark);
    }
}

#[test]
fn figure4_reproduces_the_protocol_ranking_and_trends() {
    let protocols = [Protocol::WriteInBroadcast, Protocol::Hybrid, Protocol::WriteThrough];
    let fig = figure4(SCALE, &protocols, &[1, 4], &[256, 1024, 4096]);
    assert_eq!(fig.series.len(), protocols.len() * 2);

    let series = |protocol: &str, pes: usize| {
        fig.series
            .iter()
            .find(|s| s.protocol == protocol && s.pes == pes)
            .unwrap_or_else(|| panic!("missing series {protocol}/{pes}"))
    };
    for pes in [1usize, 4] {
        let broadcast = series("broadcast", pes);
        let hybrid = series("hybrid", pes);
        let wthru = series("write-thru", pes);
        for i in 0..fig.cache_sizes.len() {
            let b = broadcast.points[i].1;
            let h = hybrid.points[i].1;
            let w = wthru.points[i].1;
            assert!(b <= h + 0.03, "broadcast {b} vs hybrid {h} at {:?}", broadcast.points[i]);
            assert!(h <= w + 1e-9, "hybrid {h} vs write-through {w}");
        }
        // Traffic decreases (or at least does not grow) with cache size for
        // the broadcast scheme.
        let pts = &broadcast.points;
        assert!(pts.last().unwrap().1 <= pts.first().unwrap().1 + 0.02);
    }
}

#[test]
fn mlips_model_reaches_the_papers_target_with_enough_pes() {
    let m = mlips(SCALE);
    assert!(m.refs_per_instruction > 1.0 && m.refs_per_instruction < 8.0);
    assert!(m.instructions_per_inference > 3.0 && m.instructions_per_inference < 80.0);
    // A 128-word cache on the tiny test input can exceed a ratio of 1.0
    // (line fetches outweigh the reuse); it must still be a sane number.
    assert!(m.traffic_ratio_8pe_128w > 0.0 && m.traffic_ratio_8pe_128w < 1.6);
    assert!((m.demand_mb_per_s - 360.0).abs() < 1.0, "the paper's arithmetic must give 360 MB/s");
    // The bus model is well-behaved: efficiencies in (0, 1], decreasing as
    // PEs are added, and some configuration reaches the paper's 2-MLIPS
    // target when caches capture 70% of the traffic.
    assert!(!m.model.is_empty());
    for pair in m.model.windows(2) {
        assert!(pair[1].efficiency <= pair[0].efficiency + 1e-9);
    }
    assert!(
        m.model.iter().any(|r| r.effective_mlips >= 2.0),
        "no PE count reaches the 2 MLIPS target: {:?}",
        m.model
    );
}

#[test]
fn allocate_policy_ablation_shows_the_paper_crossover() {
    let points = ablation_alloc(SCALE, &[64, 1024]);
    assert_eq!(points.len(), 2);
    // Miss ratio is always higher with no-write-allocate.
    for p in &points {
        assert!(
            p.miss_ratio_no_write_allocate >= p.miss_ratio_write_allocate,
            "no-write-allocate should have the higher miss ratio at {} words",
            p.cache_words
        );
    }
    // For the small cache, no-write-allocate must not be (much) worse on
    // traffic; for the large cache, write-allocate must win or tie.
    assert!(points[0].no_write_allocate <= points[0].write_allocate + 0.05);
    assert!(points[1].write_allocate <= points[1].no_write_allocate + 0.02);
}

#[test]
fn bus_model_efficiency_degrades_gracefully_with_pes() {
    let results = ablation_bus(SCALE, &[1, 4, 16, 64]);
    assert_eq!(results.len(), 4);
    for pair in results.windows(2) {
        assert!(pair[1].efficiency <= pair[0].efficiency + 1e-9);
    }
    assert!(results[0].efficiency > 0.8, "a single PE should be nearly unimpeded");
}
