//! The experiment implementations behind every table and figure.
//!
//! All functions are pure "run and summarise" helpers so that the binaries
//! stay thin and the root integration tests can exercise the full pipeline
//! on `ExperimentScale::Small`.

use crate::paper;
use pwam_benchmarks::{benchmark, Benchmark, BenchmarkId, Scale};
use pwam_cachesim::{run_sweep, simulate, BusModel, BusModelResult, CacheConfig, Protocol, SimConfig};
use rapwam::session::{QueryOptions, Session};
use rapwam::{DeterminismMode, MemRef, MemoryConfig, ObjectKind, RunResult};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Process-wide determinism selection for every engine run the experiments
/// perform: binaries set it from `--determinism`; when unset, the
/// `PWAM_DETERMINISM` environment variable decides, defaulting to strict.
/// It also picks the backend — strict runs interleave on the host thread,
/// relaxed runs put each PE on its own thread.  Every table and figure is
/// determinism-independent on the observables it reports — the relaxed CI
/// job runs the whole small-scale experiment suite to prove exactly that.
static DETERMINISM: OnceLock<DeterminismMode> = OnceLock::new();

/// Select the determinism mode for subsequent experiment runs.  Returns
/// `false` if a mode was already chosen (first choice wins).
pub fn set_determinism(mode: DeterminismMode) -> bool {
    DETERMINISM.set(mode).is_ok()
}

/// The determinism mode experiments run on.
pub fn determinism() -> DeterminismMode {
    *DETERMINISM.get_or_init(|| {
        std::env::var("PWAM_DETERMINISM").ok().and_then(|s| DeterminismMode::parse(&s)).unwrap_or_default()
    })
}

/// Input scale for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Tiny inputs: seconds even in debug builds (used by the test suite).
    Small,
    /// Inputs comparable to the paper's (default for the binaries).
    Paper,
    /// Larger stress inputs.
    Large,
}

impl ExperimentScale {
    pub fn to_benchmark_scale(self) -> Scale {
        match self {
            ExperimentScale::Small => Scale::Small,
            ExperimentScale::Paper => Scale::Paper,
            ExperimentScale::Large => Scale::Large,
        }
    }

    /// Parse a `--scale` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(ExperimentScale::Small),
            "paper" => Some(ExperimentScale::Paper),
            "large" => Some(ExperimentScale::Large),
            _ => None,
        }
    }
}

/// Per-worker area sizes used by the experiments: small enough that a
/// 40-worker Figure 2 run fits comfortably in host memory, large enough for
/// every benchmark at `Paper` scale.
pub fn experiment_memory() -> MemoryConfig {
    MemoryConfig {
        heap_words: 1 << 18,
        local_words: 1 << 16,
        control_words: 1 << 16,
        trail_words: 1 << 14,
        pdl_words: 1 << 11,
        goal_stack_words: 1 << 12,
        message_words: 1 << 8,
    }
}

fn options(workers: usize, parallel: bool, trace: bool) -> QueryOptions {
    let backend = match determinism() {
        DeterminismMode::Strict => QueryOptions::parallel(workers),
        DeterminismMode::Relaxed => QueryOptions::relaxed(workers),
    };
    QueryOptions { parallel, trace, memory: experiment_memory(), max_steps: 2_000_000_000, ..backend }
}

/// Run one benchmark and return the engine result.
pub fn run(bench: &Benchmark, workers: usize, parallel: bool, trace: bool) -> RunResult {
    let mut session = Session::new(&bench.program).expect("benchmark program parses");
    let result = session
        .run(&bench.query, &options(workers, parallel, trace))
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.id.name()));
    assert!(result.outcome.is_success(), "{} query failed", bench.id.name());
    result
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of Table 1 ("Characteristics of RAP-WAM Storage Objects").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    pub frame_type: String,
    pub area: String,
    pub in_wam: bool,
    pub locked: bool,
    pub locality: String,
}

/// Table 1 is a static property of the architecture: it is generated from
/// the same [`ObjectKind`] metadata the engine uses to tag every reference,
/// so the table and the trace can never disagree.
pub fn table1() -> Vec<Table1Row> {
    ObjectKind::ALL
        .iter()
        .map(|o| Table1Row {
            frame_type: o.name().to_string(),
            area: o.area().name().to_string(),
            in_wam: o.in_wam(),
            locked: o.locked(),
            locality: format!("{:?}", o.locality()),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One measured row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    pub benchmark: String,
    pub instructions: u64,
    pub refs_rapwam: u64,
    pub refs_wam: u64,
    pub goals_in_parallel: u64,
    pub refs_per_instruction: f64,
    /// RAP-WAM-over-WAM reference overhead (refs_rapwam / refs_wam - 1).
    pub overhead: f64,
}

/// The full Table 2 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    pub workers: usize,
    pub rows: Vec<Table2Row>,
}

/// Reproduce Table 2: per-benchmark statistics on `workers` PEs.
pub fn table2(scale: ExperimentScale, workers: usize) -> Table2 {
    let rows = BenchmarkId::ALL
        .iter()
        .map(|&id| {
            let bench = benchmark(id, scale.to_benchmark_scale());
            let par = run(&bench, workers, true, false);
            let seq = run(&bench, 1, false, false);
            Table2Row {
                benchmark: id.name().to_string(),
                instructions: par.stats.instructions,
                refs_rapwam: par.stats.data_refs,
                refs_wam: seq.stats.data_refs,
                goals_in_parallel: par.stats.goals_actually_parallel,
                refs_per_instruction: par.stats.refs_per_instruction(),
                overhead: par.stats.data_refs as f64 / seq.stats.data_refs as f64 - 1.0,
            }
        })
        .collect();
    Table2 { workers, rows }
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// One point of Figure 2 (deriv on N PEs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure2Point {
    pub pes: usize,
    /// Total RAP-WAM references as a percentage of the sequential WAM
    /// references ("work" in the paper's Figure 2).
    pub work_pct_of_wam: f64,
    /// Speed-up over the sequential WAM (elapsed-cycle ratio).
    pub speedup: f64,
    /// Fraction of worker cycles spent busy.
    pub utilisation: f64,
}

/// The full Figure 2 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure2 {
    pub benchmark: String,
    pub wam_refs: u64,
    pub wam_cycles: u64,
    pub points: Vec<Figure2Point>,
}

/// Reproduce Figure 2: work and speed-up of `deriv` for a range of PE counts.
pub fn figure2(scale: ExperimentScale, pe_counts: &[usize]) -> Figure2 {
    let bench = benchmark(BenchmarkId::Deriv, scale.to_benchmark_scale());
    let seq = run(&bench, 1, false, false);
    let wam_refs = seq.stats.data_refs;
    let wam_cycles = seq.stats.elapsed_cycles;
    let points = pe_counts
        .iter()
        .map(|&pes| {
            let par = run(&bench, pes, true, false);
            Figure2Point {
                pes,
                work_pct_of_wam: 100.0 * par.stats.data_refs as f64 / wam_refs as f64,
                speedup: wam_cycles as f64 / par.stats.elapsed_cycles as f64,
                utilisation: par.stats.utilisation(),
            }
        })
        .collect();
    Figure2 { benchmark: "deriv".to_string(), wam_refs, wam_cycles, points }
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// Traffic-ratio fit of one small benchmark against the large-benchmark
/// reference constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Entry {
    pub benchmark: String,
    pub traffic_ratio: f64,
    /// `(tr - E_tr) / sigma_tr`
    pub normalised_deviation: f64,
}

/// One cache size of Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    pub cache_words: u32,
    pub large_bench_mean: f64,
    pub large_bench_sigma: f64,
    pub entries: Vec<Table3Entry>,
    pub mean_deviation: f64,
}

/// Reproduce Table 3: sequential (WAM) traffic ratios of deriv/tak/qsort at
/// 512- and 1024-word caches, normalised against the published large-
/// benchmark statistics.
pub fn table3(scale: ExperimentScale) -> Vec<Table3Row> {
    let ids = [BenchmarkId::Deriv, BenchmarkId::Tak, BenchmarkId::Qsort];
    let traces: Vec<(BenchmarkId, Vec<MemRef>)> = ids
        .iter()
        .map(|&id| {
            let bench = benchmark(id, scale.to_benchmark_scale());
            let result = run(&bench, 1, false, true);
            (id, result.trace.expect("trace requested"))
        })
        .collect();
    paper::TABLE3_LARGE
        .iter()
        .map(|large| {
            let entries: Vec<Table3Entry> = traces
                .iter()
                .map(|(id, trace)| {
                    let config = SimConfig {
                        cache: CacheConfig {
                            size_words: large.cache_words,
                            line_words: 4,
                            write_allocate: true,
                        },
                        protocol: Protocol::WriteInBroadcast,
                        num_pes: 1,
                    };
                    let tr = simulate(&config, trace).traffic_ratio();
                    Table3Entry {
                        benchmark: id.name().to_string(),
                        traffic_ratio: tr,
                        normalised_deviation: (tr - large.mean) / large.sigma,
                    }
                })
                .collect();
            let mean_deviation =
                entries.iter().map(|e| e.normalised_deviation).sum::<f64>() / entries.len() as f64;
            Table3Row {
                cache_words: large.cache_words,
                large_bench_mean: large.mean,
                large_bench_sigma: large.sigma,
                entries,
                mean_deviation,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// One curve of Figure 4: a protocol at a given PE count, traffic ratio as a
/// function of total cache size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4Series {
    pub protocol: String,
    pub pes: usize,
    /// `(cache size in words, mean traffic ratio over the benchmarks)`
    pub points: Vec<(u32, f64)>,
}

/// The full Figure 4 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4 {
    pub benchmarks: Vec<String>,
    pub cache_sizes: Vec<u32>,
    pub series: Vec<Figure4Series>,
}

/// Reproduce Figure 4: mean traffic ratio of each coherency scheme as a
/// function of cache size, for 1/2/4/8 PEs, averaged over the benchmarks.
///
/// Trace generation (the expensive part) happens once per (benchmark, PE
/// count), and so does the sweep: one over every protocol × size, which
/// numbers the trace's lines once and fans the simulations out over host
/// threads.
pub fn figure4(
    scale: ExperimentScale,
    protocols: &[Protocol],
    pe_counts: &[usize],
    cache_sizes: &[u32],
) -> Figure4 {
    let benches: Vec<Benchmark> =
        BenchmarkId::ALL.iter().map(|&id| benchmark(id, scale.to_benchmark_scale())).collect();

    // Per PE count, the traffic ratios summed over the benchmarks, indexed
    // [protocol][size] like `configs`.
    let sums: Vec<Vec<f64>> = pe_counts
        .iter()
        .map(|&pes| {
            let configs: Vec<SimConfig> = protocols
                .iter()
                .flat_map(|&protocol| {
                    cache_sizes.iter().map(move |&size| SimConfig {
                        cache: CacheConfig::paper_policy(size, protocol),
                        protocol,
                        num_pes: pes,
                    })
                })
                .collect();
            let mut totals = vec![0.0f64; configs.len()];
            for bench in &benches {
                let trace = run(bench, pes, true, true).trace.expect("trace requested");
                for (total, r) in totals.iter_mut().zip(run_sweep(&trace, &configs)) {
                    *total += r.traffic_ratio();
                }
            }
            totals
        })
        .collect();

    let mut series = Vec::new();
    for (p, &protocol) in protocols.iter().enumerate() {
        for (totals, &pes) in sums.iter().zip(pe_counts) {
            let row = &totals[p * cache_sizes.len()..][..cache_sizes.len()];
            let points =
                cache_sizes.iter().zip(row).map(|(&size, &sum)| (size, sum / benches.len() as f64)).collect();
            series.push(Figure4Series { protocol: protocol.name().to_string(), pes, points });
        }
    }
    Figure4 {
        benchmarks: benches.iter().map(|b| b.id.name().to_string()).collect(),
        cache_sizes: cache_sizes.to_vec(),
        series,
    }
}

// ---------------------------------------------------------------------------
// §3.3 back-of-the-envelope (mlips)
// ---------------------------------------------------------------------------

/// The measured inputs and model outputs of the paper's 2-MLIPS argument.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlips {
    /// Measured references per instruction (paper assumes 3).
    pub refs_per_instruction: f64,
    /// Measured instructions per inference (paper assumes 15 for large programs).
    pub instructions_per_inference: f64,
    /// Traffic ratio of 8 PEs with 128-word broadcast caches (paper: < 0.3).
    pub traffic_ratio_8pe_128w: f64,
    /// Raw bandwidth demand of 2 MLIPS without caches (MB/s; paper: 360).
    pub demand_mb_per_s: f64,
    /// Bus bandwidth needed after the caches capture their share (MB/s;
    /// paper: 108).
    pub bus_demand_mb_per_s: f64,
    /// Queueing-model evaluation for a range of PE counts.
    pub model: Vec<BusModelResult>,
}

/// Reproduce the back-of-the-envelope calculation of Section 3.3.
pub fn mlips(scale: ExperimentScale) -> Mlips {
    // Measure refs/instruction and instructions/inference on the benchmark set.
    let mut refs = 0u64;
    let mut instrs = 0u64;
    let mut inferences = 0u64;
    for &id in &BenchmarkId::ALL {
        let bench = benchmark(id, scale.to_benchmark_scale());
        let r = run(&bench, 8, true, false);
        refs += r.stats.data_refs;
        instrs += r.stats.instructions;
        inferences += r.stats.inferences;
    }
    let refs_per_instruction = refs as f64 / instrs as f64;
    let instructions_per_inference = instrs as f64 / inferences as f64;

    // Traffic ratio of the 8-PE / 128-word / broadcast configuration.
    let bench = benchmark(BenchmarkId::Deriv, scale.to_benchmark_scale());
    let trace = run(&bench, 8, true, true).trace.expect("trace requested");
    let config = SimConfig {
        cache: CacheConfig::paper_policy(128, Protocol::WriteInBroadcast),
        protocol: Protocol::WriteInBroadcast,
        num_pes: 8,
    };
    let traffic_ratio = simulate(&config, &trace).traffic_ratio();

    // The paper's arithmetic: 2 MLIPS x 15 instr/LI x 3 refs/instr x 4 bytes.
    let demand_mb_per_s = paper::claims::TARGET_MLIPS
        * paper::claims::INSTRUCTIONS_PER_INFERENCE
        * paper::claims::REFS_PER_INSTRUCTION
        * 4.0;
    let bus_demand_mb_per_s = demand_mb_per_s * traffic_ratio.min(0.3);

    // Evaluate the bus model with the paper's "current technology" numbers,
    // both at the traffic ratio we measured and at the paper's assumed 0.3
    // capture point (the paper's claim is about caches that capture 70%).
    let model = [2usize, 4, 8, 16, 24, 32]
        .iter()
        .map(|&pes| {
            BusModel::paper_technology().evaluate(
                pes,
                traffic_ratio.min(0.3),
                paper::claims::INSTRUCTIONS_PER_INFERENCE,
            )
        })
        .collect();

    Mlips {
        refs_per_instruction,
        instructions_per_inference,
        traffic_ratio_8pe_128w: traffic_ratio,
        demand_mb_per_s,
        bus_demand_mb_per_s,
        model,
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Traffic ratio of write-allocate versus no-write-allocate for one protocol
/// over the cache-size sweep (the paper's "no-write-allocate is best for
/// small caches" observation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocAblationPoint {
    pub cache_words: u32,
    pub write_allocate: f64,
    pub no_write_allocate: f64,
    pub miss_ratio_write_allocate: f64,
    pub miss_ratio_no_write_allocate: f64,
}

/// Run the allocate-policy ablation on the deriv trace (8 PEs, broadcast).
pub fn ablation_alloc(scale: ExperimentScale, cache_sizes: &[u32]) -> Vec<AllocAblationPoint> {
    let bench = benchmark(BenchmarkId::Deriv, scale.to_benchmark_scale());
    let trace = run(&bench, 8, true, true).trace.expect("trace requested");
    let mut configs = Vec::new();
    for &size in cache_sizes {
        for wa in [true, false] {
            configs.push(SimConfig {
                cache: CacheConfig { size_words: size, line_words: 4, write_allocate: wa },
                protocol: Protocol::WriteInBroadcast,
                num_pes: 8,
            });
        }
    }
    let results = run_sweep(&trace, &configs);
    cache_sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let wa = &results[2 * i];
            let nwa = &results[2 * i + 1];
            AllocAblationPoint {
                cache_words: size,
                write_allocate: wa.traffic_ratio(),
                no_write_allocate: nwa.traffic_ratio(),
                miss_ratio_write_allocate: wa.miss_ratio(),
                miss_ratio_no_write_allocate: nwa.miss_ratio(),
            }
        })
        .collect()
}

/// Evaluate the bus-contention model over PE counts for a measured traffic
/// ratio (the "shared memory efficiency can be high" discussion).
pub fn ablation_bus(scale: ExperimentScale, pe_counts: &[usize]) -> Vec<BusModelResult> {
    let bench = benchmark(BenchmarkId::Qsort, scale.to_benchmark_scale());
    let trace = run(&bench, 8, true, true).trace.expect("trace requested");
    let config = SimConfig {
        cache: CacheConfig::paper_policy(1024, Protocol::WriteInBroadcast),
        protocol: Protocol::WriteInBroadcast,
        num_pes: 8,
    };
    let tr = simulate(&config, &trace).traffic_ratio();
    pe_counts
        .iter()
        .map(|&pes| BusModel::default().evaluate(pes, tr, paper::claims::INSTRUCTIONS_PER_INFERENCE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_inventory() {
        let rows = table1();
        assert_eq!(rows.len(), 12);
        let heap = rows.iter().find(|r| r.frame_type == "Heap").unwrap();
        assert_eq!(heap.area, "heap");
        assert!(!heap.locked);
        assert_eq!(heap.locality, "Global");
        let counts = rows.iter().find(|r| r.frame_type == "Parcall F./Counts").unwrap();
        assert!(counts.locked);
        assert!(!counts.in_wam);
    }

    #[test]
    fn scale_parses() {
        assert_eq!(ExperimentScale::parse("paper"), Some(ExperimentScale::Paper));
        assert_eq!(ExperimentScale::parse("bogus"), None);
    }
}
