//! Ablation: bus-contention model across PE counts.
//!
//! Complements Figure 4 with the time dimension the paper defers to Tick's
//! queueing model: given the measured traffic ratio, how does shared-memory
//! efficiency degrade as PEs are added, and where does the bus saturate?
//!
//! Usage: `ablation_bus [--scale small|paper|large] [--threads N] [--json]`

use pwam_bench::experiments::ablation_bus;
use pwam_bench::table::{f2, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    pwam_bench::cli::reject_unknown_flags(&args, &pwam_bench::cli::COMMON_FLAGS);
    let scale = pwam_bench::cli::scale_arg(&args);
    pwam_bench::cli::threads_and_determinism_args(&args);

    let pe_counts = [1usize, 2, 4, 8, 12, 16, 24, 32, 48, 64];
    let results = ablation_bus(scale, &pe_counts);
    println!("Bus-contention model (qsort trace, 1024-word broadcast caches, scale {scale:?})\n");
    let mut t = TextTable::new(vec!["# PEs", "offered util", "bus util", "efficiency", "MLIPS"]);
    for r in &results {
        t.row(vec![
            r.num_pes.to_string(),
            f2(r.offered_utilisation),
            f2(r.utilisation),
            f2(r.efficiency),
            f2(r.effective_mlips),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: efficiency stays high for small to medium PE counts (the");
    println!("paper's \"cost-effective small-scale systems\"), then collapses once the");
    println!("offered utilisation approaches 1 and the bus saturates.");

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&results).expect("serialise"));
    }
}
