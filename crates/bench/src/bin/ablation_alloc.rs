//! Ablation: write-allocate versus no-write-allocate.
//!
//! Section 3.2 observes that "no-write-allocate is best for small caches;
//! however, miss ratio increases with no-write-allocate".  This binary
//! reproduces that crossover on the deriv trace (8 PEs, write-in broadcast).
//!
//! Usage: `ablation_alloc [--scale small|paper|large] [--threads N] [--json]`

use pwam_bench::experiments::ablation_alloc;
use pwam_bench::paper;
use pwam_bench::table::{f3, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    pwam_bench::cli::reject_unknown_flags(&args, &pwam_bench::cli::COMMON_FLAGS);
    let scale = pwam_bench::cli::scale_arg(&args);
    pwam_bench::cli::threads_and_determinism_args(&args);

    let points = ablation_alloc(scale, &paper::FIGURE4_CACHE_SIZES);
    println!("Allocate-policy ablation: deriv, 8 PEs, write-in broadcast (scale {scale:?})\n");
    let mut t = TextTable::new(vec![
        "cache (words)",
        "traffic (write-alloc)",
        "traffic (no-write-alloc)",
        "miss (write-alloc)",
        "miss (no-write-alloc)",
    ]);
    for p in &points {
        t.row(vec![
            p.cache_words.to_string(),
            f3(p.write_allocate),
            f3(p.no_write_allocate),
            f3(p.miss_ratio_write_allocate),
            f3(p.miss_ratio_no_write_allocate),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape (paper): no-write-allocate wins on traffic for small caches,");
    println!("write-allocate wins for large ones, and no-write-allocate always has the");
    println!("higher miss ratio.");

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&points).expect("serialise"));
    }
}
