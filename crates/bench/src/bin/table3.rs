//! Regenerate **Table 3** — "Fit of Small Benchmarks to Large Benchmarks".
//!
//! The sequential (WAM) traffic ratios of deriv/tak/qsort are measured at
//! 512- and 1024-word caches and normalised against the published mean and
//! standard deviation of Tick's large sequential Prolog benchmarks (which
//! are not available; the constants come straight from the paper — see
//! DESIGN.md's substitution notes).
//!
//! Usage: `table3 [--scale small|paper|large] [--threads N] [--json]`

use pwam_bench::experiments::table3;
use pwam_bench::paper;
use pwam_bench::table::{f2, f3, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    pwam_bench::cli::reject_unknown_flags(&args, &pwam_bench::cli::COMMON_FLAGS);
    let scale = pwam_bench::cli::scale_arg(&args);
    pwam_bench::cli::threads_and_determinism_args(&args);

    let rows = table3(scale);
    println!("Table 3: Fit of Small Benchmarks to Large Benchmarks (scale {scale:?})");
    let mut t = TextTable::new(vec![
        "cache (words)",
        "E_tr (large)",
        "sigma_tr",
        "deriv (tr)",
        "deriv",
        "tak (tr)",
        "tak",
        "qsort (tr)",
        "qsort",
        "mean",
    ]);
    for row in &rows {
        let find = |name: &str| row.entries.iter().find(|e| e.benchmark == name).expect("entry");
        let d = find("deriv");
        let k = find("tak");
        let q = find("qsort");
        t.row(vec![
            row.cache_words.to_string(),
            f3(row.large_bench_mean),
            f3(row.large_bench_sigma),
            f3(d.traffic_ratio),
            f2(d.normalised_deviation),
            f3(k.traffic_ratio),
            f2(k.normalised_deviation),
            f3(q.traffic_ratio),
            f2(q.normalised_deviation),
            f2(row.mean_deviation),
        ]);
    }
    println!("{}", t.render());

    println!("Paper's published normalised deviations (tr - E_tr)/sigma_tr:");
    let mut p = TextTable::new(vec!["cache (words)", "deriv", "tak", "qsort", "mean"]);
    for row in paper::TABLE3 {
        p.row(vec![row.cache_words.to_string(), f2(row.deriv), f2(row.tak), f2(row.qsort), f2(row.mean)]);
    }
    println!("{}", p.render());

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serialise"));
    }
}
