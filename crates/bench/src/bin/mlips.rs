//! Regenerate the **Section 3.3 back-of-the-envelope calculation**: can a
//! shared-memory multiprocessor built from late-1980s parts reach 2 million
//! application inferences per second?
//!
//! Usage: `mlips [--scale small|paper|large] [--threads N] [--json]`

use pwam_bench::experiments::mlips;
use pwam_bench::paper::claims;
use pwam_bench::table::{f2, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    pwam_bench::cli::reject_unknown_flags(&args, &pwam_bench::cli::COMMON_FLAGS);
    let scale = pwam_bench::cli::scale_arg(&args);
    pwam_bench::cli::threads_and_determinism_args(&args);

    let m = mlips(scale);
    println!("Section 3.3 back-of-the-envelope (scale {scale:?})");
    println!(
        "measured refs/instruction        : {:.2}   (paper assumes {:.0})",
        m.refs_per_instruction,
        claims::REFS_PER_INSTRUCTION
    );
    println!(
        "measured instructions/inference  : {:.2}   (paper assumes {:.0})",
        m.instructions_per_inference,
        claims::INSTRUCTIONS_PER_INFERENCE
    );
    println!(
        "traffic ratio, 8 PE / 128-word broadcast caches : {:.3} (paper: < 0.3)",
        m.traffic_ratio_8pe_128w
    );
    println!();
    println!(
        "bandwidth demand of {} MLIPS without caches : {:.0} MB/s (paper: 360)",
        claims::TARGET_MLIPS,
        m.demand_mb_per_s
    );
    println!("bus bandwidth required after cache capture  : {:.0} MB/s (paper: 108)", m.bus_demand_mb_per_s);
    println!();
    println!("Bus-contention (M/D/1) model at the measured traffic ratio:");
    let mut t = TextTable::new(vec!["# PEs", "bus util", "wait (us)", "efficiency", "MLIPS"]);
    for r in &m.model {
        t.row(vec![
            r.num_pes.to_string(),
            f2(r.utilisation),
            if r.mean_wait_us.is_finite() {
                format!("{:.3}", r.mean_wait_us)
            } else {
                "saturated".to_string()
            },
            f2(r.efficiency),
            f2(r.effective_mlips),
        ]);
    }
    println!("{}", t.render());
    println!("The paper argues that ~2 MLIPS is attainable with current technology for");
    println!("applications with medium parallelism; the model above shows at which PE");
    println!("count the reproduction reaches that rate.");

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&m).expect("serialise"));
    }
}
