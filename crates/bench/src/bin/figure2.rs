//! Regenerate **Figure 2** — "RAP-WAM Overheads for deriv".
//!
//! Runs the deriv benchmark on an increasing number of PEs and reports the
//! total work (references, as a percentage of the sequential WAM work), the
//! speed-up over the WAM, and worker utilisation.  The paper's claim is that
//! the parallelism-management overhead stays small (~15% at 40 PEs even for
//! this fine-granularity benchmark) while speed-up keeps growing.
//!
//! Usage: `figure2 [--scale small|paper|large] [--max-pes N] [--threads N] [--json]`

use pwam_bench::cli::{num_arg, reject_unknown_flags, scale_arg, threads_and_determinism_args, COMMON_FLAGS};
use pwam_bench::experiments::figure2;
use pwam_bench::table::{f2, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(&args, &[COMMON_FLAGS.as_slice(), &[("--max-pes", true)]].concat());
    let scale = scale_arg(&args);
    threads_and_determinism_args(&args);
    let max_pes = num_arg(&args, "--max-pes").unwrap_or(40) as usize;

    let pe_counts: Vec<usize> =
        [1usize, 2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40].iter().copied().filter(|&p| p <= max_pes).collect();
    let fig = figure2(scale, &pe_counts);

    println!("Figure 2: RAP-WAM overheads and speed-up for deriv (scale {scale:?})");
    println!("sequential WAM: {} references, {} cycles\n", fig.wam_refs, fig.wam_cycles);
    let mut t = TextTable::new(vec!["# PEs", "work (% of WAM)", "overhead", "speedup", "utilisation"]);
    for p in &fig.points {
        t.row(vec![
            p.pes.to_string(),
            f2(p.work_pct_of_wam),
            format!("{:.1}%", p.work_pct_of_wam - 100.0),
            f2(p.speedup),
            format!("{:.0}%", 100.0 * p.utilisation),
        ]);
    }
    println!("{}", t.render());
    if let Some(one) = fig.points.iter().find(|p| p.pes == 1) {
        let overhead = one.work_pct_of_wam - 100.0;
        println!("Note: on 1 PE no goal is stolen and the parent executes the leftmost CGE");
        println!("branch inline (last-goal-inline optimisation, made sound by backward");
        println!("execution / parcall cancellation), yet work there is {overhead:.1}% above the");
        println!("WAM.  Overhead grows with actual parallelism as goals are stolen onto other PEs.");
    }
    println!("Paper: overhead for deriv is on the order of 15% for up to 40 processors,");
    println!("and RAP-WAM work on 1 PE is very close to WAM work.");

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&fig).expect("serialise"));
    }
}
