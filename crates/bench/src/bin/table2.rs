//! Regenerate **Table 2** — "Statistics for the Benchmarks Used (8 processors)".
//!
//! Usage: `table2 [--scale small|paper|large] [--workers N] [--threads N] [--json]`

use pwam_bench::cli::{
    num_arg, reject_unknown_flags, scale_arg, threads_and_determinism_args, usage_error, COMMON_FLAGS,
};
use pwam_bench::experiments::table2;
use pwam_bench::paper;
use pwam_bench::table::{f2, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(&args, &[COMMON_FLAGS.as_slice(), &[("--workers", true)]].concat());
    let scale = scale_arg(&args);
    let threads = threads_and_determinism_args(&args);
    let workers = num_arg(&args, "--workers").map(|n| n as usize).or(threads).unwrap_or(8);
    if workers == 0 {
        usage_error("--workers 0 (expected a worker count >= 1)");
    }

    let result = table2(scale, workers);
    let mut t = TextTable::new(vec!["Parameter", "deriv", "tak", "qsort", "matrix"]);
    let col = |f: &dyn Fn(&pwam_bench::experiments::Table2Row) -> String| -> Vec<String> {
        result.rows.iter().map(f).collect()
    };
    let mut push_row = |name: &str, values: Vec<String>| {
        let mut cells = vec![name.to_string()];
        cells.extend(values);
        t.row(cells);
    };
    push_row("Instructions executed", col(&|r| r.instructions.to_string()));
    push_row("References (RAP-WAM)", col(&|r| r.refs_rapwam.to_string()));
    push_row("References (WAM)", col(&|r| r.refs_wam.to_string()));
    push_row("Goals actually in //", col(&|r| r.goals_in_parallel.to_string()));
    push_row("Refs / instruction", col(&|r| f2(r.refs_per_instruction)));
    push_row("RAP-WAM overhead", col(&|r| format!("{:.1}%", 100.0 * r.overhead)));

    println!("Table 2: Statistics for the Benchmarks Used ({} processors, scale {:?})", workers, scale);
    println!("{}", t.render());

    println!("Paper's published values (8 processors, the authors' inputs):");
    let mut p = TextTable::new(vec!["Parameter", "deriv", "tak", "qsort", "matrix"]);
    p.row(vec![
        "Instructions executed".to_string(),
        paper::TABLE2[0].instructions.to_string(),
        paper::TABLE2[1].instructions.to_string(),
        paper::TABLE2[2].instructions.to_string(),
        paper::TABLE2[3].instructions.to_string(),
    ]);
    p.row(vec![
        "References (RAP-WAM)".to_string(),
        paper::TABLE2[0].refs_rapwam.to_string(),
        paper::TABLE2[1].refs_rapwam.to_string(),
        paper::TABLE2[2].refs_rapwam.to_string(),
        paper::TABLE2[3].refs_rapwam.to_string(),
    ]);
    p.row(vec![
        "References (WAM)".to_string(),
        paper::TABLE2[0].refs_wam.to_string(),
        paper::TABLE2[1].refs_wam.to_string(),
        paper::TABLE2[2].refs_wam.to_string(),
        paper::TABLE2[3].refs_wam.to_string(),
    ]);
    p.row(vec![
        "Goals actually in //".to_string(),
        paper::TABLE2[0].goals_in_parallel.to_string(),
        paper::TABLE2[1].goals_in_parallel.to_string(),
        paper::TABLE2[2].goals_in_parallel.to_string(),
        paper::TABLE2[3].goals_in_parallel.to_string(),
    ]);
    println!("{}", p.render());

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&result).expect("serialise"));
    }
}
