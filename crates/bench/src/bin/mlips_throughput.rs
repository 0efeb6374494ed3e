//! Measure executor throughput (MIPS: millions of abstract-machine
//! instructions per second) untraced and
//! traced (every reference numbered and recorded), and of the same programs compiled
//! sequentially (the WAM a CGE-annotated run is an overhead over), and record
//! the comparison in `BENCH_mlips.json`.
//!
//! This is the host-speed companion to the `mlips` binary (which
//! regenerates the paper's Section 3.3 back-of-envelope model from
//! reference counts): that one predicts what 1988 hardware would do, this
//! one measures what the executor actually does on the current host.  The
//! `mlips-gate` CI job runs the same comparison as a test with
//! per-benchmark floors.
//!
//! The output file is append-only across invocations
//! (`pwam_bench::history::append_run`): the new run becomes `latest` and is
//! pushed onto `history`, so the raw-speed trajectory accumulates across
//! PRs.  The worker count comes from `PWAM_MLIPS_THREADS` (see
//! `pwam_benchmarks::mlips::mlips_workers`) and is recorded per report.
//!
//! Usage: `mlips_throughput [--runs N] [--out PATH] [--small-scale|--paper-scale]`

use pwam_bench::cli::{arg_value, num_arg, reject_unknown_flags};
use pwam_bench::history::append_run;
use pwam_benchmarks::mlips::{compare_dispatch_paths, MlipsComparison};
use pwam_benchmarks::{BenchmarkId, Scale};
use serde_json::Value;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(
        &args,
        &[("--runs", true), ("--out", true), ("--small-scale", false), ("--paper-scale", false)],
    );
    let runs = num_arg(&args, "--runs").unwrap_or(10) as usize;
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_mlips.json".to_string());
    let scale = if args.iter().any(|a| a == "--small-scale") { Scale::Small } else { Scale::Paper };

    let mut reports: Vec<MlipsComparison> = Vec::new();
    println!(
        "{:<8} {:>12} {:>14} {:>11} {:>9} {:>7} {:>10} {:>13}",
        "bench", "instrs", "traced MIPS", "flat MIPS", "speedup", "floor", "WAM MIPS", "CGE/WAM time"
    );
    for id in BenchmarkId::EXTENDED {
        let c = compare_dispatch_paths(id, scale, runs);
        println!(
            "{:<8} {:>12} {:>14.2} {:>11.2} {:>8.2}x {:>7} {:>10.2} {:>12.2}x",
            id.name(),
            c.instructions,
            c.traced_mips,
            c.flat_mips,
            c.speedup,
            c.floor.map_or("-".to_string(), |floor| format!("{floor:.2}")),
            c.wam_mips,
            c.cge_over_wam_time
        );
        reports.push(c);
    }

    let now = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let run = Value::Object(vec![
        ("unix_secs".to_string(), Value::UInt(now)),
        ("reports".to_string(), serde_json::to_value(&reports)),
    ]);
    match append_run(Path::new(&out), run) {
        Ok(runs) => println!("wrote {out} ({runs} recorded runs)"),
        Err(e) => {
            eprintln!("mlips_throughput: cannot record the run in {out}: {e}");
            std::process::exit(1);
        }
    }
}
