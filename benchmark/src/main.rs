//! `pwam-ladder` — the repository's one benchmark.
//!
//! One invocation runs one workload in its own process, so set-up time and
//! peak memory are the workload's own.  `--trace 0` measures the end-to-end
//! metrics with no recording of any kind; `--trace 1` measures the
//! per-layer metrics ([`layers`]).  The last line of standard output is the
//! result, one JSON object; the line before it states the host's `nproc`
//! and the sample count behind every percentile.

mod affinity;
mod cli;
mod inputs;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use cli::{Cli, RunArgs};
use metrics::{result_line, Values, END_TO_END};
use serde_json::Value;
use stats::{median, percentile};
use std::time::Instant;
use workloads::{Ctx, Workload};

/// Set-ups timed in one untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match cli::parse(&args) {
        Ok(Cli::List) => {
            for workload in Workload::ALL {
                println!("{}\t{}", workload.name(), workload.why());
            }
            return;
        }
        Ok(Cli::Run(run)) => run,
        Err(message) => {
            eprintln!("pwam-ladder: {message}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    // Read once; every thread and connection count below derives from it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if run.workload == Workload::ParLarge {
        // Still `nproc` PEs, all on one CPU (see `affinity`).
        affinity::confine_to_one_cpu().unwrap_or_else(|e| fail(&e));
    }
    let (line, notes) = if run.trace {
        let traced = layers::run(run.workload, run.seed, run.seconds, nproc, &run.out);
        (result_line(traced.correct, traced.attempted, traced.failed, &traced.values), traced.notes)
    } else {
        untraced(&run, nproc)
    };
    println!("{}", info_line(&run, nproc, notes));
    println!("{line}");
}

/// What was run, on how many cores, and the sample counts.
fn info_line(run: &RunArgs, nproc: usize, notes: Vec<(String, u64)>) -> String {
    Value::Object(vec![
        ("workload".to_string(), Value::Str(run.workload.name().to_string())),
        ("seed".to_string(), Value::UInt(run.seed)),
        ("seconds".to_string(), Value::UInt(run.seconds)),
        ("trace".to_string(), Value::Bool(run.trace)),
        ("nproc".to_string(), Value::UInt(nproc as u64)),
        ("samples".to_string(), Value::Object(notes.into_iter().map(|(k, n)| (k, Value::UInt(n))).collect())),
    ])
    .to_json()
}

fn fail(message: &str) -> ! {
    eprintln!("pwam-ladder: {message}");
    std::process::exit(1);
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_else(|e| fail(&format!("{e}")));
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or_else(|| fail("/proc/self/status has no VmHWM"));
    kib / 1024.0
}

fn untraced(run: &RunArgs, nproc: usize) -> (String, Vec<(String, u64)>) {
    let timed_setup = || {
        let started = Instant::now();
        let ctx = Ctx::setup(run.workload, run.seed, nproc);
        (ctx, started.elapsed().as_secs_f64())
    };
    // The timed windows follow the process's first set-up, as they do for
    // a user: where the allocator places the arenas depends on what was
    // allocated and freed before, and moves the relaxed backend's speed.
    let (mut ctx, first_setup_s) = timed_setup();
    let measured = ctx.measure(run.seed, run.seconds as f64, None);
    ctx.teardown();
    // Read before the repeated set-ups below, which a user does not run.
    let peak_rss_mb = peak_rss_mb();
    // One set-up is a few tens of milliseconds, too short to compare
    // between commits as a single reading: repeat it and report the median.
    let mut setup_s = vec![first_setup_s];
    while setup_s.len() < SETUPS {
        let (ctx, seconds) = timed_setup();
        ctx.teardown();
        setup_s.push(seconds);
    }

    let mut latencies = measured.latencies();
    latencies.sort_unstable();
    let too_short = || fail(&format!("{} correct ops are too few for a percentile", latencies.len()));
    let p50 = percentile(&latencies, 50.0).unwrap_or_else(too_short);
    let p90 = percentile(&latencies, 90.0).unwrap_or_else(too_short);
    let completed = measured.closed.iter().filter(|s| s.ok).count();
    let (attempted, failed) = (measured.attempted(), measured.failed());

    let mut values = Values::new(END_TO_END);
    values.set("op_p50_us", p50 as f64);
    values.set("op_p90_us", p90 as f64);
    values.set("ops_per_s", completed as f64 / measured.closed_secs);
    values.set("setup_s", median(&setup_s));
    values.set("peak_rss_mb", peak_rss_mb);
    let notes = vec![
        ("op_p50_us".to_string(), latencies.len() as u64),
        ("op_p90_us".to_string(), latencies.len() as u64),
        ("ops_per_s".to_string(), completed as u64),
        ("setup_s".to_string(), SETUPS as u64),
    ];
    let correct = failed == 0 && measured.layers_separate(run.workload);
    (result_line(correct, attempted.max(1), failed, &values), notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    fn metric_names(line: &str) -> Vec<String> {
        let doc = serde_json::from_str(line).expect("result line is JSON");
        let Value::Object(keys) = &doc else { panic!("result is an object") };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true), "{line}");
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Object(metrics)) = doc.get("metrics") else { panic!("metrics object") };
        metrics.iter().map(|(name, _)| name.clone()).collect()
    }

    fn run_args(trace: bool, out: &std::path::Path) -> RunArgs {
        RunArgs { workload: Workload::ServeCold, seed: 5, seconds: 1, trace, out: out.to_path_buf() }
    }

    /// One second of `serve-cold`, untraced and traced: each result line
    /// holds exactly the names `BENCHMARK.json` declares for its mode, every
    /// answer is correct, and the traced run leaves its span file behind.
    #[test]
    fn a_short_run_emits_exactly_the_declared_metrics() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let out = std::env::temp_dir().join(format!("pwam-ladder-test-{}", std::process::id()));

        let (line, notes) = untraced(&run_args(false, &out), nproc);
        assert_eq!(metric_names(&line), END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert!(notes.iter().all(|(_, samples)| *samples > 0));

        let traced = layers::run(Workload::ServeCold, 5, 1, nproc, &out);
        let line = result_line(traced.correct, traced.attempted, traced.failed, &traced.values);
        assert_eq!(metric_names(&line), PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        let spans = std::fs::read_to_string(out.join("spans-serve-cold-seed5.json")).expect("span file");
        let spans = serde_json::from_str(&spans).expect("span file is JSON");
        let spans = spans.as_array().expect("span array");
        assert!(spans.iter().any(|s| s.get("name").and_then(Value::as_str) == Some("core.run")));
        assert!(spans.iter().any(|s| s.get("parent").and_then(Value::as_u64).is_some()), "child spans");
        std::fs::remove_dir_all(&out).expect("test output is removed");
    }
}
