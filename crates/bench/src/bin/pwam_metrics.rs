//! `pwam-metrics` — scrape a `pwam-serve` instance's `metrics` (and
//! optionally `events`) verb, print the exposition, and assert required
//! series for CI.
//!
//! ```text
//! pwam-metrics --addr HOST:PORT [--require SERIES]... [--require-present SERIES]...
//!              [--events N] [--quiet]
//! ```
//!
//! `--require SERIES` asserts the series exists **and is nonzero**;
//! `--require-present SERIES` only asserts it exists (gauges may
//! legitimately read 0).  A bare family name (`pwam_pe_steals_total`)
//! sums every labelled series of that family; a full sample name with
//! labels (`pwam_pe_steals_total{pe="1"}`) matches exactly.  The process
//! exits non-zero when any assertion fails, so the CI server-smoke job
//! can gate on "the telemetry plane actually observed the load".

use pwam_bench::cli::{arg_value, num_arg, reject_unknown_flags, usage_error};
use pwam_obs::{parse_sample, sum_family};
use pwam_server::Client;

/// Every value following an occurrence of `key` in `args`.
fn arg_values(args: &[String], key: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == key {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// The series' value in the exposition: an exact sample when the name
/// carries labels (or matches a plain sample), else the sum over every
/// labelled series of the family.
fn lookup(text: &str, series: &str) -> Option<u64> {
    if let Some(v) = parse_sample(text, series) {
        return Some(v);
    }
    if series.contains('{') {
        return None;
    }
    // A family with labelled series only: present iff any sample line
    // carries the `family{` prefix.
    let prefix = format!("{series}{{");
    let labelled = text.lines().any(|l| !l.starts_with('#') && l.starts_with(&prefix));
    labelled.then(|| sum_family(text, series))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: pwam-metrics --addr HOST:PORT [--require SERIES]...\n\
             \x20                  [--require-present SERIES]... [--events N] [--quiet]"
        );
        return;
    }
    reject_unknown_flags(
        &args,
        &[
            ("--addr", true),
            ("--require", true),
            ("--require-present", true),
            ("--events", true),
            ("--quiet", false),
        ],
    );
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| usage_error("--addr is required"));
    let require = arg_values(&args, "--require");
    let require_present = arg_values(&args, "--require-present");
    let events = num_arg(&args, "--events");
    let quiet = args.iter().any(|a| a == "--quiet");

    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("pwam-metrics: cannot reach server at {addr}: {e}");
        std::process::exit(1);
    });
    let text = client.metrics().unwrap_or_else(|e| {
        eprintln!("pwam-metrics: metrics scrape failed: {e}");
        std::process::exit(1);
    });
    if !quiet {
        print!("{text}");
    }
    if let Some(n) = events {
        let events = client.events(Some(n)).unwrap_or_else(|e| {
            eprintln!("pwam-metrics: events fetch failed: {e}");
            std::process::exit(1);
        });
        if !quiet {
            eprintln!("--- last {n} lifecycle events ---");
            print!("{events}");
        }
    }

    let mut failures = 0;
    for series in &require {
        match lookup(&text, series) {
            Some(0) => {
                eprintln!("pwam-metrics: required series {series} is zero");
                failures += 1;
            }
            Some(v) => {
                if !quiet {
                    eprintln!("pwam-metrics: ok {series} = {v}");
                }
            }
            None => {
                eprintln!("pwam-metrics: required series {series} is missing");
                failures += 1;
            }
        }
    }
    for series in &require_present {
        match lookup(&text, series) {
            Some(v) => {
                if !quiet {
                    eprintln!("pwam-metrics: ok {series} = {v} (presence)");
                }
            }
            None => {
                eprintln!("pwam-metrics: required series {series} is missing");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("pwam-metrics: {failures} assertion(s) failed");
        std::process::exit(1);
    }
}
