//! A traced run writes its records into buffers an earlier traced run left
//! behind, so once the process is warm a traced run faults in no fresh pages
//! for them.  Growing four buffers from empty on every run cost the
//! `trace-sim` op some 700 minor page faults.
//!
//! Linux only: the count is the process's `minflt` field of
//! `/proc/self/stat`.  This file holds one test so that its binary runs
//! nothing else: a test on another thread would fault pages of its own into
//! the count.
#![cfg(target_os = "linux")]

use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use rapwam::session::{QueryOptions, Session};

/// Minor page faults this process has taken so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) is parenthesised and may hold spaces; the
    // fields after it start with the state (field 3), and `minflt` is
    // field 10.
    let after_name = &stat[stat.rfind(')').expect("a parenthesised command name") + 1..];
    after_name.split_whitespace().nth(7).and_then(|f| f.parse().ok()).expect("a minflt field")
}

#[test]
fn a_warm_traced_run_faults_in_a_tenth_of_the_pages_of_the_first() {
    // One of `trace-sim`'s programs on its machine: four PEs, traced.
    let b = benchmark(BenchmarkId::Tak, Scale::Paper);
    let options = QueryOptions::parallel(4).with_trace();
    let mut session = Session::new(&b.program).expect("registry program parses");
    let compiled =
        session.prepare_with(&b.query, options.compile_options()).expect("registry program compiles");
    let faults: Vec<u64> = (0..3)
        .map(|_| {
            let before = minor_faults();
            let result = session.run_prepared(&compiled, &options).expect("the query runs");
            let trace = result.trace.expect("trace requested");
            assert_eq!(trace.len() as u64, result.stats.data_refs);
            drop(trace);
            minor_faults() - before
        })
        .collect();
    eprintln!("minor faults per run: {faults:?}");
    assert!(
        faults[2] * 10 <= faults[0],
        "the third run faulted in {} of the first's {} pages",
        faults[2],
        faults[0]
    );
}
