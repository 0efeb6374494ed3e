//! Correctness of the benchmark registry (the paper's four programs plus
//! `boyer`) in every execution mode.
//!
//! Each benchmark (at `Scale::Small`) must produce the correct answer
//! sequentially (WAM) and in parallel (RAP-WAM) on several PE counts, and
//! the parallel run must actually use the parallel machinery.

use pwam_benchmarks::{benchmark, extended_benchmarks, runner, BenchmarkId, Scale};
use rapwam::session::QueryOptions;

fn check(id: BenchmarkId, options: &QueryOptions) {
    let b = benchmark(id, Scale::Small);
    let (session, result) = runner::run_benchmark_with_session(&b, options)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", id.name()));
    runner::validate(&b, &session, &result).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn all_benchmarks_are_correct_sequentially() {
    for id in BenchmarkId::EXTENDED {
        check(id, &QueryOptions::sequential());
    }
}

#[test]
fn all_benchmarks_are_correct_on_one_parallel_worker() {
    for id in BenchmarkId::EXTENDED {
        check(id, &QueryOptions::parallel(1));
    }
}

#[test]
fn all_benchmarks_are_correct_on_four_workers() {
    for id in BenchmarkId::EXTENDED {
        check(id, &QueryOptions::parallel(4));
    }
}

#[test]
fn all_benchmarks_are_correct_on_eight_workers() {
    for id in BenchmarkId::EXTENDED {
        check(id, &QueryOptions::parallel(8));
    }
}

#[test]
fn parallel_runs_exercise_the_parallel_machinery() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let summary = runner::run_benchmark(&b, &QueryOptions::parallel(4)).unwrap();
        assert!(summary.result.stats.parcalls > 0, "{} did not execute any parallel call", id.name());
        assert!(
            summary.result.stats.goals_actually_parallel > 0,
            "{} never had a goal picked up by another PE",
            id.name()
        );
    }
}

#[test]
fn reference_counts_are_plausible_for_every_benchmark() {
    for b in extended_benchmarks(Scale::Small) {
        let summary = runner::run_benchmark(&b, &QueryOptions::sequential()).unwrap();
        let stats = &summary.result.stats;
        let rpi = stats.refs_per_instruction();
        assert!(rpi > 1.0 && rpi < 8.0, "{}: implausible references/instruction {rpi}", b.id.name());
        assert!(stats.instructions > 100, "{}: suspiciously few instructions", b.id.name());
    }
}

#[test]
fn parallel_work_matches_sequential_work_within_overhead_bounds() {
    // The RAP-WAM on one PE should perform the sequential work plus a modest
    // parallelism-management overhead (the paper reports ~15% for deriv).
    // With the last-goal-inline optimisation the leftmost branch of every
    // CGE runs on the parent without Goal-Frame traffic, and parcall
    // cancellation retracts the doomed siblings of a failed branch — so
    // even `queens` (generate-and-test, rejects most candidates) no longer
    // pays for speculative sibling work a sequential run short-circuits
    // past.  `fib` annotates every recursion level and stays the
    // fine-granularity worst case.  (The `overhead_gate` suite pins
    // per-benchmark *instruction* bounds; this is the coarse
    // reference-count sanity check.)
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let seq = runner::run_benchmark(&b, &QueryOptions::sequential()).unwrap();
        let par = runner::run_benchmark(&b, &QueryOptions::parallel(1)).unwrap();
        let ratio = par.result.stats.data_refs as f64 / seq.result.stats.data_refs as f64;
        let bound = if id == BenchmarkId::Fib { 1.7 } else { 1.5 };
        assert!(ratio >= 0.99, "{}: parallel work below sequential work ({ratio})", id.name());
        assert!(ratio < bound, "{}: overhead on one PE is implausibly high ({ratio})", id.name());
    }
}

#[test]
fn trace_collection_works_for_all_benchmarks() {
    for id in BenchmarkId::EXTENDED {
        let b = benchmark(id, Scale::Small);
        let opts = QueryOptions::parallel(2).with_trace();
        let summary = runner::run_benchmark(&b, &opts).unwrap();
        let trace = summary.result.trace.expect("trace requested");
        assert_eq!(trace.len() as u64, summary.result.stats.data_refs);
    }
}

#[test]
fn boyer_rejects_a_non_theorem() {
    // Conjoin the theorem with a fresh variable v(9): and(F, v(9)) is
    // falsifiable (set v(9) to false), so the prover must answer `no`.
    let mut b = benchmark(BenchmarkId::Boyer, Scale::Small);
    b.query = "gen(4, F), rw(and(F, v(9)), W), norm(W, V), decide(V, R)".to_string();
    b.validation = runner::Validation::EqualsAtom { variable: "R".to_string(), expected: "no".to_string() };
    let (session, result) = runner::run_benchmark_with_session(&b, &QueryOptions::parallel(2)).unwrap();
    runner::validate(&b, &session, &result).unwrap();
}
