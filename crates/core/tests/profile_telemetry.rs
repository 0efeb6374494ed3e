//! The observability plane's core half: per-predicate instruction
//! attribution on the flat dispatch path and the scheduler telemetry
//! counters surfaced through `RunStats`.

use rapwam::session::{QueryOptions, Session};
use rapwam::{Outcome, RunStats};

const NREV: &str = "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).\n\
                    nrev([],[]).\nnrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).";

fn run_stats(program: &str, query: &str, opts: &QueryOptions) -> RunStats {
    let mut s = Session::new(program).expect("program parses");
    let r = s.run(query, opts).expect("query runs");
    assert!(matches!(r.outcome, Outcome::Success(_)), "query should succeed");
    r.stats
}

fn profiled(stats: &RunStats, label: &str) -> u64 {
    stats.predicate_profile.iter().find(|(l, _)| l == label).map(|(_, c)| *c).unwrap_or(0)
}

#[test]
fn profile_is_exact_and_labelled() {
    let stats = run_stats(NREV, "nrev([1,2,3,4,5,6,7,8],R)", &QueryOptions::sequential());
    // Every instruction the flat path retires is attributed to exactly one
    // predicate (the residual run is folded in read-only), so the profile
    // total equals the instruction counter — not approximately, exactly.
    let total: u64 = stats.predicate_profile.iter().map(|(_, c)| c).sum();
    assert_eq!(total, stats.instructions);
    // Both predicates show up under resolved name/arity labels, and nrev's
    // quadratic append dominates the work.
    assert!(profiled(&stats, "app/3") > 0, "profile: {:?}", stats.predicate_profile);
    assert!(profiled(&stats, "nrev/2") > 0, "profile: {:?}", stats.predicate_profile);
    assert!(profiled(&stats, "app/3") > profiled(&stats, "nrev/2"));
    // Sorted by decreasing count.
    let counts: Vec<u64> = stats.predicate_profile.iter().map(|(_, c)| *c).collect();
    let mut sorted = counts.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(counts, sorted);
}

#[test]
fn parallel_profile_still_sums_to_instructions() {
    let program = format!("{NREV}\nmain(A,B) :- nrev([1,2,3,4,5],A) & nrev([6,7,8,9],B).");
    let stats = run_stats(&program, "main(A,B)", &QueryOptions::parallel(2));
    let total: u64 = stats.predicate_profile.iter().map(|(_, c)| c).sum();
    assert_eq!(total, stats.instructions);
    assert!(profiled(&stats, "app/3") > 0);
}

#[test]
fn scheduler_telemetry_is_coherent() {
    let program = format!("{NREV}\nmain(A,B) :- nrev([1,2,3,4,5],A) & nrev([6,7,8,9],B).");
    let stats = run_stats(&program, "main(A,B)", &QueryOptions::parallel(2));
    for w in &stats.workers {
        // A scan that found a goal is a subset of the scans attempted.
        assert!(
            w.steal_attempts >= w.goals_stolen,
            "attempts {} < steals {}",
            w.steal_attempts,
            w.goals_stolen
        );
        // Strict interleaved backend: the relaxed idle ladder never runs.
        assert_eq!(w.backoff_yields, 0);
        assert_eq!(w.backoff_parks, 0);
        assert_eq!(w.park_micros, 0);
    }
    // The driver observed at least one batch boundary on the worker that
    // ran the query, and the final batch parks (query finished).
    let exits: u64 = stats.workers.iter().map(|w| w.batch_exits_budget + w.batch_exits_park).sum();
    assert!(exits > 0);
    let parks: u64 = stats.workers.iter().map(|w| w.batch_exits_park).sum();
    assert!(parks > 0);
}
