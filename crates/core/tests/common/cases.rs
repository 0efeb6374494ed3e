//! The inputs whose reference streams are pinned by recorded goldens, and
//! what a golden pins of them.  `examples/trace_goldens.rs` includes this
//! file, so the regenerator prints its rows from the very constants and
//! functions the suites check them with.
#![allow(dead_code)]

use pwam_benchmarks::BenchmarkId;
use rapwam::session::{CursorStep, QueryOptions, Session};
use rapwam::trace::fingerprint;
use rapwam::{MemRef, RunStats};

/// One program of the random-program generators.
#[derive(Debug, Clone)]
pub struct Case {
    /// Random fact table `f(K, V).` — clause-selection fodder.
    pub facts: Vec<(i64, i64)>,
    /// Query list for the backtracking search.
    pub list: Vec<i64>,
    /// Search threshold.
    pub k: i64,
    /// Commit the search to its first hit with a cut.
    pub cut: bool,
    /// Route the search through a CGE (`&`) so parcalls execute.
    pub parallel: bool,
    /// Worker count for the engine.
    pub workers: usize,
}

impl Case {
    /// Keep the first fact of every key: `f(X, _)` then succeeds at most once
    /// per bound `X`, like a semi-deterministic host predicate.
    pub fn one_fact_per_key(mut self) -> Case {
        let mut seen = std::collections::HashSet::new();
        self.facts.retain(|(k, _)| seen.insert(*k));
        self
    }
}

/// `host`: emit the membership check as a call to the host predicate `hf/1`
/// instead of consulting the compiled `f/2` table.  A parallel host case
/// makes that call the second branch of a CGE, so a Goal Frame enters the
/// host predicate, and searches sequentially around it.
pub fn program(c: &Case, host: bool) -> String {
    let mut p = String::new();
    // Sentinel clause outside the generated value range, so f/2 exists even
    // when the random table is empty (and the search can still fail on it).
    p.push_str("f(99, 99).\n");
    for (k, v) in &c.facts {
        p.push_str(&format!("f({k}, {v}).\n"));
    }
    p.push_str("pick(X, [X|_]).\npick(X, [_|T]) :- pick(X, T).\n");
    // The search backtracks through `pick` alternatives, consults the
    // random fact table, and optionally commits with a cut.
    let commit = if c.cut { ", !" } else { "" };
    let good = match (host, c.parallel) {
        (false, _) => "pick(X, L), X > K, f(X, _)",
        (true, false) => "pick(X, L), X > K, hf(X)",
        (true, true) => "pick(X, L), (ground(X), ground(K) | X > K & hf(X))",
    };
    p.push_str(&format!("good(X, L, K) :- {good}{commit}.\n"));
    if c.parallel && !host {
        p.push_str(
            "search(L, K, pair(A, B)) :- \
             (ground(L), ground(K) | good(A, L, K) & good(B, L, K)).\n",
        );
    } else {
        p.push_str("search(L, K, pair(A, B)) :- good(A, L, K), good(B, L, K).\n");
    }
    p.push_str("search(_, _, none).\n");
    p
}

pub fn query(c: &Case) -> String {
    let items: Vec<String> = c.list.iter().map(|i| i.to_string()).collect();
    format!("search([{}], {}, R)", items.join(","), c.k)
}

/// The generator cases with recorded goldens: cut × parallel × 1/2/3 workers,
/// each worker count with its own table (duplicate keys, misses, a threshold
/// inside the list) so every stream has at least two answers.
pub fn golden_cases() -> Vec<Case> {
    type Input = (&'static [(i64, i64)], &'static [i64], i64);
    let inputs: [Input; 3] = [
        (&[(3, 1), (5, 2), (3, 7), (-2, 4)], &[5, -2, 3, 7, 3], 0),
        (&[(-4, 0), (8, 8), (1, -1)], &[-9, 1, 8, 2, -4, 8], -5),
        (&[(6, 6), (6, 5), (0, 9), (2, 2), (9, 0)], &[0, 1, 9, 4, 6, 2, 6], 1),
    ];
    let mut cases = Vec::new();
    for cut in [false, true] {
        for parallel in [false, true] {
            for (i, (facts, list, k)) in inputs.iter().enumerate() {
                let (facts, list) = (facts.to_vec(), list.to_vec());
                cases.push(Case { facts, list, k: *k, cut, parallel, workers: i + 1 });
            }
        }
    }
    cases
}

/// What a golden row pins of one traced execution: `instructions`,
/// `data_refs`, the trace length and the trace fingerprint.
pub type Pin = (u64, u64, usize, u64);

pub fn pin(stats: &RunStats, trace: &[MemRef]) -> Pin {
    (stats.instructions, stats.data_refs, trace.len(), fingerprint(trace))
}

/// The pin of `c` run to its first answer on the interleaved backend.
pub fn first_answer_pin(c: &Case) -> Pin {
    let mut s = Session::new(&program(c, false)).expect("program parses");
    let r = s.run(&query(c), &QueryOptions::parallel(c.workers).with_trace()).expect("query runs");
    pin(&r.stats, r.trace.as_ref().expect("trace requested"))
}

/// The pin of `c`'s whole answer stream, every `Redo` re-entry included.
pub fn stream_pin(c: &Case) -> Pin {
    let opts = QueryOptions::parallel(c.workers).with_trace();
    let mut s = Session::new(&program(c, false)).expect("program parses");
    let compiled = s.prepare_with(&query(c), opts.compile_options()).expect("query compiles");
    let mut cursor = s.open_cursor(&compiled, &opts, None).expect("cursor opens");
    while cursor.next().expect("cursor step").is_some() {}
    pin(&cursor.stats().expect("live engine"), &cursor.take_trace().expect("trace requested"))
}

pub const PERM: &str = "app([],L,L).\n\
                        app([H|T],L,[H|R]) :- app(T,L,R).\n\
                        perm([],[]).\n\
                        perm(L,[H|T]) :- app(V,[H|U],L), app(V,U,W), perm(W,T).";

pub const PERM_QUERY: &str = "perm([1,2,3,4], P)";

/// A CGE-bearing program so the parallel machinery (parcall frames, goal
/// stacks, waiting workers) is live at preemption points.
pub const PAR_SUM: &str = "sum([], 0).\n\
                           sum([X|Xs], S) :- (ground(Xs) | sum(Xs, S1) & sq(X, X2)), S is S1 + X2.\n\
                           sq(X, Y) :- Y is X * X.";

pub const PAR_SUM_QUERY: &str = "sum([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16], S)";

/// (program, query, workers) of `fuel_differential`, which pins the machine
/// state at these preemptions of a run under this much fuel per leg: the
/// first exercises `run_resumable`'s fuel leg, the later one the
/// `resume(Continue)` re-arm path.
pub const FUEL_PROGRAMS: [(&str, &str, usize); 2] = [(PERM, PERM_QUERY, 1), (PAR_SUM, PAR_SUM_QUERY, 2)];
pub const PREEMPTION_FUEL: u64 = 97;
pub const PREEMPTIONS: [usize; 2] = [1, 3];

/// `slot_batching` preempts these registry programs (`Scale::Small`, one PE)
/// after every instruction count of the sweep: qsort's first 300 instructions
/// cross calls, choice points and backtracking; queens adds deep
/// failure-driven search.
pub const FUEL_SWEEP_PROGRAMS: [BenchmarkId; 2] = [BenchmarkId::Qsort, BenchmarkId::Queens];
pub const FUEL_SWEEP: std::ops::RangeInclusive<u64> = 1..=300;

/// Step a cursor to its `n`-th fuel preemption and return the machine
/// fingerprint and the cumulative instruction count there.
pub fn state_at_preemption(program: &str, query: &str, opts: &QueryOptions, n: usize) -> (u64, u64) {
    let mut session = Session::new(program).unwrap();
    let compiled = session.prepare_with(query, opts.compile_options()).unwrap();
    let mut cursor = session.open_cursor(&compiled, opts, None).unwrap();
    let mut preemptions = 0;
    loop {
        match cursor.next_step().unwrap() {
            CursorStep::FuelExhausted => {
                preemptions += 1;
                if preemptions == n {
                    let fp = cursor.state_fingerprint().expect("live engine");
                    let steps = cursor.stats().expect("live engine").instructions;
                    return (fp, steps);
                }
            }
            CursorStep::Answer(_) => {}
            CursorStep::Exhausted => {
                panic!("query exhausted after {preemptions} preemption(s), before the requested {n}")
            }
        }
    }
}

/// FNV-1a over a sequence of machine fingerprints: one number for "the state
/// after every one of these preemptions".
pub fn fold_fingerprints(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in fingerprints.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
