//! End-to-end tests of the abstract machine: parse → compile → execute and
//! check the answers, in both sequential-WAM and parallel-RAP-WAM modes.

use rapwam::session::{QueryOptions, Session};
use rapwam::{MemoryConfig, Outcome};

fn run(program: &str, query: &str, opts: &QueryOptions) -> (Session, rapwam::RunResult) {
    let mut s = Session::new(program).expect("program parses");
    let r = s.run(query, opts).expect("query runs");
    (s, r)
}

fn answer(program: &str, query: &str, opts: &QueryOptions, var: &str) -> String {
    let (s, r) = run(program, query, opts);
    match &r.outcome {
        Outcome::Success(_) => {
            let t = r.outcome.binding(var).unwrap_or_else(|| panic!("no binding for {var}"));
            s.render(t)
        }
        Outcome::Failure => panic!("query failed"),
    }
}

const APPEND: &str = "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).";

#[test]
fn facts_unify() {
    let (_, r) = run("parent(tom, bob).\nparent(bob, ann).", "parent(tom, X)", &QueryOptions::sequential());
    assert!(r.outcome.is_success());
}

#[test]
fn query_failure_is_reported() {
    let (_, r) = run("parent(tom, bob).", "parent(bob, tom)", &QueryOptions::sequential());
    assert_eq!(r.outcome, Outcome::Failure);
}

#[test]
fn append_builds_lists() {
    assert_eq!(answer(APPEND, "app([1,2],[3,4],X)", &QueryOptions::sequential(), "X"), "[1,2,3,4]");
}

#[test]
fn append_solves_for_the_middle_argument() {
    assert_eq!(answer(APPEND, "app([1,2],Y,[1,2,9,10])", &QueryOptions::sequential(), "Y"), "[9,10]");
}

#[test]
fn append_backtracks_through_alternatives() {
    // app(X, Y, [1,2]) has three solutions; the first has X = [].
    assert_eq!(answer(APPEND, "app(X,Y,[1,2])", &QueryOptions::sequential(), "X"), "[]");
}

#[test]
fn naive_reverse() {
    let program = format!("{APPEND}\nnrev([],[]).\nnrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).");
    assert_eq!(answer(&program, "nrev([1,2,3,4,5],R)", &QueryOptions::sequential(), "R"), "[5,4,3,2,1]");
}

#[test]
fn arithmetic_factorial() {
    let program = "fact(0, 1).\nfact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.";
    assert_eq!(answer(program, "fact(6, F)", &QueryOptions::sequential(), "F"), "720");
}

#[test]
fn comparison_builtins() {
    let program = "max(X, Y, X) :- X >= Y.\nmax(X, Y, Y) :- X < Y.";
    assert_eq!(answer(program, "max(3, 7, M)", &QueryOptions::sequential(), "M"), "7");
    assert_eq!(answer(program, "max(9, 2, M)", &QueryOptions::sequential(), "M"), "9");
}

#[test]
fn cut_commits_to_the_first_clause() {
    let program = "classify(X, small) :- X < 10, !.\nclassify(_, big).";
    assert_eq!(answer(program, "classify(3, C)", &QueryOptions::sequential(), "C"), "small");
    assert_eq!(answer(program, "classify(30, C)", &QueryOptions::sequential(), "C"), "big");
}

#[test]
fn cut_prevents_backtracking_into_earlier_alternatives() {
    // Without the cut, the query would succeed via c(2); with it, it fails.
    let program = "c(1).\nc(2).\nt(X) :- c(X), !, X > 1.";
    let (_, r) = run(program, "t(X)", &QueryOptions::sequential());
    assert_eq!(r.outcome, Outcome::Failure);
}

#[test]
fn cut_discards_the_clause_selection_choice_point() {
    // p(3, R) commits to R = a because of the cut; the query then demands
    // R = b, which must NOT be satisfiable by backtracking into p's second
    // clause (the cut discarded it).
    let program = "p(X, a) :- X < 5, !.\np(_, b).";
    let (_, r) = run(program, "p(3, R), R = b", &QueryOptions::sequential());
    assert_eq!(r.outcome, Outcome::Failure);
    // Without the demand it succeeds with R = a.
    assert_eq!(answer(program, "p(3, R)", &QueryOptions::sequential(), "R"), "a");
    // And a value that fails the guard still reaches the second clause.
    assert_eq!(answer(program, "p(7, R)", &QueryOptions::sequential(), "R"), "b");
}

#[test]
fn cut_inside_retried_clause_uses_the_correct_barrier() {
    // The first clause of q fails after creating inner choice points; the
    // second clause cuts. The cut must remove q's own selection choice point
    // but not the one belonging to the caller's alternatives.
    let program = "\
        c(1).\nc(2).\n\
        q(X) :- c(X), X > 5.\n\
        q(X) :- c(X), !.\n\
        top(X) :- q(X).\n\
        top(99).";
    assert_eq!(answer(program, "top(X)", &QueryOptions::sequential(), "X"), "1");
    // After committing inside q, demanding a different value must still be
    // able to backtrack into top's second clause (the cut is local to q).
    assert_eq!(answer(program, "top(X), X > 10", &QueryOptions::sequential(), "X"), "99");
}

#[test]
fn structures_and_nested_terms() {
    let program = "mk(point(X, Y), X, Y).\nswap(point(X,Y), point(Y,X)).";
    assert_eq!(answer(program, "mk(P, 3, 4)", &QueryOptions::sequential(), "P"), "point(3,4)");
    assert_eq!(answer(program, "swap(point(a,f(b)), Q)", &QueryOptions::sequential(), "Q"), "point(f(b),a)");
}

#[test]
fn constant_indexing_picks_the_right_clause() {
    let program = "color(red, warm).\ncolor(blue, cold).\ncolor(green, fresh).";
    assert_eq!(answer(program, "color(blue, T)", &QueryOptions::sequential(), "T"), "cold");
}

#[test]
fn structure_indexing_discriminates_functors() {
    let program = "\
        eval(num(N), N).\n\
        eval(plus(A,B), R) :- eval(A, RA), eval(B, RB), R is RA + RB.\n\
        eval(times(A,B), R) :- eval(A, RA), eval(B, RB), R is RA * RB.";
    assert_eq!(
        answer(program, "eval(plus(num(2), times(num(3), num(4))), R)", &QueryOptions::sequential(), "R"),
        "14"
    );
}

#[test]
fn difference_list_quicksort_sequential() {
    let program = "\
        qsort([], R, R).\n\
        qsort([X|L], R, R0) :- partition(L, X, L1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).\n\
        partition([], _, [], []).\n\
        partition([E|R], C, [E|L1], L2) :- E =< C, partition(R, C, L1, L2).\n\
        partition([E|R], C, L1, [E|L2]) :- E > C, partition(R, C, L1, L2).";
    assert_eq!(
        answer(program, "qsort([3,1,4,1,5,9,2,6], S, [])", &QueryOptions::sequential(), "S"),
        "[1,1,2,3,4,5,6,9]"
    );
}

const PAR_FIB: &str = "\
    fib(0, 0).\n\
    fib(1, 1).\n\
    fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
                 (ground(N1), ground(N2) | fib(N1, F1) & fib(N2, F2)),\n\
                 F is F1 + F2.";

#[test]
fn parallel_fib_single_worker() {
    assert_eq!(answer(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(1), "F"), "144");
}

#[test]
fn parallel_fib_matches_sequential_on_many_workers() {
    let seq = answer(PAR_FIB, "fib(13, F)", &QueryOptions::sequential(), "F");
    for workers in [2, 4, 8] {
        let par = answer(PAR_FIB, "fib(13, F)", &QueryOptions::parallel(workers), "F");
        assert_eq!(par, seq, "with {workers} workers");
    }
}

#[test]
fn parallel_execution_actually_distributes_goals() {
    let (_, r) = run(PAR_FIB, "fib(14, F)", &QueryOptions::parallel(4));
    assert!(r.stats.parcalls > 0, "no parallel calls were made");
    assert!(r.stats.goals_actually_parallel > 0, "no goal was executed by a non-parent PE");
    // More than one worker must have executed instructions.
    let busy = r.stats.workers.iter().filter(|w| w.instructions > 0).count();
    assert!(busy >= 2, "only {busy} workers did any work");
}

#[test]
fn unconditional_cge_runs_in_parallel() {
    let program = "\
        work(0, []).\n\
        work(N, [N|T]) :- N > 0, N1 is N - 1, work(N1, T).\n\
        both(A, B) :- (work(40, A) & work(40, B)).";
    let (_, r) = run(program, "both(A, B)", &QueryOptions::parallel(2));
    assert!(r.outcome.is_success());
    assert!(r.stats.parcalls >= 1);
}

#[test]
fn failed_cge_condition_falls_back_to_sequential_execution() {
    // X is unbound at the check, so ground(X) fails and the CGE must run
    // sequentially (left to right), which still produces the answer.
    let program = "\
        p(X, Y) :- (ground(X) | q(X) & r(X, Y)).\n\
        q(7).\n\
        r(7, ok).";
    let (s, r) = run(program, "p(X, Y)", &QueryOptions::parallel(2));
    assert!(r.outcome.is_success());
    assert_eq!(s.render(r.outcome.binding("Y").unwrap()), "ok");
    assert_eq!(r.stats.parcalls, 0, "the parallel path must not have been taken");
}

#[test]
fn indep_condition_detects_sharing() {
    // X and Y share a variable, so indep(X, Y) fails and execution is
    // sequential; the answer must still be correct.
    let program = "\
        p(R) :- X = f(Z), Y = g(Z), (indep(X, Y) | a(X) & b(Y)), R = done(X, Y), Z = 1.\n\
        a(f(_)).\n\
        b(g(_)).";
    let (s, r) = run(program, "p(R)", &QueryOptions::parallel(2));
    assert!(r.outcome.is_success());
    assert_eq!(s.render(r.outcome.binding("R").unwrap()), "done(f(1),g(1))");
    assert_eq!(r.stats.parcalls, 0);
}

#[test]
fn parallel_goal_failure_fails_the_call() {
    let program = "\
        p :- (q & r).\n\
        q.\n\
        r :- fail.";
    let (_, r) = run(program, "p", &QueryOptions::parallel(2));
    assert_eq!(r.outcome, Outcome::Failure);
}

#[test]
fn parallel_binding_of_output_variables_crosses_workers() {
    let program = "\
        mklist(0, []).\n\
        mklist(N, [N|T]) :- N > 0, N1 is N - 1, mklist(N1, T).\n\
        pair(A, B) :- (mklist(5, A) & mklist(3, B)).";
    let (s, r) = run(program, "pair(A, B)", &QueryOptions::parallel(3));
    assert_eq!(s.render(r.outcome.binding("A").unwrap()), "[5,4,3,2,1]");
    assert_eq!(s.render(r.outcome.binding("B").unwrap()), "[3,2,1]");
}

#[test]
fn trace_collection_produces_consistent_references() {
    let opts = QueryOptions { trace: true, ..QueryOptions::parallel(2) };
    let (_, r) = run(PAR_FIB, "fib(10, F)", &opts);
    let trace = r.trace.expect("trace was requested");
    assert_eq!(trace.len() as u64, r.stats.data_refs, "trace length must equal the reference count");
    assert!(!trace.is_empty());
    for m in &trace {
        assert!((m.pe as usize) < 2);
    }
}

#[test]
fn stats_have_plausible_magnitudes() {
    let (_, r) = run(PAR_FIB, "fib(12, F)", &QueryOptions::sequential());
    let rpi = r.stats.refs_per_instruction();
    assert!(rpi > 1.0 && rpi < 8.0, "references per instruction {rpi} is implausible");
    assert!(r.stats.instructions > 100);
    assert!(r.stats.inferences > 10);
    assert!(r.stats.elapsed_cycles > 0);
}

#[test]
fn sequential_and_parallel_reference_counts_are_close_on_one_pe() {
    // RAP-WAM on one PE should do only slightly more work than the WAM
    // (the parallelism-management overhead), as reported in the paper.
    let (_, seq) = run(PAR_FIB, "fib(12, F)", &QueryOptions::sequential());
    let (_, par1) = run(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(1));
    let ratio = par1.stats.data_refs as f64 / seq.stats.data_refs as f64;
    assert!(ratio >= 1.0, "parallel mode cannot do less work than sequential ({ratio})");
    // fib annotates *every* recursion level, which is the most extreme
    // granularity possible; the paper's benchmarks are coarser and show
    // ~15% overhead (checked by the figure2 harness on deriv).  With the
    // last-goal-inline optimisation the leftmost branch of each CGE runs
    // on the parent without any Goal-Frame traffic, so even this
    // finest-granularity worst case stays under 1.7x in references (and
    // under 1.8x in instructions — pinned for the whole registry by the
    // `overhead_gate` suite in pwam_benchmarks).
    assert!(ratio < 1.7, "overhead of {ratio} on one PE is implausibly high");
}

#[test]
fn inline_execution_keeps_the_local_stack_bounded() {
    // Regression test: discarding an inline leaf's clause-selection choice
    // point (the parcall's first-solution commit) once froze
    // `stack_boundary` at that point's saved local top, below which no
    // environment or Parcall Frame could ever be reclaimed — local usage
    // then grew with the *call tree* (~6300 words for fib(13)) instead of
    // the recursion depth, and relaxed runs on small arenas hit
    // OutOfMemory.  Deterministic on one interleaved PE: with the
    // boundaries restored from the goal-entry state, fib(13) needs well
    // under 500 local words.
    let (_, r) = run(PAR_FIB, "fib(13, F)", &QueryOptions::parallel(1));
    let (_, local, _, _, _) = r.stats.workers[0].max_usage;
    assert!(local < 500, "local stack grew to {local} words; frame reclamation regressed");
}

#[test]
fn inline_first_goal_toggle_preserves_answers() {
    // The Goal-Frame-everywhere compilation stays available (and correct)
    // behind the toggle; only the overhead differs.
    let seq = answer(PAR_FIB, "fib(12, F)", &QueryOptions::sequential(), "F");
    for workers in [1, 4] {
        let with_inline = answer(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(workers), "F");
        let without =
            answer(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(workers).without_inline_first_goal(), "F");
        assert_eq!(with_inline, seq, "{workers} workers, inline on");
        assert_eq!(without, seq, "{workers} workers, inline off");
    }
    let (_, on) = run(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(1));
    let (_, off) = run(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(1).without_inline_first_goal());
    assert!(
        on.stats.instructions < off.stats.instructions,
        "inline execution must save instructions ({} !< {})",
        on.stats.instructions,
        off.stats.instructions
    );
}

#[test]
fn small_memory_configuration_is_sufficient_for_small_programs() {
    let opts = QueryOptions { memory: MemoryConfig::small(), ..QueryOptions::sequential() };
    assert_eq!(answer(APPEND, "app([1,2,3],[4],X)", &opts, "X"), "[1,2,3,4]");
}

#[test]
fn heap_overflow_is_reported_not_panicking() {
    let tiny = MemoryConfig {
        heap_words: 64,
        local_words: 64,
        control_words: 64,
        trail_words: 32,
        pdl_words: 32,
        goal_stack_words: 32,
        message_words: 8,
    };
    let program = "grow(0, []).\ngrow(N, [N|T]) :- N > 0, N1 is N - 1, grow(N1, T).";
    let mut s = Session::new(program).unwrap();
    let opts = QueryOptions { memory: tiny, ..QueryOptions::sequential() };
    let err = s.run("grow(1000, L)", &opts).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of memory"), "unexpected error: {msg}");
}

#[test]
fn deep_recursion_with_last_call_optimisation_keeps_the_local_stack_flat() {
    let program = "count(0).\ncount(N) :- N > 0, N1 is N - 1, count(N1).";
    let (_, r) = run(program, "count(5000)", &QueryOptions::sequential());
    assert!(r.outcome.is_success());
    // With LCO the local stack must stay bounded (a handful of frames), not
    // grow linearly with the recursion depth.
    let (_, local, _, _, _) = r.stats.workers[0].max_usage;
    assert!(local < 1000, "local stack grew to {local} words; LCO is not working");
}

#[test]
fn three_way_parallel_conjunction() {
    let program = "\
        len([], 0).\n\
        len([_|T], N) :- len(T, M), N is M + 1.\n\
        tri(A, B, C) :- (len([a,b,c], A) & len([d,e], B) & len([], C)).";
    let (s, r) = run(program, "tri(A, B, C)", &QueryOptions::parallel(3));
    assert_eq!(s.render(r.outcome.binding("A").unwrap()), "3");
    assert_eq!(s.render(r.outcome.binding("B").unwrap()), "2");
    assert_eq!(s.render(r.outcome.binding("C").unwrap()), "0");
}

#[test]
fn nested_parallel_calls() {
    let program = "\
        leaf(X, X).\n\
        node(N, R) :- N > 0, N1 is N - 1,\n\
                      (ground(N1) | node(N1, A) & node(N1, B)),\n\
                      R is A + B + 1.\n\
        node(0, 1).";
    // A small binary tree of parallel calls; value is 2^(N+1) - 1.
    let seq = answer(program, "node(6, R)", &QueryOptions::sequential(), "R");
    assert_eq!(seq, "127");
    for workers in [2, 5, 8] {
        assert_eq!(answer(program, "node(6, R)", &QueryOptions::parallel(workers), "R"), "127");
    }
}

#[test]
fn goals_in_parallel_counted_only_for_other_pes() {
    let (_, r1) = run(PAR_FIB, "fib(12, F)", &QueryOptions::parallel(1));
    // With a single worker nothing can be picked up by another PE.
    assert_eq!(r1.stats.goals_actually_parallel, 0);
    assert!(r1.stats.parallel_goals > 0);
}

/// A CGE whose inline (leftmost) branch fails after `WBad` reductions while
/// the scheduled sibling runs `2 × WMid` reductions through a *nested*
/// parcall of its own.  Once the thief is inside that inner parcall, a
/// `cancel_goal` request for the outer goal is dropped (the goal is no
/// longer the executor's innermost safely-abortable activity), so the
/// cancelling parent must wait for the full drain — the scenario where a
/// per-request deadline can expire mid-cancellation.
const SLOW_CANCEL: &str = "\
    work(0).\n\
    work(N) :- N > 0, N1 is N - 1, work(N1).\n\
    bad(W) :- work(W), fail.\n\
    mid(1, W) :- work(W).\n\
    slow(X, W) :- (mid(A, W) & mid(B, W)), X is A + B.\n\
    p(R, WBad, WMid) :- (bad(WBad) & slow(R, WMid)).";

#[test]
fn cancellation_drain_completes_under_a_generous_deadline() {
    // The inline branch fails while the sibling may be stolen and in
    // flight; with a deadline that comfortably covers the drain, the query
    // must fail *cleanly* through the completion protocol.
    for workers in [1, 2, 4] {
        let opts = QueryOptions::parallel(workers).with_time_budget(std::time::Duration::from_secs(30));
        let (_, r) = run(SLOW_CANCEL, "p(R, 0, 2000)", &opts);
        assert_eq!(r.outcome, Outcome::Failure, "{workers} workers");
        assert!(r.stats.parcalls_cancelled >= 1, "{workers} workers: no cancellation recorded");
    }
}

#[test]
fn deadline_mid_cancellation_is_reported_not_hung() {
    // By the time the inline branch has ground through its 20k reductions
    // and failed, the (deterministically stolen) sibling is inside its
    // inner parcall — non-abortable — with ~1M reductions to go: the
    // wall-clock budget expires while the parent is parked in
    // `Cancelling`, and the engine must surface DeadlineExceeded instead
    // of hanging or corrupting state.
    let mut s = Session::new(SLOW_CANCEL).unwrap();
    let opts = QueryOptions::parallel(2).with_time_budget(std::time::Duration::from_millis(40));
    let err = s.run("p(R, 20000, 500000)", &opts).unwrap_err();
    assert!(err.to_string().contains("deadline"), "unexpected error: {err}");
}

#[test]
fn relaxed_deadline_mid_cancellation_unwinds_every_thread() {
    // The 8-thread relaxed stress of the same scenario: all free-running
    // threads must observe the deadline abort and wind down (a hang here
    // fails the harness timeout).  Steal timing is an actual race in
    // relaxed mode: if the retraction wins (the sibling was never stolen),
    // the failure is immediate and clean — both outcomes are sound, but a
    // stolen-and-draining sibling must end in DeadlineExceeded.
    let mut s = Session::new(SLOW_CANCEL).unwrap();
    let opts = QueryOptions::relaxed(8).with_time_budget(std::time::Duration::from_millis(40));
    for _ in 0..3 {
        match s.run("p(R, 20000, 500000)", &opts) {
            Err(e) => assert!(e.to_string().contains("deadline"), "unexpected error: {e}"),
            Ok(r) => assert_eq!(r.outcome, Outcome::Failure, "retraction path must still fail cleanly"),
        }
    }
}

#[test]
fn cut_with_fewer_live_args_does_not_clobber_wider_choice_points() {
    // Regression test: `recede_control_top` used the *current* register
    // count to bound the topmost choice point.  When a predicate with fewer
    // arguments (memb/2) cut while a wider frame (taut/3) was topmost, the
    // receded top landed inside the live frame and the next push overwrote
    // its saved fields, corrupting the backtracking chain.
    let program = "\
        taut(t, _, _) :- !.\n\
        taut(if(C, T, _), True, False) :- memb(C, True), !, taut(T, True, False).\n\
        taut(if(C, _, E), True, False) :- memb(C, False), !, taut(E, True, False).\n\
        taut(if(C, T, E), True, False) :- !, taut(T, [C|True], False), taut(E, True, [C|False]).\n\
        taut(X, True, _) :- memb(X, True).\n\
        memb(X, [X|_]) :- !.\n\
        memb(X, [_|T]) :- memb(X, T).";
    let (_, r) = run(program, "taut(if(v, t, t), [], [])", &QueryOptions::sequential());
    assert!(r.outcome.is_success());
    // The nested case exercises re-entry into the wide frames after the cut.
    let (_, r) = run(program, "taut(if(a, if(b, t, t), if(b, t, f)), [], [])", &QueryOptions::sequential());
    assert_eq!(r.outcome, Outcome::Failure); // else-else branch is f
    let (_, r) = run(program, "taut(if(a, if(b, t, t), if(b, t, t)), [], [])", &QueryOptions::parallel(2));
    assert!(r.outcome.is_success());
}

#[test]
fn neck_cut_commits_to_the_first_matching_clause() {
    // The compiler routes source-level cuts through `get_level`/`cut_to`,
    // so `neck_cut` only appears in hand-written or externally generated
    // code — build one by patching a compiled program: replace the first
    // body call of `p(1) :- s, s.` with `neck_cut`, turning the clause
    // into `p(1) :- !, s.`.
    use pwam_compiler::{DenseCode, Instr};
    use rapwam::{Engine, EngineConfig};

    let src = "s.\nq(2).\np(1) :- s, s.\np(2).";
    let mut session = Session::new(src).unwrap();
    let mut prog = session.compile("p(X), q(X)", false).unwrap();

    let run_prog = |prog: &pwam_compiler::CompiledProgram, config: EngineConfig| {
        Engine::new(prog, config).run(session.symbols()).unwrap()
    };

    // Unpatched, the query backtracks out of p/1's first clause and finds
    // the X = 2 solution.
    let r = run_prog(&prog, QueryOptions::sequential().engine_config());
    assert!(r.outcome.is_success(), "without neck_cut the query must succeed via p(2)");

    // Patch: the first `call` after p/1's entry is the first body goal of
    // its first clause, right after head unification.
    let p_atom = session.symbols().lookup("p").expect("p interned");
    let entry = prog.entry(p_atom, 1).expect("p/1 compiled");
    let call_at = (entry as usize..prog.code.len())
        .find(|i| matches!(prog.code[*i], Instr::Call { .. }))
        .expect("p/1 clause 1 has a body call");
    prog.code[call_at] = Instr::NeckCut;
    prog.dense = DenseCode::build(&prog.code);

    // Patched, the neck cut discards p/1's clause choice point before the
    // body runs: q(1) fails and there is nothing left to retry.
    let cut = run_prog(&prog, QueryOptions::sequential().engine_config());
    assert_eq!(cut.outcome, Outcome::Failure, "neck_cut must commit p/1 to its first clause");

    // Recorded while a second executor (the classic dispatch loop, since
    // deleted) still reproduced them: the cut's own accounting.
    assert_eq!((cut.stats.instructions, cut.stats.data_refs), (14, 26));
}
