//! Property tests for parcall cancellation (backward execution): random CGE
//! programs whose *inline* (leftmost) branch fails before `pcall_wait`, so
//! the parent must retract its un-stolen sibling Goal Frames and drain the
//! in-flight stolen ones through the completion protocol before its failure
//! may proceed.
//!
//! Pinned properties, for every generated program:
//!
//! * identical answers across Interleaved / Threaded-Relaxed × both
//!   `inline_first_goal` settings (four configurations), all equal to the
//!   sequential WAM reference and to the answer oracle (`common::sld`);
//! * no leaked Goal Frames after the run (every scheduled goal was picked
//!   up, retracted, or aborted — nothing is abandoned on a board);
//! * [`Engine::check_consistency`] clean after the run.
//!
//! The worker count honours `PWAM_THREADS` (default 4); CI runs this suite
//! at 2 and 8 threads in relaxed mode.

mod common;

use common::{Cge, Oracle};
use proptest::prelude::*;
use rapwam::session::{QueryOptions, Session};
use rapwam::{DeterminismMode, Engine, EngineConfig, MemoryConfig, Outcome, SchedulerKind};

/// Worker count for the parallel runs (`PWAM_THREADS`, default 4).
fn threads() -> usize {
    std::env::var("PWAM_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(4)
}

/// Shape of one generated program: the inline branch performs `fail_work`
/// reductions and then fails, while `sibling_work[i]` sized siblings run in
/// parallel (stealable, possibly in flight when the inline branch dies).
/// With `nested` the failing CGE sits inside the inline branch of an outer
/// CGE, so cancellation must walk a Parcall-Frame *chain*.
#[derive(Debug, Clone)]
struct Shape {
    fail_work: u32,
    sibling_work: Vec<u32>,
    nested: bool,
}

fn shape() -> impl Strategy<Value = Shape> {
    (0u32..12, prop::collection::vec(0u32..24, 1..4), any::<bool>())
        .prop_map(|(fail_work, sibling_work, nested)| Shape { fail_work, sibling_work, nested })
}

/// Build the program source for a shape.  `attempt/1` first tries the
/// doomed CGE (whose leftmost branch always fails after `fail_work`
/// reductions), then falls back to a clause that reports which siblings
/// were configured — so the query succeeds *through* the cancellation.
fn program(s: &Shape) -> String {
    let mut src = String::from(
        "work(0).\n\
         work(N) :- N > 0, N1 is N - 1, work(N1).\n\
         bad(K) :- work(K), fail.\n\
         good(K, K) :- work(K).\n",
    );
    let branches: Vec<String> =
        s.sibling_work.iter().enumerate().map(|(i, w)| format!("good({w}, X{i})")).collect();
    let doomed_body = format!("(bad({}) & {})", s.fail_work, branches.join(" & "));
    if s.nested {
        // The doomed CGE is itself the inline branch of an outer CGE: its
        // failure must cancel the inner frame, then fail `inner/0`, which
        // is the outer frame's inline branch — cancelling that one too.
        src.push_str(&format!("inner :- {doomed_body}.\n"));
        src.push_str(&format!(
            "doomed(R) :- (inner & good({}, Y)), R = never(Y).\n",
            s.sibling_work.first().copied().unwrap_or(1)
        ));
    } else {
        src.push_str(&format!("doomed(R) :- {doomed_body}, R = never.\n"));
    }
    src.push_str("attempt(R) :- doomed(R).\n");
    src.push_str(&format!("attempt(recovered({})).\n", s.sibling_work.len()));
    src
}

/// Run on a given backend through the engine API (so the finished engine is
/// still around for the leak and consistency checks), returning the
/// rendered answer.
fn run_config(
    src: &str,
    scheduler: SchedulerKind,
    determinism: DeterminismMode,
    inline_first_goal: bool,
    workers: usize,
) -> String {
    let mut session = Session::new(src).expect("program parses");
    let mut copts = pwam_compiler::CompileOptions::parallel();
    copts.inline_first_goal = inline_first_goal;
    let compiled = session.compile_with("attempt(R)", copts).expect("query compiles");
    let config = EngineConfig {
        num_workers: workers,
        memory: MemoryConfig::small(),
        scheduler,
        determinism,
        ..EngineConfig::default()
    };
    let (result, engine) = Engine::new(&compiled, config).run_reusable(session.symbols()).expect("drive");
    assert_eq!(
        engine.pending_goal_frames(),
        0,
        "leaked goal frames ({scheduler:?} {determinism:?} inline={inline_first_goal})"
    );
    engine.check_consistency().unwrap_or_else(|e| {
        panic!("inconsistent stack sets ({scheduler:?} {determinism:?} inline={inline_first_goal}): {e}")
    });
    match &result.outcome {
        Outcome::Success(_) => session.render(result.outcome.binding("R").expect("R bound")),
        Outcome::Failure => "failure".to_string(),
    }
}

/// The oracle's first answer under either reading of a CGE.
fn run_oracle(src: &str, cge: Cge) -> String {
    let answers = Oracle::new(src).solutions("attempt(R)", cge, 1).expect("oracle proves the query");
    answers.first().map_or("failure".to_string(), |row| row[0].1.clone())
}

/// The sequential WAM reference answer (which also exercises the
/// sequential compilation of every generated CGE).
fn run_sequential(src: &str) -> String {
    let mut session = Session::new(src).expect("program parses");
    let r = session.run("attempt(R)", &QueryOptions::sequential()).expect("sequential run");
    match &r.outcome {
        Outcome::Success(_) => session.render(r.outcome.binding("R").expect("R bound")),
        Outcome::Failure => "failure".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inline_branch_failure_cancels_soundly(s in shape()) {
        let src = program(&s);
        let seq = run_sequential(&src);
        prop_assert_eq!(&seq, &run_oracle(&src, Cge::Conjunction), "sequential vs oracle");
        prop_assert_eq!(&seq, &run_oracle(&src, Cge::FirstSolution), "the two readings of the CGE");
        let workers = threads();
        for inline in [true, false] {
            for (scheduler, determinism) in [
                (SchedulerKind::Interleaved, DeterminismMode::Strict),
                (SchedulerKind::Threaded, DeterminismMode::Relaxed),
            ] {
                let got = run_config(&src, scheduler, determinism, inline, workers);
                prop_assert!(
                    got == seq,
                    "{scheduler:?} {determinism:?} inline={inline}: got {got}, sequential reference {seq}"
                );
            }
        }
    }
}

/// Deterministic companion: a doomed CGE with heavy siblings on one PE must
/// actually *retract* them (backward execution), not execute them — the
/// retraction is visible in the stats and in the instruction count.
#[test]
fn cancellation_retracts_unstolen_siblings_on_one_pe() {
    let s = Shape { fail_work: 0, sibling_work: vec![200, 200, 200], nested: false };
    let src = program(&s);
    let mut session = Session::new(&src).expect("program parses");
    let r = session.run("attempt(R)", &QueryOptions::parallel(1)).expect("run");
    assert!(r.outcome.is_success());
    assert!(r.stats.parcalls_cancelled >= 1, "no parcall was cancelled: {:?}", r.stats);
    assert_eq!(r.stats.goals_cancelled, 3, "all three un-stolen siblings must be retracted");
    // The doomed siblings (600 reductions) were skipped: the whole run must
    // be far smaller than the work it cancelled.
    assert!(
        r.stats.instructions < 600,
        "cancelled work was still executed ({} instructions)",
        r.stats.instructions
    );
}

/// Scenario shared by the two mid-cancellation regression tests below.
///
/// On two PEs: worker 0 runs the doomed CGE whose inline branch (`bad`)
/// fails only after 30 reductions, so worker 1 has long since stolen
/// `sib/1` *and opened sib's own inner Parcall Frame* by the time the
/// `cancel_goal` request lands.  That pins two fixed bugs at once:
///
/// * worker 1 cannot honour the request at the boundary where it arrives
///   (its `PF` is the inner frame, not the goal-entry value) — the request
///   must stay pending until the inner frame completes, then abort `sib`
///   before its 200-reduction tail runs;
/// * worker 0, parked in `Cancelling` until `sib` commits, must meanwhile
///   steal the inner frame's scheduled `work(60)` goal from worker 1's
///   board and execute it — useful work mid-cancellation.
fn mid_cancellation_program() -> &'static str {
    "work(0).\n\
     work(N) :- N > 0, N1 is N - 1, work(N1).\n\
     bad :- work(30), fail.\n\
     sib(R) :- (work(60) & work(60)), work(200), R = done.\n\
     doomed(R) :- (bad & sib(X)), R = never(X).\n\
     attempt(R) :- doomed(R).\n\
     attempt(recovered).\n"
}

/// Regression (PR 6): a `Cancelling` parent used to park until its frame
/// drained.  With `Resume::ToCancel` it steals goals meanwhile — the
/// `goals_while_cancelling` stat proves the parent did real work between
/// starting the cancellation and resuming its deferred backtrack.
#[test]
fn cancelling_parent_steals_work_while_the_frame_drains() {
    let src = mid_cancellation_program();
    let seq = run_sequential(src);
    let mut session = Session::new(src).expect("program parses");
    let r = session.run("attempt(R)", &QueryOptions::parallel(2)).expect("run");
    assert!(r.outcome.is_success());
    assert_eq!(session.render(r.outcome.binding("R").unwrap()), seq);
    let mid: u64 = r.stats.workers.iter().map(|w| w.goals_while_cancelling).sum();
    assert!(
        mid >= 1,
        "the cancelling parent picked up no goal while its frame drained: {:?}",
        r.stats.workers
    );
}

/// Regression (PR 6): a `cancel_goal` request arriving while its target
/// had its own Parcall Frame open used to be silently dropped, letting the
/// doomed goal run to completion.  It must instead stay pending and abort
/// the goal at the first boundary where it *is* safely abortable (here:
/// right after the inner frame's `pcall_wait` completes, before the
/// 200-reduction tail).
#[test]
fn deferred_cancel_request_eventually_aborts_the_goal() {
    let src = mid_cancellation_program();
    let seq = run_sequential(src);
    let mut session = Session::new(src).expect("program parses");
    let r = session.run("attempt(R)", &QueryOptions::parallel(2)).expect("run");
    assert!(r.outcome.is_success());
    assert_eq!(session.render(r.outcome.binding("R").unwrap()), seq);
    assert!(r.stats.cancel_requests >= 1, "no cancel request was ever posted: {:?}", r.stats);
    let aborted: u64 = r.stats.workers.iter().map(|w| w.goals_aborted).sum();
    assert!(
        aborted >= 1,
        "the deferred cancel request never fired; the doomed goal ran to completion: {:?}",
        r.stats.workers
    );
}

/// Deterministic companion for the chain case: a nested doomed CGE cancels
/// the inner frame first, then the outer one, on every backend.
#[test]
fn nested_cancellation_walks_the_frame_chain() {
    let s = Shape { fail_work: 2, sibling_work: vec![30, 30], nested: true };
    let src = program(&s);
    let seq = run_sequential(&src);
    for workers in [1, 2, threads()] {
        let mut session = Session::new(&src).expect("program parses");
        let r = session.run("attempt(R)", &QueryOptions::parallel(workers)).expect("run");
        assert!(r.outcome.is_success());
        assert_eq!(session.render(r.outcome.binding("R").unwrap()), seq, "{workers} workers");
        assert!(r.stats.parcalls_cancelled >= 2, "chain cancellation missing: {:?}", r.stats);
    }
}
