//! Per-worker (PE) machine state.
//!
//! Each worker is a complete WAM: a register file plus top pointers into its
//! own Stack Set.  The only additions over the sequential WAM are the Parcall
//! Frame register (`pf`), the Goal Stack top, and a small host-side
//! scheduling stack that remembers how to resume after a parallel goal
//! finishes (the RAP-WAM encodes the same information in Markers; we keep a
//! host-side mirror so the scheduler does not have to re-read memory for
//! every decision).  State that *other* PEs must see — the Goal-Stack
//! mirror used for stealing and the Message-Buffer allocation state — lives
//! on the per-PE boards of [`crate::engine::EngineCore`], not here: a
//! `Worker` is always owned exclusively by the thread stepping it.

use crate::cell::{Cell, NONE_ADDR};
use crate::layout::{AddressMap, Area};
use crate::parked::Parked;
use crate::trace::{MemRef, RefCounts};

/// Read/write mode of the unify instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Read,
    Write,
}

/// What a worker should do once the parallel goal it is executing finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// Return to the `pcall_wait` instruction at this code address (the
    /// worker is the parent of some Parcall Frame, executing one of its
    /// own goals through the local path while it waits).
    ToWait { addr: u32 },
    /// Return to backward execution: the worker is the parent of the
    /// cancelled Parcall Frame `pf` and picked this goal up while waiting
    /// for the frame's completion counter to drain.  On completion the
    /// worker re-parks in [`WorkerStatus::Cancelling`]; if the goal
    /// *succeeded*, its Stack Section is frozen (see `Worker::frozen_h`) so
    /// the deferred backtrack cannot reclaim results another Parcall Frame
    /// still needs.
    ToCancel { pf: u32 },
    /// Go back to the idle loop (the worker stole the goal while idle).
    Idle,
}

/// Host-side record of one parallel-goal execution in progress (mirrors the
/// Marker pushed on the Control stack).
///
/// Goals a worker picks up from its *own* Goal Stack (the parent executing
/// its own parallel call) take a fast path that pushes no Marker — exactly
/// like the original system, where the parallelism overhead is concentrated
/// on goals that are actually executed by another PE.  For those local goals
/// `marker` is `NONE_ADDR` and the entry state lives only in this record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GoalContext {
    /// Address of the Marker on this worker's Control stack, or `NONE_ADDR`
    /// for locally executed goals (fast path, no Marker).
    pub(crate) marker: u32,
    /// Parcall Frame the goal belongs to.
    pub(crate) pf: u32,
    /// This worker's `pf` register at goal entry.  Restored when the goal
    /// completes *or fails*: on the failure path no `pcall_wait` walks the
    /// `PREV_PF` chain back, and a stale `pf` would make every enclosing
    /// wait re-read the innermost failed Parcall Frame and cascade failure
    /// without draining its own in-flight goals.
    pub(crate) entry_pf: u32,
    /// Slot index within the Parcall Frame.
    pub(crate) slot: u32,
    /// Choice-point register at goal entry (failure boundary).
    pub(crate) entry_b: u32,
    /// Trail top at goal entry (for storage recovery on failure).
    pub(crate) entry_tr: u32,
    /// Heap top at goal entry.
    pub(crate) entry_h: u32,
    /// Local-stack top at goal entry.
    pub(crate) entry_local_top: u32,
    /// Continuation pointer to restore when the goal completes.
    pub(crate) prev_cp: u32,
    /// Environment register at goal entry (sanity check / restore).
    pub(crate) entry_e: u32,
    /// Heap-backtrack boundary to restore.
    pub(crate) prev_hb: u32,
    /// Stack-trailing boundary to restore.
    pub(crate) prev_stack_boundary: u32,
    /// What to do after the goal completes.
    pub(crate) resume: Resume,
    /// True when the goal was taken from another worker's Goal Stack.
    pub(crate) stolen: bool,
    /// The worker's `marker_top` at goal entry, restored when the goal
    /// completes or fails.
    pub(crate) prev_marker_top: u32,
}

/// Scheduling status of a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerStatus {
    /// Executing instructions.
    Running,
    /// Blocked in `pcall_wait` at `addr` until Parcall Frame `pf` completes
    /// (may still pick up other goals meanwhile).
    WaitingAtPcall { addr: u32, pf: u32 },
    /// Backward execution: this worker failed past the (incomplete) Parcall
    /// Frame `pf` it owns.  Its un-stolen Goal Frames have been retracted
    /// and `cancel_goal` requests sent for the in-flight ones; the worker
    /// now waits for the frame's completion counter to drain before it
    /// resumes the deferred backtrack.  Unlike `WaitingAtPcall` the worker
    /// does not pick up new work: its registers hold the suspended failure
    /// state.
    Cancelling { pf: u32 },
    /// No work; looking for goals to steal.
    Idle,
    /// The query has finished (success or failure); the worker is stopped.
    Stopped,
}

/// The complete state of one worker.
#[derive(Debug, Clone)]
pub(crate) struct Worker {
    /// Worker (PE) identifier.
    pub(crate) id: u8,
    /// Program counter.
    pub(crate) p: u32,
    /// Continuation program counter.
    pub(crate) cp: u32,
    /// Current environment (Local stack address) or `NONE_ADDR`.
    pub(crate) e: u32,
    /// Most recent choice point (Control stack address) or `NONE_ADDR`.
    pub(crate) b: u32,
    /// Cut barrier: the value of `b` when the current predicate was called
    /// (the WAM's `B0` register).  `get_level` copies it into an environment
    /// slot so that a later cut discards exactly the choice points created
    /// since the call — including the clause-selection choice point.
    pub(crate) b0: u32,
    /// Cached Control-stack extent (one past the last word) of the choice
    /// point `b` currently points at, or `NONE_ADDR` when unknown.  This is
    /// the flattened executor's frame-register cache for the one frame word
    /// the hot path re-reads — the frame's saved argument count, needed by
    /// `recede_control_top` to bound the live frame.  Maintained wherever
    /// `b` changes: set by `push_choice_point` (the size is known there),
    /// invalidated by cut / pop / goal unwind, and recomputed lazily from
    /// memory on the first recede after an invalidation.
    pub(crate) cp_top: u32,
    /// Frozen heap floor: restore targets (`saved H` in choice points, goal
    /// entry state) are clamped to at least this address.  Raised when a
    /// goal executed under [`Resume::ToCancel`] succeeds: its results sit
    /// in this worker's Stack Set but belong to a *different* Parcall
    /// Frame, so the deferred backtrack that follows the cancellation must
    /// not reclaim them.  Never lowered during a run.
    pub(crate) frozen_h: u32,
    /// Local-stack counterpart of `frozen_h`.
    pub(crate) frozen_local: u32,
    /// `cancel_goal` requests `(pf, slot)` delivered to this worker that
    /// were not safely abortable at the batch boundary where they arrived
    /// (the target goal was live but not the innermost context).  They are
    /// re-checked at every subsequent batch boundary until the goal either
    /// becomes abortable or commits.
    pub(crate) pending_cancels: Vec<(u32, u32)>,
    /// Heap top.
    pub(crate) h: u32,
    /// Heap backtrack boundary (bindings below this must be trailed).
    pub(crate) hb: u32,
    /// Local-stack trailing boundary (stack bindings below this must be trailed).
    pub(crate) stack_boundary: u32,
    /// Structure pointer (read mode).
    pub(crate) s: u32,
    /// Unify mode.
    pub(crate) mode: Mode,
    /// Trail top.
    pub(crate) tr: u32,
    /// PDL top.
    pub(crate) pdl: u32,
    /// Argument / temporary registers (index 0 unused; `X1` = `x[1]`).
    pub(crate) x: Vec<Cell>,
    /// Number of argument registers live at the last call (for choice points).
    pub(crate) num_args: u8,
    /// Current Parcall Frame or `NONE_ADDR`.
    pub(crate) pf: u32,
    /// Local-stack allocation top.
    pub(crate) local_top: u32,
    /// Control-stack allocation top.
    pub(crate) control_top: u32,
    /// Goal-stack allocation top (the owner's mirror of the authoritative
    /// top on this PE's shared board, refreshed on every own-stack push/pop;
    /// other PEs shrink the board top when they steal).
    pub(crate) goal_top: u32,
    /// Scheduling status.
    pub(crate) status: WorkerStatus,
    /// Host-side stack of in-progress parallel goals.
    pub(crate) goal_contexts: Vec<GoalContext>,
    /// One past the Marker of the innermost goal in `goal_contexts` that was
    /// stolen, or `control_base` when none was: the floor under which
    /// `recede_control_top` never lowers the Control-stack top.  Set by
    /// `start_goal` for a stolen goal and restored from the goal's
    /// `GoalContext::prev_marker_top` when the goal finishes or fails.
    pub(crate) marker_top: u32,
    /// The work stack of the `ground/1` and `indep/2` walks
    /// (`Step::each_unbound`), kept between walks so they do not allocate.
    /// Empty outside a walk.
    pub(crate) term_stack: Vec<Cell>,
    /// The first term's unbound variables during an `indep/2` check, kept
    /// like `term_stack`.  Empty outside a check.
    pub(crate) indep_vars: Vec<u32>,
    /// Executed instruction count.
    pub(crate) instructions: u64,
    /// Cycles spent idle or waiting.
    pub(crate) idle_cycles: u64,
    /// Logical inferences (user-predicate calls, parallel-goal starts and
    /// host calls) this worker performed.  Worker-local like every per-call
    /// counter here, so a `call` costs no shared read-modify-write;
    /// [`crate::stats::RunStats`] reports the sum over workers.
    pub(crate) inferences: u64,
    /// Parcall Frames this worker allocated.
    pub(crate) parcalls: u64,
    /// Parallel goals this worker started, its own and stolen ones alike.
    pub(crate) parallel_goals: u64,
    /// Goals this worker took from another worker's Goal Stack.
    pub(crate) goals_stolen: u64,
    /// Stolen goals this worker aborted mid-flight on a `cancel_goal`
    /// request (each still committed through the completion protocol).
    pub(crate) goals_aborted: u64,
    /// Goals this worker started while parked in
    /// [`WorkerStatus::Cancelling`] — useful work done while a cancelled
    /// Parcall Frame's completion counter drains.
    pub(crate) goals_while_cancelling: u64,
    /// Steal scans this worker ran while looking for work (each scan sweeps
    /// the other PEs' Goal Stacks once; `goals_stolen` counts the scans
    /// that found a goal).  Worker-local like every other counter here:
    /// incremented off the dispatch hot path and read only through
    /// [`crate::stats::WorkerStats`].
    pub(crate) steal_attempts: u64,
    /// Idle-backoff transitions from spinning to yielding (relaxed
    /// backend's idle ladder).
    pub(crate) backoff_yields: u64,
    /// Idle-backoff transitions from yielding to timed parking (relaxed
    /// backend's idle ladder).
    pub(crate) backoff_parks: u64,
    /// Microseconds spent in timed parks while idle (relaxed backend).
    pub(crate) park_micros: u64,
    /// Batch exits whose cause was the slot's instruction budget running
    /// out while still `Running` (the scheduler will re-enter immediately).
    pub(crate) batch_exits_budget: u64,
    /// Batch exits whose cause was leaving `Running`: parked at a
    /// `pcall_wait`, went idle after goal completion, cancelled, or the
    /// whole query finished.
    pub(crate) batch_exits_park: u64,
    /// Per-predicate instruction attribution:
    /// entry address of the predicate currently being charged.  Updated at
    /// call/execute boundaries only, so attribution is call-granular: the
    /// tail of a clause body after its last call is charged to the callee.
    pub(crate) prof_pred: u32,
    /// Value of `instructions` when `prof_pred` last changed; the
    /// difference to the live counter is the run still to be charged.
    pub(crate) prof_mark: u64,
    /// Instructions charged per predicate entry address, indexed by code
    /// address.  Sized by the engine to the program's code length (the
    /// profile rides the existing `instructions` counter, so the dispatch
    /// loop itself is untouched; charging happens on call boundaries and
    /// costs a subtraction and an indexed add).
    pub(crate) prof_counts: Vec<u64>,
    /// High-water marks for storage-usage statistics.  Each is raised by
    /// the pushes onto its own area, where the top moves up
    /// (`Engine::check_consistency` holds every one at or above its top).
    pub(crate) max_h: u32,
    pub(crate) max_local_top: u32,
    pub(crate) max_control_top: u32,
    pub(crate) max_tr: u32,
    pub(crate) max_goal_top: u32,
    // Area bases, cached for bounds checks and pointer classification.
    pub(crate) heap_base: u32,
    pub(crate) local_base: u32,
    pub(crate) control_base: u32,
    pub(crate) trail_base: u32,
    pub(crate) pdl_base: u32,
    pub(crate) goal_base: u32,
    pub(crate) msg_base: u32,
    // Area ends, cached so overflow checks on the hot allocation paths
    // (`heap_push`, `allocate`, trailing, PDL pushes, choice points) compare
    // against a register instead of recomputing `AddressMap::area_end`.
    pub(crate) heap_end: u32,
    pub(crate) local_end: u32,
    pub(crate) control_end: u32,
    pub(crate) trail_end: u32,
    pub(crate) pdl_end: u32,
    /// One past the last word of this worker's whole Stack Set (equals
    /// `msg_base + message_words`): outside `heap_base..arena_end` a binding
    /// is always trailed.
    pub(crate) arena_end: u32,
    /// Every reference this worker has issued, by object kind, wherever the
    /// word lives (`Step::mem_read` / `mem_write` / `mem_rmw` count here).
    pub(crate) refs: RefCounts,
    /// This worker's records of a traced run, in its program order, each
    /// with the global sequence number it claimed; `None` when the run is
    /// not traced.  `Engine::take_trace` merges the workers' buffers and
    /// parks them for the next traced build (see `Worker::arm_trace`).
    pub(crate) trace: Option<Vec<(u64, MemRef)>>,
    /// E-frame register cache: the environment address whose control words
    /// (CE / CP / NVARS) are cached in the three registers below, or
    /// `NONE_ADDR`.  Written by `allocate` (which creates those words),
    /// consumed by `deallocate`, and invalidated wherever `e` is restored
    /// from saved state (choice points, goal entry/exit) — see the
    /// invariants note on `Step::invalidate_env_cache`.
    pub(crate) env_cache_e: u32,
    /// Cached continuation environment (`env::CE`) of `env_cache_e`.
    pub(crate) env_cache_ce: u32,
    /// Cached continuation pointer (`env::CP`) of `env_cache_e`.
    pub(crate) env_cache_cp: u32,
    /// Cached slot count (`env::NVARS`) of `env_cache_e`.
    pub(crate) env_cache_n: u32,
}

impl Worker {
    /// Create a worker with empty areas, ready to run.
    pub(crate) fn new(id: u8, map: &AddressMap) -> Self {
        let w = id as usize;
        let heap_base = map.area_base(w, Area::Heap);
        let local_base = map.area_base(w, Area::LocalStack);
        let control_base = map.area_base(w, Area::ControlStack);
        let trail_base = map.area_base(w, Area::Trail);
        let pdl_base = map.area_base(w, Area::Pdl);
        let goal_base = map.area_base(w, Area::GoalStack);
        let msg_base = map.area_base(w, Area::MessageBuffer);
        let heap_end = map.area_end(w, Area::Heap);
        let local_end = map.area_end(w, Area::LocalStack);
        let control_end = map.area_end(w, Area::ControlStack);
        let trail_end = map.area_end(w, Area::Trail);
        let pdl_end = map.area_end(w, Area::Pdl);
        let arena_end = map.area_end(w, Area::MessageBuffer);
        Worker {
            id,
            p: 0,
            cp: 0,
            e: NONE_ADDR,
            b: NONE_ADDR,
            b0: NONE_ADDR,
            cp_top: NONE_ADDR,
            frozen_h: heap_base,
            frozen_local: local_base,
            pending_cancels: Vec::new(),
            h: heap_base,
            hb: heap_base,
            stack_boundary: local_base,
            s: 0,
            mode: Mode::Read,
            tr: trail_base,
            pdl: pdl_base,
            x: vec![Cell::Empty; pwam_compiler::MAX_X_REGS + 1],
            num_args: 0,
            pf: NONE_ADDR,
            local_top: local_base,
            control_top: control_base,
            goal_top: goal_base,
            status: WorkerStatus::Idle,
            goal_contexts: Vec::new(),
            marker_top: control_base,
            term_stack: Vec::new(),
            indep_vars: Vec::new(),
            instructions: 0,
            idle_cycles: 0,
            inferences: 0,
            parcalls: 0,
            parallel_goals: 0,
            goals_stolen: 0,
            goals_aborted: 0,
            goals_while_cancelling: 0,
            steal_attempts: 0,
            backoff_yields: 0,
            backoff_parks: 0,
            park_micros: 0,
            batch_exits_budget: 0,
            batch_exits_park: 0,
            prof_pred: 0,
            prof_mark: 0,
            prof_counts: Vec::new(),
            max_h: heap_base,
            max_local_top: local_base,
            max_control_top: control_base,
            max_tr: trail_base,
            max_goal_top: goal_base,
            heap_base,
            local_base,
            control_base,
            trail_base,
            pdl_base,
            goal_base,
            msg_base,
            heap_end,
            local_end,
            control_end,
            trail_end,
            pdl_end,
            arena_end,
            refs: RefCounts::default(),
            trace: None,
            env_cache_e: NONE_ADDR,
            env_cache_ce: NONE_ADDR,
            env_cache_cp: 0,
            env_cache_n: 0,
        }
    }

    /// Charge the instruction run since the last predicate switch to the
    /// current predicate and move the attribution key to `entry`.  Called
    /// at call/execute boundaries and at parallel-goal starts — never per
    /// instruction.
    #[inline]
    pub(crate) fn prof_switch(&mut self, entry: u32) {
        let run = self.instructions - self.prof_mark;
        if run != 0 {
            if let Some(slot) = self.prof_counts.get_mut(self.prof_pred as usize) {
                *slot += run;
            }
            self.prof_mark = self.instructions;
        }
        self.prof_pred = entry;
    }

    /// The `(predicate entry, instruction run)` not yet charged to
    /// `prof_counts` — lets read-only stats collection see exact numbers
    /// between batches without mutating the worker.
    pub(crate) fn prof_residual(&self) -> (u32, u64) {
        (self.prof_pred, self.instructions - self.prof_mark)
    }

    /// Maximum words of each area ever in use: (heap, local, control, trail, goal).
    pub(crate) fn max_usage(&self) -> (u32, u32, u32, u32, u32) {
        (
            self.max_h - self.heap_base,
            self.max_local_top - self.local_base,
            self.max_control_top - self.control_base,
            self.max_tr - self.trail_base,
            self.max_goal_top - self.goal_base,
        )
    }

    /// Give this worker an empty record buffer for a traced run — a parked
    /// one if there is one — or none for an untraced one.
    pub(crate) fn arm_trace(&mut self, tracing: bool) {
        self.trace = tracing.then(|| SPARE_RECORDS.take(|_| true).unwrap_or_default());
    }
}

/// Record buffers of traced runs whose records were merged, emptied, waiting
/// for the next traced build.  A run that grew its buffers from empty faulted
/// their pages in afresh every time (`trace-sim` paid some 700 minor faults
/// an op); one that records into a parked buffer writes pages an earlier run
/// already touched.
static SPARE_RECORDS: Parked<Vec<(u64, MemRef)>> = Parked::new(MAX_SPARE_RECORDS);

/// Two 8-PE engines' worth, like the parked word arrays.
const MAX_SPARE_RECORDS: usize = 16;

/// Empty `records` and park it for the next traced build.
pub(crate) fn park_records(mut records: Vec<(u64, MemRef)>) {
    records.clear();
    SPARE_RECORDS.park(records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MemoryConfig;

    #[test]
    fn new_worker_points_at_its_own_areas() {
        let map = AddressMap::new(MemoryConfig::small(), 3);
        let w0 = Worker::new(0, &map);
        let w2 = Worker::new(2, &map);
        assert_eq!(w0.heap_base, 0);
        assert!(w2.heap_base > w0.msg_base);
        assert_eq!(w0.h, w0.heap_base);
        assert_eq!(w2.status, WorkerStatus::Idle);
        assert_eq!(w2.x.len(), pwam_compiler::MAX_X_REGS + 1);
    }

    #[test]
    fn record_buffers_come_back_and_are_parked_empty() {
        use crate::layout::ObjectKind;
        let map = AddressMap::new(MemoryConfig::small(), 1);
        let mut w = Worker::new(0, &map);
        // A merged buffer is parked emptied; whatever the list holds is empty.
        park_records(vec![(7, MemRef::new(0, 3, true, ObjectKind::HeapTerm)); 3]);
        assert!(SPARE_RECORDS.lock().iter().all(Vec::is_empty), "a parked buffer holds records");
        // A traced life records into an empty buffer, an untraced one into none.
        w.arm_trace(true);
        assert!(w.trace.as_ref().is_some_and(Vec::is_empty));
        w.arm_trace(false);
        assert!(w.trace.is_none());
    }

    #[test]
    fn high_water_marks_track_allocation() {
        let map = AddressMap::new(MemoryConfig::small(), 1);
        let mut w = Worker::new(0, &map);
        // What a push does: move the top, raise that area's mark.
        w.h += 100;
        w.max_h = w.max_h.max(w.h);
        w.tr += 5;
        w.max_tr = w.max_tr.max(w.tr);
        w.h -= 50;
        let (heap, _, _, trail, _) = w.max_usage();
        assert_eq!(heap, 100);
        assert_eq!(trail, 5);
    }
}
