//! The scheduler SPI: what the drivers in `crate::sched` and tests call between slots,
//! and the read-only checks (`state_fingerprint`, `check_consistency`) they run.

use super::{Engine, Step, DEADLINE_CHECK_CYCLES};
use crate::cell::{Cell, NONE_ADDR};
use crate::error::{EngineError, EngineResult};
use crate::frames::choice;
use crate::layout::Area;
use crate::worker::{Mode, Resume, WorkerStatus};

impl<'p> Engine<'p> {
    // -----------------------------------------------------------------
    // Scheduler SPI
    //
    // The stepping loop is owned by `sched::drive` (tests may drive rounds
    // by hand to inspect the machine between them).
    // A round gives every worker one slot:
    //
    //     engine.begin_round();
    //     let mut progress = false;
    //     for w in 0..n { progress |= engine.step_slot(w)?; }
    //     engine.end_round(progress)?;
    //
    // repeated until `halted()`.  A slot is one scheduling action for an
    // idle or waiting worker, `quantum` instructions for a running worker of
    // an N-PE engine, and a run to the next scheduling-relevant event for
    // the running worker of a one-PE engine (see `Step::run_slot`).  The
    // relaxed backend bypasses the round structure and drives each worker's
    // `Step` directly.
    // -----------------------------------------------------------------

    /// `Some(true)` once the query succeeded, `Some(false)` once it failed.
    pub fn finished(&self) -> Option<bool> {
        self.core.finished()
    }

    /// True once the engine has succeeded, failed or suspended — the
    /// drivers' exit condition (see `EngineCore::halted`).
    pub(crate) fn halted(&self) -> bool {
        self.core.halted()
    }

    /// Number of workers (PEs) in this engine.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Start a scheduling round.
    pub fn begin_round(&mut self) {
        *self.core.cycles.get_mut() += 1;
    }

    /// Give worker `w` its slot of the current round.  Returns `true` if the
    /// worker made progress.  A no-op once the query has finished.
    pub fn step_slot(&mut self, w: usize) -> EngineResult<bool> {
        let wk = &mut self.workers[w];
        let before = wk.instructions;
        let slot = Step::new(&self.core, wk).run_slot();
        // This driver owns the engine, so the slot's instructions join the
        // shared count through `&mut`, not an atomic read-modify-write.
        *self.core.steps.get_mut() += wk.instructions - before;
        slot
    }

    /// Close a scheduling round: detect deadlock and enforce the step limit.
    pub fn end_round(&mut self, any_progress: bool) -> EngineResult<()> {
        if !any_progress && !self.core.halted() {
            return Err(EngineError::Internal("scheduler deadlock: no worker can make progress".to_string()));
        }
        if self.core.steps() > self.core.config.max_steps {
            return Err(EngineError::StepLimitExceeded { limit: self.core.config.max_steps });
        }
        if cfg!(debug_assertions) {
            let core = &mut self.core;
            for (board, hint) in core.boards.iter_mut().zip(&mut core.goals_waiting) {
                assert_eq!(*hint.get_mut(), board.get_mut().unwrap().goal_frames.len(), "goals_waiting");
            }
        }
        // Per-request deadline, checked each time the cycle count crosses a
        // 1024 boundary so `Instant::now` stays off the per-instruction path
        // (a one-PE slot advances the count by up to `SLOT_CAP`, so there
        // the check runs once per slot at most).
        let cycles = *self.core.cycles.get_mut();
        if cycles >= self.core.next_deadline_check {
            self.core.next_deadline_check = (cycles | (DEADLINE_CHECK_CYCLES - 1)) + 1;
            self.core.check_deadline()?;
        }
        // Instruction fuel, checked every round: whole rounds always
        // complete before a preemption, so the stop point is a deterministic
        // function of the program (the strict backend closes every round
        // through here).
        self.core.check_fuel();
        Ok(())
    }

    /// Goal Frames still sitting on any PE's board.  Zero once a query has
    /// finished: success implies every parcall completed, and failure drains
    /// (or retracts) every scheduled goal through the cancellation protocol
    /// — a nonzero count after a run is a leak.
    pub fn pending_goal_frames(&self) -> usize {
        self.core.boards.iter().map(|b| b.lock().unwrap().goal_frames.len()).sum()
    }

    /// A 64-bit FNV-1a fingerprint of the complete *semantic* machine
    /// state: every worker's register file (X cells, unify mode, status,
    /// in-progress goal contexts, pending cancels) plus every live arena
    /// word of every Stack Set (heap, local stack, control stack, trail and
    /// goal stack up to each worker's tops, message buffer up to the
    /// board's top) and the per-PE board scalars.  Performance caches
    /// (`cp_top`), profiling attribution and statistics counters are
    /// excluded: they are not machine state.  The fuel differential suite
    /// uses this to pin preemption points to recorded goldens.
    ///
    /// Reads memory untraced only, so fingerprinting never perturbs
    /// statistics.
    pub fn state_fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn mix(&mut self, v: u64) {
                self.0 ^= v;
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
            fn cell(&mut self, c: Cell) {
                match c {
                    Cell::Ref(a) => (self.mix(1), self.mix(a as u64)),
                    Cell::Str(a) => (self.mix(2), self.mix(a as u64)),
                    Cell::Lis(a) => (self.mix(3), self.mix(a as u64)),
                    Cell::Con(atom) => (self.mix(4), self.mix(atom.0 as u64)),
                    Cell::Int(i) => (self.mix(5), self.mix(i as u64)),
                    Cell::Fun(atom, n) => (self.mix(6), self.mix((u64::from(atom.0) << 8) | n as u64)),
                    Cell::Code(a) => (self.mix(7), self.mix(a as u64)),
                    Cell::Uint(v) => (self.mix(8), self.mix(v as u64)),
                    Cell::Empty => (self.mix(9), ()),
                };
            }
        }
        let mem = &self.core.mem;
        let mut f = Fnv(0xcbf2_9ce4_8422_2325);
        for (w, wk) in self.workers.iter().enumerate() {
            for reg in [
                wk.p,
                wk.cp,
                wk.e,
                wk.b,
                wk.b0,
                wk.frozen_h,
                wk.frozen_local,
                wk.h,
                wk.hb,
                wk.stack_boundary,
                wk.s,
                wk.tr,
                wk.pdl,
                wk.pf,
                wk.local_top,
                wk.control_top,
                wk.goal_top,
            ] {
                f.mix(reg as u64);
            }
            f.mix(wk.num_args as u64);
            f.mix(match wk.mode {
                Mode::Read => 0,
                Mode::Write => 1,
            });
            match wk.status {
                WorkerStatus::Running => f.mix(0),
                WorkerStatus::WaitingAtPcall { addr, pf } => {
                    f.mix(1);
                    f.mix(addr as u64);
                    f.mix(pf as u64);
                }
                WorkerStatus::Cancelling { pf } => {
                    f.mix(2);
                    f.mix(pf as u64);
                }
                WorkerStatus::Idle => f.mix(3),
                WorkerStatus::Stopped => f.mix(4),
            }
            for &(pf, slot) in &wk.pending_cancels {
                f.mix(pf as u64);
                f.mix(slot as u64);
            }
            for gc in &wk.goal_contexts {
                for reg in [
                    gc.marker,
                    gc.pf,
                    gc.entry_pf,
                    gc.slot,
                    gc.entry_b,
                    gc.entry_tr,
                    gc.entry_h,
                    gc.entry_local_top,
                    gc.prev_cp,
                    gc.entry_e,
                    gc.prev_hb,
                    gc.prev_stack_boundary,
                ] {
                    f.mix(reg as u64);
                }
                f.mix(match gc.resume {
                    Resume::ToWait { addr } => 1 | (u64::from(addr) << 3),
                    Resume::ToCancel { pf } => 2 | (u64::from(pf) << 3),
                    Resume::Idle => 3,
                });
                f.mix(gc.stolen as u64);
            }
            for x in &wk.x {
                f.cell(*x);
            }
            let board = self.core.boards[w].lock().unwrap();
            f.mix(board.goal_top as u64);
            f.mix(board.msg_top as u64);
            f.mix(board.pending_messages as u64);
            for &frame in &board.goal_frames {
                f.mix(frame as u64);
            }
            for &(pf, slot) in &board.cancel_requests {
                f.mix(pf as u64);
                f.mix(slot as u64);
            }
            let msg_top = board.msg_top;
            drop(board);
            for (area, top) in [
                (Area::Heap, wk.h),
                (Area::LocalStack, wk.local_top),
                (Area::ControlStack, wk.control_top),
                (Area::Trail, wk.tr),
                (Area::GoalStack, wk.goal_top),
                (Area::Pdl, wk.pdl),
                (Area::MessageBuffer, msg_top),
            ] {
                for addr in mem.map.area_base(w, area)..top {
                    f.cell(mem.read_untraced(addr));
                }
            }
        }
        f.0
    }

    /// Verify the structural invariants of every worker's Stack Set: all
    /// tops inside their areas, the choice-point chain well-formed and its
    /// saved state inside the owning areas, trail entries pointing at
    /// bindable words, and Goal-Stack boards consistent.  Scheduling (and
    /// in particular goal stealing plus the backtracking that undoes a
    /// stolen goal) must preserve all of these between rounds; the
    /// goal-steal property tests call this after every round, and the
    /// relaxed-mode stress tests after every run.
    ///
    /// Reads memory untraced only, so checking never perturbs statistics.
    pub fn check_consistency(&self) -> Result<(), String> {
        let map = &self.core.mem.map;
        for (w, wk) in self.workers.iter().enumerate() {
            let fail = |what: &str, detail: String| Err(format!("worker {w}: {what}: {detail}"));
            let within = |area: Area, addr: u32| -> bool {
                addr >= map.area_base(w, area) && addr <= map.area_end(w, area)
            };
            if wk.hb > wk.h {
                return fail("heap top", format!("h={} hb={}", wk.h, wk.hb));
            }
            for (what, area, top) in [
                ("heap top", Area::Heap, wk.h),
                ("local top", Area::LocalStack, wk.local_top),
                ("control top", Area::ControlStack, wk.control_top),
                ("trail top", Area::Trail, wk.tr),
                ("goal top", Area::GoalStack, wk.goal_top),
            ] {
                if !within(area, top) {
                    return fail(what, format!("{top} outside the {}", area.name()));
                }
            }
            // Every push raises its own area's high-water mark; one that
            // forgot would under-report `max_usage`.
            for (area, top, max) in [
                ("heap", wk.h, wk.max_h),
                ("local stack", wk.local_top, wk.max_local_top),
                ("control stack", wk.control_top, wk.max_control_top),
                ("trail", wk.tr, wk.max_tr),
                ("goal stack", wk.goal_top, wk.max_goal_top),
            ] {
                if max < top {
                    return fail("high-water mark", format!("{area}: top {top} above its mark {max}"));
                }
            }
            if wk.e != NONE_ADDR && map.area_of(wk.e) != Area::LocalStack {
                return fail("environment register", format!("e={} outside any local stack", wk.e));
            }
            // The goal-frame board must point into this worker's own Goal
            // Stack, below the board's top.
            {
                let board = self.core.boards[w].lock().unwrap();
                if !within(Area::GoalStack, board.goal_top) {
                    return fail("goal board top", format!("goal_top={}", board.goal_top));
                }
                for &frame in &board.goal_frames {
                    if map.owner(frame) != w || map.area_of(frame) != Area::GoalStack {
                        return fail("goal frame board", format!("frame {frame} not in own goal stack"));
                    }
                    if frame >= board.goal_top {
                        return fail(
                            "goal frame board",
                            format!("frame {frame} above board top {}", board.goal_top),
                        );
                    }
                }
            }
            // Walk the choice-point chain: frames must live in this worker's
            // control stack, strictly descending, with saved state inside
            // the owning areas.
            let mut b = wk.b;
            let mut hops = 0u32;
            while b != NONE_ADDR {
                if map.owner(b) != w || map.area_of(b) != Area::ControlStack {
                    return fail("choice point", format!("b={b} not in own control stack"));
                }
                let word = |addr: u32, what: &str| match self.core.mem.read_untraced(addr) {
                    Cell::Uint(v) => Ok(v),
                    other => Err(format!("worker {w}: choice point: {what} at {b} is {other:?}")),
                };
                let nargs = word(b + choice::NARGS, "nargs")?;
                let tr = word(choice::saved_tr(b, nargs), "saved tr")?;
                if !within(Area::Trail, tr) || tr > wk.tr {
                    return fail("choice point", format!("saved tr {tr} outside [base, tr={}]", wk.tr));
                }
                let h = word(choice::saved_h(b, nargs), "saved h")?;
                if !within(Area::Heap, h) {
                    return fail("choice point", format!("saved h {h} outside own heap"));
                }
                let prev = word(choice::prev_b(b, nargs), "prev b")?;
                if prev != NONE_ADDR && prev >= b {
                    return fail("choice point", format!("prev b {prev} not below {b}"));
                }
                b = prev;
                hops += 1;
                if hops > 1_000_000 {
                    return fail("choice point", "chain does not terminate".to_string());
                }
            }
            // Trail entries must name bindable words (heap or local stack of
            // some worker — cross-PE bindings are legal for stolen goals).
            let mut t = map.area_base(w, Area::Trail);
            while t < wk.tr {
                match self.core.mem.read_untraced(t) {
                    Cell::Uint(addr) => {
                        let area = map.area_of(addr);
                        if area != Area::Heap && area != Area::LocalStack {
                            return fail("trail entry", format!("{addr} is in the {}", area.name()));
                        }
                    }
                    other => return fail("trail entry", format!("at {t}: {other:?}")),
                }
                t += 1;
            }
        }
        Ok(())
    }
}
