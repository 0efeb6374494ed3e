//! Choice points and backtracking, backward execution across Parcall Frames,
//! the query's success, and host-predicate calls.

use super::Step;
use crate::answer::extract_cell;
use crate::arith::in_range;
use crate::cell::{Cell, NONE_ADDR};
use crate::error::{EngineError, EngineResult};
use crate::frames::{choice, goal_frame, marker, parcall};
use crate::known;
use crate::layout::{board, Area, ObjectKind};
use crate::worker::WorkerStatus;
use pwam_front::Term;
use std::sync::atomic::Ordering;

impl<'a, 'p> Step<'a, 'p> {
    // -----------------------------------------------------------------
    // Choice points and backtracking
    // -----------------------------------------------------------------

    /// Push a choice point whose next alternative is the code address
    /// `next_clause`.
    pub(crate) fn push_choice_point(&mut self, next_clause: u32) -> EngineResult<()> {
        let nargs = self.wk.num_args as u32;
        let b = self.wk.control_top;
        self.check_cached_top(self.wk.control_end, Area::ControlStack, b + choice::size(nargs))?;
        self.mem_write(b + choice::NARGS, Cell::Uint(nargs), ObjectKind::ChoicePoint);
        self.save_args(choice::arg(b, 0), nargs, ObjectKind::ChoicePoint);
        let wk = &*self.wk;
        // E, CP, previous B, BP, TR, H, PF, local top, B0 — the order this
        // run and the two of `restore_from_choice_point` go by.
        debug_assert!([
            choice::saved_e as fn(u32, u32) -> u32,
            choice::saved_cp,
            choice::prev_b,
            choice::next_clause,
            choice::saved_tr,
            choice::saved_h,
            choice::saved_pf,
            choice::saved_local_top,
            choice::saved_b0,
        ]
        .iter()
        .zip(choice::saved_e(b, nargs)..b + choice::size(nargs))
        .all(|(word, addr)| word(b, nargs) == addr));
        let saved = [
            Cell::Uint(wk.e),
            Cell::Code(wk.cp),
            Cell::Uint(wk.b),
            Cell::Code(next_clause),
            Cell::Uint(wk.tr),
            Cell::Uint(wk.h),
            Cell::Uint(wk.pf),
            Cell::Uint(wk.local_top),
            Cell::Uint(wk.b0),
        ];
        self.mem_write_run(choice::saved_e(b, nargs), ObjectKind::ChoicePoint, &saved);
        let wk = &mut *self.wk;
        wk.b = b;
        wk.hb = wk.h;
        wk.stack_boundary = wk.local_top;
        wk.control_top = b + choice::size(nargs);
        wk.cp_top = wk.control_top;
        wk.max_control_top = wk.max_control_top.max(wk.control_top);
        Ok(())
    }

    /// Restore machine state from the current choice point and continue at
    /// its next-alternative address (the retry/trust driver instruction).
    fn restore_from_choice_point(&mut self) -> EngineResult<()> {
        let b = self.wk.b;
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        self.load_args(choice::arg(b, 0), nargs, ObjectKind::ChoicePoint);
        // E and CP; the previous B is not restored here, so a second run
        // starts past it: BP, TR, H, PF, local top, B0.
        let mut saved = [Cell::Empty; 6];
        self.mem_read_run(choice::saved_e(b, nargs), ObjectKind::ChoicePoint, &mut saved[..2]);
        let (e, cp) = (saved[0].expect_uint("cp e"), saved[1].expect_code("cp cp"));
        self.mem_read_run(choice::next_clause(b, nargs), ObjectKind::ChoicePoint, &mut saved);
        let [bp, tr, h, pf, lt, b0] = saved;
        let (bp, tr, h) = (bp.expect_code("cp bp"), tr.expect_uint("cp tr"), h.expect_uint("cp h"));
        let (pf, lt, b0) = (pf.expect_uint("cp pf"), lt.expect_uint("cp lt"), b0.expect_uint("cp b0"));
        self.untrail_to(tr)?;
        // `E` is being restored from saved state, not from this worker's own
        // allocation path — the topmost-environment cache no longer
        // describes it.
        self.invalidate_env_cache();
        let wk = &mut *self.wk;
        wk.num_args = nargs as u8;
        wk.e = e;
        wk.cp = cp;
        // Restore targets are clamped to the frozen floors (sections of
        // `ToCancel` goals that succeeded during a cancellation): the saved
        // tops predate the frozen section, and restoring below it would
        // reclaim results an independent Parcall Frame still references.
        // Outside cancellation the floors sit at the area bases and the
        // clamp is the identity.
        let h = h.max(wk.frozen_h);
        let lt = lt.max(wk.frozen_local);
        wk.h = h;
        wk.hb = h;
        wk.pf = pf;
        wk.local_top = lt;
        wk.stack_boundary = lt;
        wk.b0 = b0;
        wk.p = bp;
        wk.cp_top = b + choice::size(nargs);
        Ok(())
    }

    /// Discard the current choice point (executed by `trust` / cut).
    pub(crate) fn pop_choice_point(&mut self) -> EngineResult<()> {
        let b = self.wk.b;
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        let prev = self.mem_read(choice::prev_b(b, nargs), ObjectKind::ChoicePoint).expect_uint("cp prev");
        self.cut_to(prev)
    }

    /// Make `target` the current choice point, discarding every newer one
    /// (cut, `trust`, the parcall's first-solution commit), then refresh the
    /// trailing boundaries from it and recover the Control-stack space the
    /// discarded frames held.  A no-op when `target` already is current.
    #[inline(always)]
    pub(crate) fn cut_to(&mut self, target: u32) -> EngineResult<()> {
        if self.wk.b != target {
            self.wk.b = target;
            self.wk.cp_top = NONE_ADDR; // recomputed lazily by recede_control_top
            self.refresh_backtrack_boundaries()?;
            self.recede_control_top();
        }
        Ok(())
    }

    /// After B changed (see [`Step::cut_to`]), refresh the `hb` /
    /// `stack_boundary` trailing boundaries from the new current choice
    /// point.
    fn refresh_backtrack_boundaries(&mut self) -> EngineResult<()> {
        let b = self.wk.b;
        // With no choice point left, the failure boundary is the enclosing
        // parallel goal's *entry* state (what `start_goal` set), or the
        // area bases outside any goal.  The entry values matter: using the
        // worker's current `hb`/`stack_boundary` here would freeze a
        // boundary raised by a since-discarded choice point — e.g. the
        // clause-selection point of an inline `fib(1)` leaf — below which
        // no environment or Parcall Frame could ever be reclaimed again,
        // leaking local stack proportional to the call tree.
        let (goal_hb, goal_sb) = match self.wk.goal_contexts.last() {
            Some(c) => (c.entry_h, c.entry_local_top),
            None => (self.wk.heap_base, self.wk.local_base),
        };
        if b == NONE_ADDR {
            let wk = &mut *self.wk;
            wk.hb = goal_hb.max(wk.frozen_h).min(wk.h);
            wk.stack_boundary = goal_sb.max(wk.frozen_local).min(wk.local_top);
            return Ok(());
        }
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        let h = self.mem_read(choice::saved_h(b, nargs), ObjectKind::ChoicePoint).expect_uint("cp h");
        let lt =
            self.mem_read(choice::saved_local_top(b, nargs), ObjectKind::ChoicePoint).expect_uint("cp lt");
        let wk = &mut *self.wk;
        // Clamped like the restore targets: bindings into a frozen section
        // must be trailed (the section is never reclaimed wholesale), and a
        // backtrack can only restore tops down to the floor.
        wk.hb = h.max(wk.frozen_h);
        wk.stack_boundary = lt.max(wk.frozen_local);
        Ok(())
    }

    /// Recover Control-stack space if the discarded frames were topmost.
    pub(crate) fn recede_control_top(&mut self) {
        let wk = &*self.wk;
        // A stolen goal's Marker stays until the goal ends; `marker_top`
        // follows the innermost one as goals start and end.
        debug_assert_eq!(
            wk.marker_top,
            wk.goal_contexts
                .iter()
                .rev()
                .find(|c| c.stolen)
                .map_or(wk.control_base, |c| c.marker + marker::SIZE)
        );
        let marker_top = wk.marker_top;
        let b_top = if wk.b == NONE_ADDR {
            wk.control_base
        } else if wk.cp_top != NONE_ADDR {
            // Fast path: the frame extent is cached in the worker's
            // register file (set by `push_choice_point` / the previous
            // recomputation), so the hot success path touches no memory.
            debug_assert_eq!(wk.cp_top, wk.b + choice::size(self.own_uint(wk.b + choice::NARGS, "cp nargs")));
            wk.cp_top
        } else {
            // The frame's true extent comes from its saved argument count —
            // an untraced host-side read: `num_args` may have changed since
            // the frame was pushed, and a shorter bound would let the next
            // push clobber the live frame's saved fields.  Cache it: `b`
            // only changes through sites that refresh or invalidate
            // `cp_top`, so the value stays good until the next cut/pop.
            let top = wk.b + choice::size(self.own_uint(wk.b + choice::NARGS, "cp nargs"));
            self.wk.cp_top = top;
            top
        };
        let wk = &*self.wk;
        let new_top = marker_top.max(b_top).max(wk.control_base);
        if new_top < wk.control_top {
            self.wk.control_top = new_top;
        }
    }

    /// Undo trailed bindings down to `target`.
    pub(crate) fn untrail_to(&mut self, target: u32) -> EngineResult<()> {
        while self.wk.tr > target {
            self.wk.tr -= 1;
            let taddr = self.wk.tr;
            let addr = self.mem_read(taddr, ObjectKind::TrailEntry).expect_uint("trail entry");
            let obj = self.object_for_addr(addr);
            self.mem_write(addr, Cell::Ref(addr), obj);
        }
        Ok(())
    }

    /// Handle a failure on this worker: either the current parallel goal
    /// fails, the whole query fails, or we backtrack into the most recent
    /// choice point.
    ///
    /// Before the failure target is restored, backward execution runs: if
    /// the restore would cross an *incomplete* Parcall Frame on this
    /// worker's `PF` chain (the parent of an inline CGE branch failing
    /// before `pcall_wait`), the frame is cancelled — un-stolen Goal Frames
    /// retracted, `cancel_goal` sent after in-flight ones — and the
    /// backtrack is deferred until the frame's completion counter drains.
    pub(crate) fn backtrack(&mut self) -> EngineResult<()> {
        self.backtrack_with(true)
    }

    /// The body of [`Step::backtrack`].  `record_failure` is true for an
    /// original failure and false when `finish_cancellation` resumes a
    /// deferred one, so `parcall_failures` counts each logical failure
    /// exactly once — at its originating backtrack, whether it then fails
    /// a goal, restores a choice point, or fails the query.
    fn backtrack_with(&mut self, record_failure: bool) -> EngineResult<()> {
        let b = self.wk.b;
        let at_goal_boundary = self.wk.goal_contexts.last().map(|c| c.entry_b == b).unwrap_or(false);
        let mut crossing = false;
        if self.wk.pf != NONE_ADDR {
            // Where would this failure leave the PF register?  Restoring a
            // choice point rewinds it to the frame open when the choice
            // point was pushed; failing a parallel goal rewinds it to the
            // goal-entry value; failing the query abandons the whole chain.
            let target_pf = if at_goal_boundary {
                self.wk.goal_contexts.last().map(|c| c.entry_pf).unwrap_or(NONE_ADDR)
            } else if b == NONE_ADDR {
                NONE_ADDR
            } else {
                let nargs = self.own_uint(b + choice::NARGS, "cp nargs");
                self.own_uint(choice::saved_pf(b, nargs), "cp pf")
            };
            crossing = self.wk.pf != target_pf;
            if crossing {
                if record_failure {
                    self.core.parcall_failures.fetch_add(1, Ordering::Relaxed);
                }
                if self.begin_parcall_cancellation(target_pf)? {
                    // Deferred: the worker is now `Cancelling`; the failure
                    // resumes from `finish_cancellation` once the frame
                    // drains.
                    return Ok(());
                }
            }
        }
        if at_goal_boundary {
            if record_failure && !crossing {
                self.core.parcall_failures.fetch_add(1, Ordering::Relaxed);
            }
            return self.unwind_goal(false);
        }
        if b == NONE_ADDR {
            self.core.mem.shared_write(board::STATUS, Cell::Uint(board::STATUS_FAILED));
            self.core.set_finished(false);
            self.wk.status = WorkerStatus::Stopped;
            return Ok(());
        }
        self.restore_from_choice_point()
    }

    /// Walk this worker's Parcall-Frame chain from `PF` down to (exclusive)
    /// `target_pf`, cancelling every incomplete frame on the way: retract
    /// its un-stolen Goal Frames, post `cancel_goal` for the in-flight
    /// stolen ones, and account the retractions so the completion counter
    /// still converges to `NGOALS`.  Returns `true` when some frame still
    /// has goals in flight — the worker is parked in
    /// [`WorkerStatus::Cancelling`] and the caller's failure is deferred —
    /// and `false` once every frame down to the target has fully drained.
    fn begin_parcall_cancellation(&mut self, target_pf: u32) -> EngineResult<bool> {
        let mut pf = self.wk.pf;
        while pf != target_pf && pf != NONE_ADDR {
            let status = self.mem_read(pf + parcall::STATUS, ObjectKind::ParcallLocal).expect_uint("status");
            let n = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal).expect_uint("ngoals");
            let done =
                self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount).expect_uint("completed");
            if done < n {
                if status != parcall::STATUS_CANCELLED {
                    self.cancel_parcall_frame(pf)?;
                }
                let done =
                    self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount).expect_uint("completed");
                if done < n {
                    self.wk.status = WorkerStatus::Cancelling { pf };
                    return Ok(true);
                }
            }
            self.consume_messages();
            pf = self.mem_read(pf + parcall::PREV_PF, ObjectKind::ParcallLocal).expect_uint("prev pf");
        }
        Ok(false)
    }

    /// Cancel one Parcall Frame: mark it, retract its un-stolen Goal Frames
    /// from this worker's board (each is accounted as completed so the
    /// counter still converges), and post a `cancel_goal` request to the
    /// executor of every in-flight stolen slot.  In-flight goals are never
    /// abandoned: they drain through the completion protocol, either by
    /// finishing normally or by aborting at the executor's next batch
    /// boundary.
    pub(crate) fn cancel_parcall_frame(&mut self, pf: u32) -> EngineResult<()> {
        let w = self.w();
        self.mem_rmw(pf + parcall::STATUS, ObjectKind::ParcallLocal, |v| v.max(parcall::STATUS_CANCELLED))?;
        self.core.parcalls_cancelled.fetch_add(1, Ordering::Relaxed);

        // Retract the frame's un-stolen Goal Frames under the board lock
        // (which serialises against thieves popping concurrently): once the
        // lock drops, every remaining goal of this frame is either already
        // committed or in an executor's hands.
        let mut retracted = 0u32;
        {
            // `core` is copied out of `self` so the guard does not pin `self`.
            let core = self.core;
            let mut board = core.boards[w].lock().unwrap();
            let mut kept = Vec::with_capacity(board.goal_frames.len());
            for &frame in board.goal_frames.iter() {
                let frame_pf =
                    self.mem_read(frame + goal_frame::PF, ObjectKind::GoalFrame).expect_uint("goal pf");
                if frame_pf == pf {
                    let slot =
                        self.mem_read(frame + goal_frame::SLOT, ObjectKind::GoalFrame).expect_uint("slot");
                    self.mem_write(
                        parcall::slot_status(pf, slot),
                        Cell::Uint(parcall::SLOT_CANCELLED),
                        ObjectKind::ParcallGlobal,
                    );
                    retracted += 1;
                } else {
                    kept.push(frame);
                }
            }
            board.goal_frames = kept;
            core.publish_goals_waiting(w, &board);
            board.goal_top = match board.goal_frames.last() {
                Some(&top) => {
                    let arity =
                        self.mem_read(top + goal_frame::ARITY, ObjectKind::GoalFrame).expect_uint("arity");
                    top + goal_frame::size(arity)
                }
                None => self.wk.goal_base,
            };
            self.wk.goal_top = board.goal_top;
        }
        for _ in 0..retracted {
            self.mem_rmw(pf + parcall::TO_SCHEDULE, ObjectKind::ParcallCount, |v| v.saturating_sub(1))?;
            self.mem_rmw(pf + parcall::COMPLETED, ObjectKind::ParcallCount, |v| v + 1)?;
        }
        self.core.goals_cancelled.fetch_add(retracted as u64, Ordering::Relaxed);

        // `cancel_goal` for every in-flight stolen slot.  Slots are written
        // lazily, so an untouched word means the goal was never stolen
        // (pending — just retracted — or executed by this worker through
        // the local path).
        let n = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal).expect_uint("ngoals");
        for k in 0..n {
            let status = self.mem_read(parcall::slot_status(pf, k), ObjectKind::ParcallGlobal);
            if status != Cell::Uint(parcall::SLOT_TAKEN) {
                continue;
            }
            let executor = self
                .mem_read(parcall::slot_pe(pf, k), ObjectKind::ParcallGlobal)
                .expect_uint("slot pe") as usize;
            if executor == w {
                continue; // cannot happen: own goals take the local path
            }
            {
                let mut board = self.core.boards[executor].lock().unwrap();
                board.cancel_requests.push((pf, k));
                board.cancel_notices += 1;
            }
            self.core.cancel_flags[executor].store(true, Ordering::Release);
        }
        Ok(())
    }

    /// A cancelled frame has fully drained: re-read its counters as the
    /// real machine would, consume the completion messages, and resume the
    /// deferred backtrack (which may immediately cancel the next frame on
    /// the chain).
    pub(super) fn finish_cancellation(&mut self, pf: u32) -> EngineResult<()> {
        let _ = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal);
        let _ = self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount);
        self.consume_messages();
        self.wk.status = WorkerStatus::Running;
        // Resuming the *same* logical failure: don't re-count it.
        self.backtrack_with(false)
    }

    /// Drain this worker's `cancel_goal` requests.  A request is honoured —
    /// the goal aborted through [`Step::unwind_goal`] — only when the named
    /// goal is the worker's *innermost* activity, it has no Parcall Frame
    /// of its own still open (`PF` back at the goal-entry value), **and**
    /// the live frame at that address confirms the abort: its status is
    /// cancelled and its slot still records this worker as the taken
    /// executor.  The confirmation closes an ABA hole — a stale request
    /// naming a frame address that was freed and re-allocated must not
    /// kill the healthy goal of the new incarnation (whose status is OK).
    ///
    /// A request whose target is still live on this worker's context stack
    /// but **not** safely abortable right now — the goal called deeper
    /// work, opened its own Parcall Frame, or the worker is mid-transition
    /// — is *kept pending* and re-checked at every subsequent batch
    /// boundary until the goal either becomes abortable or commits.
    /// (Dropping it, as this function used to, let the doomed goal run to
    /// completion whenever the request arrived at an unlucky boundary.)
    /// Only requests with no matching live context (the goal already
    /// committed, or the address was recycled) are discarded.
    pub(super) fn process_cancel_requests(&mut self) -> EngineResult<()> {
        let w = self.w();
        let mut requests = std::mem::take(&mut self.wk.pending_cancels);
        if self.core.cancel_flags[w].load(Ordering::Acquire) {
            let mut board = self.core.boards[w].lock().unwrap();
            self.core.cancel_flags[w].store(false, Ordering::Release);
            requests.extend(std::mem::take(&mut board.cancel_requests));
        }
        for (pf, slot) in requests {
            let live = self.wk.goal_contexts.iter().any(|c| c.stolen && c.pf == pf && c.slot == slot);
            if !live {
                continue; // committed (or recycled address): nothing to abort
            }
            let ctx_matches = match self.wk.goal_contexts.last() {
                Some(c) => c.stolen && c.pf == pf && c.slot == slot && self.wk.pf == c.entry_pf,
                None => false,
            };
            if !ctx_matches || self.wk.status != WorkerStatus::Running {
                self.wk.pending_cancels.push((pf, slot));
                continue;
            }
            // The matching context pins the frame live (its parent cannot
            // pass the drain while this goal is uncommitted), so these
            // words are valid whatever incarnation the request came from.
            let status = self.mem_read(pf + parcall::STATUS, ObjectKind::ParcallLocal).expect_uint("status");
            let slot_status = self
                .mem_read(parcall::slot_status(pf, slot), ObjectKind::ParcallGlobal)
                .expect_uint("slot status");
            if status != parcall::STATUS_CANCELLED || slot_status != parcall::SLOT_TAKEN {
                continue;
            }
            // Safe to read only behind a TAKEN status (the thief writes its
            // id first; a PENDING slot's executor word is uninitialised).
            let slot_pe =
                self.mem_read(parcall::slot_pe(pf, slot), ObjectKind::ParcallGlobal).expect_uint("slot pe");
            if slot_pe as usize == w {
                self.wk.goals_aborted += 1;
                self.unwind_goal(true)?;
            }
        }
        Ok(())
    }

    /// Called by the `halt` builtin: the query succeeded.  The answer
    /// location is published on the query board in the shared region, where
    /// any PE (or the host) can read it, *before* the finished flag flips,
    /// so every observer of the flag sees the answer.
    pub(crate) fn query_succeeded(&mut self) {
        self.core.mem.shared_write(board::STATUS, Cell::Uint(board::STATUS_SUCCEEDED));
        self.core.mem.shared_write(board::ANSWER_PE, Cell::Uint(self.w() as u32));
        self.core.mem.shared_write(board::ANSWER_ENV, Cell::Uint(self.wk.e));
        self.core.set_finished(true);
        self.wk.status = WorkerStatus::Stopped;
    }

    /// Execute a `call_host` at `p` on this PE, the way `exec_builtin` runs
    /// `is/2`: call host predicate `host`'s closure with the argument terms
    /// of `X1..Xn` (read untraced, as an answer is), then unify each
    /// `(index, term)` binding it returns with the argument at that 0-based
    /// position — built on this worker's heap, sharing variables by name
    /// across the reply, and trailed like any binding.  `Ok(false)` when the
    /// closure fails the call or a binding does not unify.  An engine built
    /// without its session's closures cannot run the call: that is a
    /// [`EngineError::BadInstruction`] at `p`.  Out of line, so the
    /// dispatch loop that inlines every handler stays its size.
    #[inline(never)]
    pub(crate) fn call_host(&mut self, host: u32, arity: u8, p: u32) -> EngineResult<bool> {
        let core = self.core;
        let Some(f) = core.hosts.get(host as usize) else {
            let name = core.program.hosts.get(host as usize).map_or("?", |(name, _)| name);
            return Err(EngineError::BadInstruction {
                addr: p,
                what: format!("host predicate {name}/{arity} has no closure on this engine"),
            });
        };
        self.wk.inferences += 1;
        let arity = arity as usize;
        let mut args = Vec::with_capacity(arity);
        for &cell in &self.wk.x[1..=arity] {
            args.push(extract_cell(&core.mem, cell)?);
        }
        let Some(bindings) = f(&args) else { return Ok(false) };
        let mut var_memo = std::collections::HashMap::new();
        for (idx, term) in &bindings {
            if *idx >= arity {
                return Err(EngineError::Internal(format!(
                    "host binding index {idx} out of range for {arity} argument(s)"
                )));
            }
            let arg = self.wk.x[idx + 1];
            let cell = self.build_term(term, &mut var_memo)?;
            if !self.unify(arg, cell)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Build a source-level [`Term`] on this worker's heap, for unifying a
    /// host predicate's output bindings into the machine.  Variables are
    /// memoized by name in `memo` so one host reply shares variables across
    /// its bindings.  An integer the machine cannot hold is
    /// `EngineError::IntegerOverflow`.
    pub(crate) fn build_term(
        &mut self,
        term: &Term,
        memo: &mut std::collections::HashMap<String, Cell>,
    ) -> EngineResult<Cell> {
        match term {
            Term::Int(i) => in_range(Some(*i)).map(Cell::Int),
            Term::Atom(a) => Ok(Cell::Con(*a)),
            Term::Var(name) => {
                if let Some(&cell) = memo.get(name) {
                    return Ok(cell);
                }
                let cell = self.new_heap_var()?;
                memo.insert(name.clone(), cell);
                Ok(cell)
            }
            Term::Struct(f, args) if *f == known::DOT && args.len() == 2 => {
                let head = self.build_term(&args[0], memo)?;
                let tail = self.build_term(&args[1], memo)?;
                let p = self.heap_push(head)?;
                self.heap_push(tail)?;
                Ok(Cell::Lis(p))
            }
            Term::Struct(f, args) if args.is_empty() => Ok(Cell::Con(*f)),
            Term::Struct(f, args) => {
                let mut cells = Vec::with_capacity(args.len());
                for arg in args {
                    cells.push(self.build_term(arg, memo)?);
                }
                let p = self.heap_push(Cell::Fun(*f, args.len() as u8))?;
                for cell in cells {
                    self.heap_push(cell)?;
                }
                Ok(Cell::Str(p))
            }
        }
    }
}
