//! Goal scheduling: Goal Frames popped and stolen, goals started, and their
//! completion committed to the Parcall Frame.

use super::Step;
use crate::cell::{Cell, NONE_ADDR};
use crate::error::{EngineError, EngineResult};
use crate::frames::{goal_frame, marker, message, parcall};
use crate::layout::{Area, ObjectKind};
use crate::sched::DeterminismMode;
use crate::worker::{GoalContext, Resume, WorkerStatus};
use std::sync::atomic::Ordering;

/// A Goal Frame's words, read under the owning board's lock before the
/// frame's storage can be reused (the arguments go straight into the
/// thief's argument registers).
struct GoalFrameImage {
    frame: u32,
    code: u32,
    arity: u32,
    pf: u32,
    slot: u32,
}

impl<'a, 'p> Step<'a, 'p> {
    // -----------------------------------------------------------------
    // Goal scheduling
    // -----------------------------------------------------------------

    /// Try to find a Goal Frame for this worker (own Goal Stack first, then
    /// — for *idle* workers — steal round-robin) and start executing it.
    /// Returns `true` if work was dispatched.
    ///
    /// A worker waiting at `pcall_wait` only picks up goals from its own
    /// board, as in the paper (stealing is how *idle* PEs find work).
    /// Letting waiting parents steal unrelated goals stacks foreign Stack
    /// Sections above their open Parcall Frames — with the leftmost branch
    /// executed inline the parent's board is often empty at the wait, and
    /// the resulting leapfrog chains were measured to inflate the
    /// local-stack high-water by ~30x on relaxed fib, far past what the
    /// program's own nesting ever needs.  Restricting steals to idle
    /// workers bounds every worker's stacks by its own subtree depth while
    /// keeping load balancing: each goal's owner can always execute it at
    /// its wait, and genuinely idle PEs still take anything.
    ///
    /// The frame's words are read *while the victim's board lock is held*:
    /// once the lock drops, the owner may pop further frames and push new
    /// ones over the recovered space, so a later read could observe a
    /// half-written successor frame.  Pushes hold the same lock, which makes
    /// the image read atomic with respect to the Goal Stack's reuse.
    /// A *cancelling* parent ([`Resume::ToCancel`]) is the mirror image: it
    /// only **steals**, never pops its own board.  Its own remaining frames
    /// belong to outer Parcall Frames of its own clause, whose goals share
    /// permanent variables with the suspended failure state — executing one
    /// locally would interleave that goal's trail section with the
    /// deferred backtrack's untrail range, and the section cannot be
    /// discarded soundly on success (the bindings reach the parent's own
    /// cells).  A goal stolen from another PE binds only cells of an
    /// *independent* parcall's dataflow, so its successful Stack Section
    /// can be frozen in place (see `Worker::frozen_h`) and its trail
    /// section dropped without the deferred backtrack ever observing it.
    pub(crate) fn try_dispatch_work(&mut self, resume: Resume) -> EngineResult<bool> {
        let w = self.w();
        let core = self.core;
        // Own goal stack first (fast local path: no Marker, no message) —
        // except under `ToCancel`, per above.
        let own = if matches!(resume, Resume::ToCancel { .. }) || !core.may_have_goals(w) {
            None
        } else {
            self.pop_goal_frame(w)
        };
        if let Some(img) = own {
            self.wk.goal_top = img.frame;
            self.start_goal(img, resume, false)?;
            return Ok(true);
        }
        if matches!(resume, Resume::ToWait { .. }) {
            return Ok(false);
        }
        // Steal from another worker (round-robin over victims).  One scan
        // over every victim counts as one attempt; `goals_stolen` below
        // counts the attempts that found work.  A victim whose count reads 0
        // is passed over without its lock.
        self.wk.steal_attempts += 1;
        let n = core.boards.len();
        for i in 0..n {
            let victim = (core.steal_cursor.load(Ordering::Relaxed) + i) % n;
            if victim == w || !core.may_have_goals(victim) {
                continue;
            }
            if let Some(img) = self.pop_goal_frame(victim) {
                core.steal_cursor.store((victim + 1) % n, Ordering::Relaxed);
                self.wk.goals_stolen += 1;
                self.start_goal(img, resume, true)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Pop the newest Goal Frame off `victim`'s board and read it while the
    /// board's lock is held (see [`Step::try_dispatch_work`]).  A thief's pop
    /// also counts a steal notice on the victim's board.
    fn pop_goal_frame(&mut self, victim: usize) -> Option<GoalFrameImage> {
        // `core` is copied out of `self` so the guard does not pin `self`.
        let core = self.core;
        let mut board = core.boards[victim].lock().unwrap();
        let frame = board.goal_frames.pop()?;
        core.publish_goals_waiting(victim, &board);
        board.goal_top = frame;
        if victim != self.w() {
            board.steal_notices += 1;
        }
        Some(self.read_goal_frame(frame))
    }

    /// Read a Goal Frame's words (and copy its arguments into the argument
    /// registers), producing the image `start_goal` consumes.  Callers hold
    /// the owning board's lock.
    fn read_goal_frame(&mut self, frame: u32) -> GoalFrameImage {
        let mut header = [Cell::Empty; goal_frame::HEADER as usize];
        self.mem_read_run(frame, ObjectKind::GoalFrame, &mut header);
        let [code, arity, pf, slot] = header;
        let arity = arity.expect_uint("goal arity");
        self.load_args(goal_frame::arg(frame, 0), arity, ObjectKind::GoalFrame);
        GoalFrameImage {
            frame,
            code: code.expect_code("goal code"),
            arity,
            pf: pf.expect_uint("goal pf"),
            slot: slot.expect_uint("goal slot"),
        }
    }

    /// Begin executing the goal stored in the Goal Frame at `frame`.
    ///
    /// `stolen` distinguishes goals taken from another worker's Goal Stack
    /// from goals the owner picks up itself.  Stolen goals get the full
    /// treatment (Marker on the thief's Control stack, executing-PE record
    /// in the Parcall Frame, completion message to the parent); local goals
    /// take the cheap path, which is where the original system's low
    /// parallelism overhead for not-actually-parallel goals comes from.
    fn start_goal(&mut self, img: GoalFrameImage, resume: Resume, stolen: bool) -> EngineResult<()> {
        let w = self.w();
        let GoalFrameImage { frame: _, code, arity, pf, slot } = img;

        // Record the pick-up in the Parcall Frame (atomically: under the
        // relaxed backend several PEs may grab goals of one parcall at
        // once).
        self.mem_rmw(pf + parcall::TO_SCHEDULE, ObjectKind::ParcallCount, |v| v.saturating_sub(1))?;
        if stolen {
            // The executing-PE word goes first: a cancelling parent that
            // observes `SLOT_TAKEN` must also observe a valid executor id
            // for its `cancel_goal` request (relaxed backend).
            self.mem_write(parcall::slot_pe(pf, slot), Cell::Uint(w as u32), ObjectKind::ParcallGlobal);
            self.mem_write(
                parcall::slot_status(pf, slot),
                Cell::Uint(parcall::SLOT_TAKEN),
                ObjectKind::ParcallGlobal,
            );
        }

        self.wk.parallel_goals += 1;
        if matches!(resume, Resume::ToCancel { .. }) {
            self.wk.goals_while_cancelling += 1;
        }
        self.wk.inferences += 1;

        let wk = &*self.wk;
        let (b, tr, h, local_top, e, cp, hb, sb, entry_pf) =
            (wk.b, wk.tr, wk.h, wk.local_top, wk.e, wk.cp, wk.hb, wk.stack_boundary, wk.pf);

        // Stolen goals push a Marker delimiting the new Stack Section.
        let marker_addr = if stolen {
            let m = wk.control_top;
            self.check_cached_top(wk.control_end, Area::ControlStack, m + marker::SIZE)?;
            // KIND, PF, SLOT, ENTRY_B, ENTRY_TR, ENTRY_H, ENTRY_LOCAL_TOP,
            // ENTRY_E.
            let words = [marker::KIND_GOAL, pf, slot, b, tr, h, local_top, e].map(Cell::Uint);
            self.mem_write_run(m, ObjectKind::Marker, &words);
            self.wk.control_top = m + marker::SIZE;
            self.wk.max_control_top = self.wk.max_control_top.max(self.wk.control_top);
            m
        } else {
            NONE_ADDR
        };

        let ctx = GoalContext {
            marker: marker_addr,
            pf,
            entry_pf,
            slot,
            entry_b: b,
            entry_tr: tr,
            entry_h: h,
            entry_local_top: local_top,
            prev_cp: cp,
            entry_e: e,
            prev_hb: hb,
            prev_stack_boundary: sb,
            resume,
            stolen,
            prev_marker_top: self.wk.marker_top,
        };
        let wk = &mut *self.wk;
        wk.goal_contexts.push(ctx);
        if stolen {
            wk.marker_top = marker_addr + marker::SIZE;
        }
        // Goal bodies start at a fresh predicate: move the profiling
        // attribution key along with the program counter.
        wk.prof_switch(code);
        wk.cp = self.core.program.goal_success_addr;
        wk.num_args = arity as u8;
        wk.b0 = wk.b;
        wk.p = code;
        wk.hb = wk.h;
        wk.stack_boundary = wk.local_top;
        wk.status = WorkerStatus::Running;
        Ok(())
    }

    /// Commit a parallel goal's completion (success or failure) to the
    /// Parcall Frame: notify the parent over its Message Buffer when the
    /// goal was stolen, and atomically bump the completion counter.
    ///
    /// Under [`DeterminismMode::Strict`] the commit order is the reference
    /// order (completion counter first, then the message), preserving the
    /// golden traces; under [`DeterminismMode::Relaxed`] the counter
    /// increment comes *last*, so a parent that sees the counter reach its
    /// target also sees every effect of the goal.  Both orders record the
    /// same reference multiset — only the interleaving differs.
    fn commit_completion(&mut self, stolen: bool, pf: u32, slot: u32, msg_kind: u32) -> EngineResult<()> {
        // Cross-PE commit: message first, counter increment last.
        let counter_last = self.core.config.determinism == DeterminismMode::Relaxed;
        if !counter_last {
            self.mem_rmw(pf + parcall::COMPLETED, ObjectKind::ParcallCount, |v| v + 1)?;
        }
        if stolen {
            let parent = self
                .mem_read(pf + parcall::PARENT_PE, ObjectKind::ParcallLocal)
                .expect_uint("parent pe") as usize;
            if parent != self.w() {
                self.post_message(parent, msg_kind, pf, slot)?;
            }
        }
        if counter_last {
            self.mem_rmw(pf + parcall::COMPLETED, ObjectKind::ParcallCount, |v| v + 1)?;
        }
        Ok(())
    }

    /// Executed when a parallel goal's continuation returns (the
    /// `goal_success` stub): record completion via [`Step::commit_completion`]
    /// and resume scheduling.
    pub(crate) fn finish_goal_success(&mut self) -> EngineResult<()> {
        let ctx = self
            .wk
            .goal_contexts
            .pop()
            .ok_or_else(|| EngineError::Internal("goal_success with no goal in progress".into()))?;
        let (pf, slot) = if ctx.stolen {
            // Re-read the Marker (pf, slot) as the real machine would, record
            // the completed slot and notify the parent.
            let mut words = [Cell::Empty; 2];
            self.mem_read_run(ctx.marker + marker::PF, ObjectKind::Marker, &mut words);
            let (pf, slot) = (words[0].expect_uint("marker pf"), words[1].expect_uint("marker slot"));
            self.mem_write(
                parcall::slot_status(pf, slot),
                Cell::Uint(parcall::SLOT_DONE),
                ObjectKind::ParcallGlobal,
            );
            (pf, slot)
        } else {
            (ctx.pf, ctx.slot)
        };

        self.commit_completion(ctx.stolen, pf, slot, message::KIND_DONE)?;
        self.leave_goal(&ctx, true);
        self.recede_control_top();
        Ok(())
    }

    /// A parallel goal failed (`cancelled` false) or was aborted by a
    /// `cancel_goal` request (`cancelled` true): recover the storage of its
    /// Stack Section, mark the Parcall Frame and commit the completion via
    /// [`Step::commit_completion`].  A cancellation is recorded in the slot
    /// and the message instead of a logical failure; either way the goal
    /// commits through the completion protocol, which is what keeps the
    /// cancelling parent's drain sound.
    pub(super) fn unwind_goal(&mut self, cancelled: bool) -> EngineResult<()> {
        let ctx = self
            .wk
            .goal_contexts
            .pop()
            .ok_or_else(|| EngineError::Internal("goal failure with no goal in progress".into()))?;
        let (pf, slot) = (ctx.pf, ctx.slot);
        if ctx.stolen {
            // Re-read the Marker, as the real machine recovers the Stack
            // Section through it: PF and SLOT, then — `ENTRY_B` is not needed
            // — ENTRY_TR to ENTRY_E.  Only the references matter.
            let mut words = [Cell::Empty; 4];
            self.mem_read_run(ctx.marker + marker::PF, ObjectKind::Marker, &mut words[..2]);
            self.mem_read_run(ctx.marker + marker::ENTRY_TR, ObjectKind::Marker, &mut words);
        }

        // Undo the goal's bindings and recover its storage.
        self.untrail_to(ctx.entry_tr)?;
        let wk = &mut *self.wk;
        // Entry tops are clamped to the frozen floors: a goal started before
        // a `ToCancel` success froze a section would otherwise reclaim it
        // here.  (Goals started *after* the freeze have entry tops at or
        // above the floors, making this a no-op.)
        wk.h = ctx.entry_h.max(wk.frozen_h);
        wk.local_top = ctx.entry_local_top.max(wk.frozen_local);
        if ctx.stolen {
            wk.control_top = ctx.marker; // the marker itself is recovered
        }

        // Mark the Parcall Frame.  The status merge is a `max`: plain
        // failure never downgrades a frame already under cancellation, and
        // concurrent writers (relaxed backend) cannot lose each other's
        // update because it is one compare-exchange on the word.
        let (slot_mark, msg_kind, status_mark) = if cancelled {
            (parcall::SLOT_CANCELLED, message::KIND_CANCELLED, parcall::STATUS_CANCELLED)
        } else {
            (parcall::SLOT_FAILED, message::KIND_FAILED, parcall::STATUS_FAILED)
        };
        if ctx.stolen {
            self.mem_write(parcall::slot_status(pf, slot), Cell::Uint(slot_mark), ObjectKind::ParcallGlobal);
        }
        self.mem_rmw(pf + parcall::STATUS, ObjectKind::ParcallLocal, |v| v.max(status_mark))?;
        self.commit_completion(ctx.stolen, pf, slot, msg_kind)?;
        self.leave_goal(&ctx, false);
        Ok(())
    }

    /// Leave a parallel goal that has committed its completion: restore the
    /// registers its context saved and go back to what the worker did before
    /// it took the goal.  Makes no memory reference.
    fn leave_goal(&mut self, ctx: &GoalContext, succeeded: bool) {
        let wk = &mut *self.wk;
        wk.cp = ctx.prev_cp;
        wk.e = ctx.entry_e;
        wk.env_cache_e = NONE_ADDR; // E restored from the goal context
        wk.hb = ctx.prev_hb;
        wk.stack_boundary = ctx.prev_stack_boundary;
        wk.pf = ctx.entry_pf;
        wk.marker_top = ctx.prev_marker_top;
        // Parallel goals commit to their first solution: choice points the
        // goal created are discarded on success.  Leaving them live would
        // let a later failure backtrack *into* a completed parallel goal,
        // whose Parcall/Goal-Frame bookkeeping (completion counters, slot
        // statuses, reclaimed frames) is not re-wound by the choice-point
        // machinery — re-entering such a choice point acts on dead state.
        // Deterministic goals (every registry benchmark's CGE bodies) leave
        // no choice points behind, so for them this is a no-op.
        wk.b = ctx.entry_b;
        wk.cp_top = NONE_ADDR;
        wk.status = match ctx.resume {
            Resume::ToWait { addr } => {
                wk.p = addr;
                WorkerStatus::Running
            }
            Resume::ToCancel { pf } => {
                if succeeded {
                    // The goal succeeded while this worker's own state is a
                    // suspended failure.  Its results belong to another
                    // Parcall Frame but live in *our* Stack Set, above the
                    // suspended state — freeze them: the deferred backtrack's
                    // restore targets are clamped to these floors so the
                    // section survives, and the goal's trail entries are
                    // dropped so the backtrack never unbinds the frozen result
                    // (every entry in the section points into the independent
                    // parcall's dataflow, never into our own failing branch).
                    // A failed goal's whole Stack Section was just unwound, so
                    // there is nothing to freeze.
                    wk.frozen_h = wk.frozen_h.max(wk.h);
                    wk.frozen_local = wk.frozen_local.max(wk.local_top);
                    wk.tr = ctx.entry_tr;
                }
                // Re-park and keep waiting for the cancelled frame to drain.
                WorkerStatus::Cancelling { pf }
            }
            Resume::Idle => WorkerStatus::Idle,
        };
    }

    /// Write a completion/failure message into `parent`'s Message Buffer.
    /// The parent's board lock is held across slot allocation *and* the word
    /// writes, so concurrent posters can never interleave on one slot.
    fn post_message(&mut self, parent: usize, kind: u32, pf: u32, slot: u32) -> EngineResult<()> {
        // `core` is copied out of `self` so the guard does not pin `self`.
        let core = self.core;
        let base = core.mem.map.area_base(parent, Area::MessageBuffer);
        let size = core.mem.map.config.message_words;
        let mut board = core.boards[parent].lock().unwrap();
        let mut top = board.msg_top;
        if top + message::SIZE > base + size {
            top = base; // wrap the circular buffer
        }
        // KIND, PF, SLOT.
        self.mem_write_run(top, ObjectKind::Message, &[kind, pf, slot].map(Cell::Uint));
        board.msg_top = top + message::SIZE;
        board.pending_messages += 1;
        Ok(())
    }

    /// Consume this worker's pending completion messages (called when a
    /// Parcall Frame completes), generating the corresponding read traffic.
    pub(crate) fn consume_messages(&mut self) {
        // `core` is copied out of `self` so the guard does not pin `self`.
        let core = self.core;
        let mut board = core.boards[self.w()].lock().unwrap();
        let pending = board.pending_messages;
        if pending == 0 {
            return;
        }
        let mut addr = board.msg_top;
        for _ in 0..pending {
            // Read back the most recent messages (newest first); the values
            // only matter for the reference trace.
            addr = addr.saturating_sub(message::SIZE).max(self.wk.msg_base);
            self.mem_read_run(addr, ObjectKind::Message, &mut [Cell::Empty; message::SIZE as usize]);
        }
        board.pending_messages = 0;
    }
}
