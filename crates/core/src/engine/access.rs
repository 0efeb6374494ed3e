//! `Step::new`, the memory accessors and the scheduling actions of a worker
//! that is not running (`run_slot`), and the relaxed backend's batch
//! (`exec_batch`).

use super::{EngineCore, Step};
use crate::cell::{Cell, NONE_ADDR};
use crate::error::{EngineError, EngineResult};
use crate::frames::parcall;
use crate::layout::{Area, ObjectKind};
use crate::trace::MemRef;
use crate::worker::{Resume, Worker, WorkerStatus};
use std::sync::atomic::Ordering;

impl<'a, 'p> Step<'a, 'p> {
    /// Pair the shared core with one worker's state and look that worker's
    /// Stack Set up: the one way a `Step` is built.
    #[inline]
    pub(crate) fn new(core: &'a EngineCore<'p>, wk: &'a mut Worker) -> Self {
        let own = core.mem.arena(wk.id as usize);
        Step { core, wk, own, end_on_push: false }
    }

    /// This worker's index.
    #[inline]
    pub(crate) fn w(&self) -> usize {
        self.wk.id as usize
    }

    // -----------------------------------------------------------------
    // The memory accessors
    // -----------------------------------------------------------------
    //
    // Every data reference the machine makes goes through `mem_read`,
    // `mem_write`, `mem_rmw` or — for consecutive words of one object kind, a
    // frame or the part of one — `mem_read_run` / `mem_write_run`, and each
    // does the same three things: count the reference(s) in this worker's
    // table, append the record(s) to this worker's buffer when the run is
    // traced, and move the word(s) — lock-free, wherever they live (see the
    // Concurrency section of [`crate::mem`]).  The worker's own Stack Set is
    // tried first, and its one checked slice access is also the test "is the
    // address mine?"; only a miss asks the address map which other PE's arena
    // it is.  A run is what its single references would be, in ascending
    // address order: same counts, same records under the same sequence
    // numbers, same words, same reset mark — `mem.rs`' tests hold the two side
    // by side.  Nothing shared is written but the words themselves, their
    // reset mark and, when tracing, the sequence counter: the worker belongs
    // to the one thread that steps it.

    /// Count one reference to the `object` word at `addr` and, when tracing,
    /// record it.
    #[inline(always)]
    fn note_ref(&mut self, addr: u32, write: bool, object: ObjectKind) {
        debug_assert_eq!(
            self.core.mem.map.area_of(addr),
            object.area(),
            "object kind {object:?} used outside its area"
        );
        self.wk.refs.count(object, write);
        if let Some(trace) = &mut self.wk.trace {
            trace.push((self.core.mem.next_seqs(1), MemRef::new(self.wk.id, addr, write, object)));
        }
    }

    /// Count `n` references to the consecutive `object` words from `addr` up
    /// and, when tracing, record them in ascending address order: what `n`
    /// calls of [`Step::note_ref`] leave.  On its own this is a run of reads
    /// whose values the worker already holds in registers (`deallocate`).
    #[inline(always)]
    pub(crate) fn note_run(&mut self, addr: u32, n: u32, write: bool, object: ObjectKind) {
        debug_assert!(
            (addr..addr + n).all(|a| self.core.mem.map.area_of(a) == object.area()),
            "object kind {object:?} used outside its area"
        );
        self.wk.refs.counts[object.index()][write as usize] += n as u64;
        if let Some(trace) = &mut self.wk.trace {
            let seq = self.core.mem.next_seqs(n);
            trace.extend((0..n).map(|i| (seq + i as u64, MemRef::new(self.wk.id, addr + i, write, object))));
        }
    }

    /// Read one word.
    #[inline(always)]
    pub(crate) fn mem_read(&mut self, addr: u32, object: ObjectKind) -> Cell {
        self.note_ref(addr, false, object);
        match self.own.load(addr) {
            Some(cell) => cell,
            None => self.core.mem.load(addr),
        }
    }

    /// Write one word.
    #[inline(always)]
    pub(crate) fn mem_write(&mut self, addr: u32, value: Cell, object: ObjectKind) {
        self.note_ref(addr, true, object);
        if !self.own.store(addr, value, object.area(), true) {
            self.core.mem.store_remote(addr, value, object.area());
        }
    }

    /// Atomically replace the `Uint` at `addr` by `f` of it and return the
    /// value replaced — exactly the read reference followed by the write
    /// reference a split pair would have made.  `f` may run more than once
    /// when updates race.
    #[inline(always)]
    pub(crate) fn mem_rmw(
        &mut self,
        addr: u32,
        object: ObjectKind,
        mut f: impl FnMut(u32) -> u32,
    ) -> EngineResult<u32> {
        self.note_ref(addr, false, object);
        let old = match self.own.update_uint(addr, object.area(), true, &mut f) {
            Some(updated) => updated?,
            None => self.core.mem.update_uint_remote(addr, object.area(), f)?,
        };
        self.note_ref(addr, true, object);
        Ok(old)
    }

    /// Read the `out.len()` consecutive `object` words from `addr` up.  A
    /// run that no one arena holds is made as its single reads, each finding
    /// its own arena.
    #[inline(always)]
    pub(crate) fn mem_read_run(&mut self, addr: u32, object: ObjectKind, out: &mut [Cell]) {
        if self.own.load_run(addr, out) || self.core.mem.load_run(addr, out) {
            self.note_run(addr, out.len() as u32, false, object);
        } else {
            for (i, cell) in out.iter_mut().enumerate() {
                *cell = self.mem_read(addr + i as u32, object);
            }
        }
    }

    /// Write `values` to the consecutive `object` words from `addr` up.  A
    /// run that no one arena holds is made as its single writes, each finding
    /// its own arena.
    #[inline(always)]
    pub(crate) fn mem_write_run(&mut self, addr: u32, object: ObjectKind, values: &[Cell]) {
        let area = object.area();
        if self.own.store_run(addr, values, area, true) || self.core.mem.store_run_remote(addr, values, area)
        {
            self.note_run(addr, values.len() as u32, true, object);
        } else {
            for (i, &value) in values.iter().enumerate() {
                self.mem_write(addr + i as u32, value, object);
            }
        }
    }

    /// Save `A1..An` in the `n` `object` words from `addr` up (a choice
    /// point's arguments).
    #[inline(always)]
    pub(super) fn save_args(&mut self, addr: u32, n: u32, object: ObjectKind) {
        // A run takes its cells as a slice and `self` whole, so the X file
        // leaves the worker for the length of the call.
        let x = std::mem::take(&mut self.wk.x);
        self.mem_write_run(addr, object, &x[1..=n as usize]);
        self.wk.x = x;
    }

    /// Read the `n` `object` words from `addr` up (a choice point's or a Goal
    /// Frame's arguments) back into `A1..An`.
    #[inline(always)]
    pub(super) fn load_args(&mut self, addr: u32, n: u32, object: ObjectKind) {
        let mut x = std::mem::take(&mut self.wk.x);
        self.mem_read_run(addr, object, &mut x[1..=n as usize]);
        self.wk.x = x;
    }

    /// The `Uint` at `addr` in this worker's own Stack Set, read without
    /// making a reference: what backtracking looks up about its own choice
    /// point (every choice point lies on its worker's Control stack), with
    /// no address-map division.
    #[inline(always)]
    pub(super) fn own_uint(&self, addr: u32, what: &str) -> u32 {
        self.own.load(addr).expect("a choice point lies in its worker's own Stack Set").expect_uint(what)
    }

    /// Classify an address *known to lie in this worker's own arena* by the
    /// object kind of its area — the register-resident counterpart of
    /// [`EngineCore::object_for_addr`], comparing against the worker's
    /// cached area boundaries instead of dividing through the address map.
    #[inline(always)]
    pub(crate) fn own_object_kind(&self, addr: u32) -> ObjectKind {
        debug_assert!(self.own.holds(addr));
        let wk = &*self.wk;
        if addr < wk.local_base {
            ObjectKind::HeapTerm
        } else if addr < wk.control_base {
            ObjectKind::EnvPermVar
        } else if addr < wk.trail_base {
            ObjectKind::Marker
        } else if addr < wk.pdl_base {
            ObjectKind::TrailEntry
        } else if addr < wk.goal_base {
            ObjectKind::PdlEntry
        } else if addr < wk.msg_base {
            ObjectKind::GoalFrame
        } else {
            ObjectKind::Message
        }
    }

    /// Classify a data address as [`EngineCore::object_for_addr`] would,
    /// taking the boundary-register path for own-arena addresses.
    #[inline(always)]
    pub(crate) fn object_for_addr(&self, addr: u32) -> ObjectKind {
        if self.own.holds(addr) {
            self.own_object_kind(addr)
        } else {
            self.core.object_for_addr(addr)
        }
    }

    /// Bounds-check a stack top against a worker-cached area end (the same
    /// check as [`Memory::check_top`], without recomputing the end from the
    /// address map).
    #[inline(always)]
    pub(crate) fn check_cached_top(&self, end: u32, area: Area, addr: u32) -> EngineResult<()> {
        debug_assert_eq!(end, self.core.mem.map.area_end(self.w(), area));
        if addr >= end {
            Err(EngineError::OutOfMemory { worker: self.w(), area })
        } else {
            Ok(())
        }
    }

    /// Drop the cached topmost-environment words.  Called wherever `E` is
    /// restored from saved state (choice-point restore, goal wind-down):
    /// the cache only ever describes the environment the worker itself
    /// just allocated, so any other transition simply falls back to real
    /// frame reads.
    #[inline(always)]
    pub(crate) fn invalidate_env_cache(&mut self) {
        self.wk.env_cache_e = NONE_ADDR;
    }

    /// Give this worker that is not running one slot: one scheduling action
    /// — pick up or steal a goal, resume at a drained wait, finish a drained
    /// cancellation.  Returns `true` if the worker made progress.  The
    /// running worker's slot is its driver's: `Engine::step_slot` on the
    /// strict backend, `exec_batch` on the relaxed one.  Both call this only
    /// while the query is unfinished.
    pub(crate) fn run_slot(&mut self) -> EngineResult<bool> {
        Ok(match self.wk.status {
            WorkerStatus::Stopped => false,
            WorkerStatus::Running => unreachable!("a running worker's slot belongs to its driver"),
            WorkerStatus::Idle => {
                self.wk.idle_cycles += 1;
                self.try_dispatch_work(Resume::Idle)?
            }
            WorkerStatus::WaitingAtPcall { addr, pf } => {
                self.wk.idle_cycles += 1;
                // Shadow check: has the Parcall Frame completed (or begun
                // failing, which the wait answers with cancellation)?  The
                // actual (traced) reads happen when the worker re-executes
                // the pcall_wait instruction.
                if self.parcall_drained(pf)
                    || self.core.mem.read_untraced(pf + parcall::STATUS).expect_uint("pcall status")
                        == parcall::STATUS_FAILED
                {
                    self.wk.p = addr;
                    self.wk.status = WorkerStatus::Running;
                    true
                } else {
                    self.try_dispatch_work(Resume::ToWait { addr })?
                }
            }
            WorkerStatus::Cancelling { pf } => {
                self.wk.idle_cycles += 1;
                // Shadow check, as for `WaitingAtPcall`: once every goal of
                // the cancelled frame has committed (completed, failed,
                // aborted or retracted), resume the deferred backtrack.
                if self.parcall_drained(pf) {
                    self.finish_cancellation(pf)?;
                    true
                } else {
                    // The drain can take arbitrarily long (an in-flight
                    // stolen goal only honours its `cancel_goal` at a batch
                    // boundary, and may legitimately run to completion), so
                    // a cancelling parent is not condemned to spin: it
                    // steals goals from *other* PEs meanwhile, exactly like
                    // an idle worker.  See `try_dispatch_work` for why only
                    // stolen (never own-board) goals are safe here.
                    self.try_dispatch_work(Resume::ToCancel { pf })?
                }
            }
        })
    }

    /// Whether every goal of the Parcall Frame at `pf` has committed, read
    /// without making a reference: a parked worker's shadow check.
    fn parcall_drained(&self, pf: u32) -> bool {
        let n = self.core.mem.read_untraced(pf + parcall::NGOALS).expect_uint("pcall ngoals");
        let done = self.core.mem.read_untraced(pf + parcall::COMPLETED).expect_uint("pcall completed");
        done >= n
    }

    /// Execute up to `max` instructions while the worker stays `Running` and
    /// the query unfinished: a relaxed PE's batch, and a strict slot of a
    /// running worker.  Returns the number executed, which the driver adds
    /// to the shared step count (`Worker::instructions` has them too).
    #[inline]
    pub(crate) fn exec_batch(&mut self, max: u32) -> EngineResult<u32> {
        if self.core.steps() > self.core.config.max_steps {
            return Err(EngineError::StepLimitExceeded { limit: self.core.config.max_steps });
        }
        // `cancel_goal` requests are honoured at batch boundaries — the
        // machine state is between instructions, so aborting an in-flight
        // stolen goal here is exactly a goal failure at a clean point.
        // Requests that were not safely abortable when they arrived stay in
        // `pending_cancels` and are re-checked here until the goal either
        // becomes the innermost activity (and aborts) or commits.
        if self.core.cancel_flags[self.w()].load(Ordering::Acquire) || !self.wk.pending_cancels.is_empty() {
            self.process_cancel_requests()?;
        }
        self.exec_batch_flat(max)
    }
}
