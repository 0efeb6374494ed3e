//! Instruction dispatch: execution of abstract-machine instructions.
//!
//! All instructions run as methods on `Step` — one worker's exclusive
//! state paired with the shared [`crate::engine::EngineCore`] — so the same
//! dispatch serves the deterministic backends (one `Step` at a time) and the
//! relaxed backend (one `Step` per OS thread, concurrently).
//!
//! There is one dispatch path.  `Step::exec_batch_flat` fetches from the
//! pre-decoded fixed-width [`DenseInstr`] stream with an unchecked indexed
//! load, keeps the program counter in a local across the batch (written
//! back to `wk.p` only at batch exit and at control transfers that leave
//! the loop), and dispatches through `Step::exec_flat`, whose handlers
//! return a `Flow` telling the loop how the counter moves.  What it must
//! keep producing — answers, counters and the tagged reference stream — is
//! pinned from outside: an independent term-level oracle checks the answers,
//! recorded golden fingerprints check the stream.

use crate::builtins::BuiltinOutcome;
use crate::cell::{Cell, NONE_ADDR};
use crate::engine::Step;
use crate::error::{EngineError, EngineResult};
use crate::frames::{choice, env, goal_frame, parcall};
use crate::known;
use crate::layout::{Area, ObjectKind};
use crate::worker::{Mode, Resume, WorkerStatus};
use pwam_compiler::{decode_reg, CodeAddr, ConstKey, DenseInstr, DenseOp, Instr, Reg};
use pwam_front::Atom;

/// How the flattened dispatch loop advances the program counter after one
/// instruction.
pub(crate) enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// Transfer control to an explicit address.
    Jump(CodeAddr),
    /// The handler moved `wk.p` itself (backtracking, goal start/finish) or
    /// left the running state (park, halt, query failure): reload the local
    /// counter from the worker and re-check the loop conditions.
    Reload,
}

impl<'a, 'p> Step<'a, 'p> {
    /// Shared implementation of `get_constant` / `get_integer` / `get_nil`:
    /// unify the argument register with an atomic cell.
    fn get_atomic(&mut self, arg: Cell, atomic: Cell) -> EngineResult<bool> {
        match self.deref(arg) {
            Cell::Ref(addr) => {
                self.bind(addr, atomic)?;
                Ok(true)
            }
            other => Ok(other == atomic),
        }
    }

    /// Shared implementation of write/read mode `unify_constant` and friends.
    fn unify_atomic(&mut self, atomic: Cell) -> EngineResult<bool> {
        match self.wk.mode {
            Mode::Write => {
                self.heap_push(atomic)?;
                Ok(true)
            }
            Mode::Read => {
                let s = self.wk.s;
                let obj = self.object_for_addr(s);
                let c = self.mem_read(s, obj);
                self.wk.s = s + 1;
                match self.deref(c) {
                    Cell::Ref(addr) => {
                        self.bind(addr, atomic)?;
                        Ok(true)
                    }
                    other => Ok(other == atomic),
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The dispatch loop
    // -----------------------------------------------------------------

    /// Execute up to `max` instructions through the dense pre-decoded
    /// stream, keeping the program counter in a local for the whole batch.
    ///
    /// The counter is written back to `wk.p` at the safe points where
    /// something else may observe or redirect it: batch exit (steal/cancel
    /// boundaries, `end_round`), parking at `pcall_wait`, and before
    /// returning an error.  Handlers that transfer control through the
    /// worker (backtracking, goal start/finish) update `wk.p` themselves
    /// and return [`Flow::Reload`].
    /// The loop is two-level: the outer level re-checks the full set of
    /// exit conditions (budget, worker status, query completion, and in a
    /// solo round a pushed Goal Frame — `Step::end_on_push`), while the
    /// hot inner level checks only the instruction budget.  This is sound
    /// because every handler that can park the worker or finish the query
    /// returns [`Flow::Reload`] (or an error) — `Next`/`Jump` outcomes
    /// leave the worker `Running` and the query open by construction, so
    /// re-testing those conditions per instruction is pure overhead.  Under
    /// the relaxed backend another PE may finish the query mid-batch; the
    /// worker then runs at most the rest of its (small, fixed) relaxed
    /// batch before the driver observes the flag, exactly as it may already
    /// overrun by the instructions in flight before its next boundary.
    pub(crate) fn exec_batch_flat(&mut self, max: u32) -> EngineResult<u32> {
        let core = self.core;
        let dense = core.program.dense.code.as_slice();
        let mut n = 0u32;
        let mut p = self.wk.p;
        let result = 'outer: loop {
            if n >= max
                || self.wk.status != WorkerStatus::Running
                || core.halted()
                || (self.end_on_push && core.may_have_goals(self.w()))
            {
                break Ok(());
            }
            loop {
                self.wk.instructions += 1;
                n += 1;
                debug_assert!((p as usize) < dense.len(), "program counter out of the code area");
                // SAFETY: every code address in a loaded program (entry
                // points, saved continuations, choice-point alternatives)
                // lies inside the code area, and the dense stream has
                // exactly one slot per instruction; the debug assertion
                // above checks the invariant in debug builds.
                let di = unsafe { *dense.get_unchecked(p as usize) };
                match self.exec_flat(di, p) {
                    Ok(Flow::Next) => p += 1,
                    Ok(Flow::Jump(addr)) => p = addr,
                    Ok(Flow::Reload) => {
                        p = self.wk.p;
                        continue 'outer;
                    }
                    Err(e) => {
                        self.wk.p = p;
                        break 'outer Err(e);
                    }
                }
                if n >= max {
                    break 'outer Ok(());
                }
            }
        };
        self.wk.p = p;
        // Scheduler telemetry: classify the exit cause — the slot's budget
        // ran out (the quantum on N PEs; the slot cap or a due fuel/step
        // limit on one PE; the relaxed batch length) and the driver
        // re-enters immediately, against leaving the running state (parked
        // at a wait, idle, cancelled, or query over).  One predictable
        // branch per batch, amortised over `max` instructions.
        if result.is_ok() {
            if self.wk.status == WorkerStatus::Running && !core.halted() {
                self.wk.batch_exits_budget += 1;
            } else {
                self.wk.batch_exits_park += 1;
            }
        }
        result.map(|_| n)
    }

    /// Handle a failure inside the flat loop: run the backward-execution
    /// machinery, then — when the worker is still `Running` (the common
    /// case: the failure restored one of this PE's own choice points) —
    /// continue at the restored `wk.p` without re-entering the outer loop.
    /// Cold outcomes (goal failure that parks the worker, deferred
    /// cancellation, query failure) return [`Flow::Reload`], whose
    /// condition re-check routes control back to the driver.
    #[inline(always)]
    fn fail(&mut self) -> EngineResult<Flow> {
        self.backtrack()?;
        Ok(if self.wk.status == WorkerStatus::Running { Flow::Jump(self.wk.p) } else { Flow::Reload })
    }

    /// Execute one pre-decoded instruction; `p` is its address.
    #[inline(always)]
    fn exec_flat(&mut self, di: DenseInstr, p: CodeAddr) -> EngineResult<Flow> {
        match di.op {
            // ---------------- put ----------------
            DenseOp::PutVariable => {
                match decode_reg(di.b) {
                    Reg::X(n) => {
                        let var = self.new_heap_var()?;
                        self.wk.x[n as usize] = var;
                        self.wk.x[di.c as usize] = var;
                    }
                    Reg::Y(n) => {
                        let addr = self.y_addr(n)?;
                        self.mem_write(addr, Cell::Ref(addr), ObjectKind::EnvPermVar);
                        self.wk.x[di.c as usize] = Cell::Ref(addr);
                    }
                }
                Ok(Flow::Next)
            }
            DenseOp::PutValue => {
                let c = self.read_reg(decode_reg(di.b))?;
                self.wk.x[di.c as usize] = c;
                Ok(Flow::Next)
            }
            DenseOp::PutUnsafeValue => {
                let c = self.read_reg(Reg::Y(di.b))?;
                let g = self.globalize(c)?;
                self.wk.x[di.c as usize] = g;
                Ok(Flow::Next)
            }
            DenseOp::PutConstant => {
                self.wk.x[di.b as usize] = Cell::Con(Atom(di.c));
                Ok(Flow::Next)
            }
            DenseOp::PutInteger => {
                self.wk.x[di.b as usize] = Cell::Int(self.dense_int(di.c));
                Ok(Flow::Next)
            }
            DenseOp::PutNil => {
                self.wk.x[di.b as usize] = Cell::Con(known::NIL);
                Ok(Flow::Next)
            }
            DenseOp::PutStructure => {
                let addr = self.heap_push(Cell::Fun(Atom(di.c), di.a))?;
                self.wk.x[di.b as usize] = Cell::Str(addr);
                self.wk.mode = Mode::Write;
                Ok(Flow::Next)
            }
            DenseOp::PutList => {
                let h = self.wk.h;
                self.wk.x[di.b as usize] = Cell::Lis(h);
                self.wk.mode = Mode::Write;
                Ok(Flow::Next)
            }

            // ---------------- get ----------------
            DenseOp::GetVariable => {
                let c = self.wk.x[di.c as usize];
                self.write_reg(decode_reg(di.b), c)?;
                Ok(Flow::Next)
            }
            DenseOp::GetValue => {
                let c = self.read_reg(decode_reg(di.b))?;
                let arg = self.wk.x[di.c as usize];
                if !self.unify(c, arg)? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::GetConstant => {
                let arg = self.wk.x[di.b as usize];
                if !self.get_atomic(arg, Cell::Con(Atom(di.c)))? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::GetInteger => {
                let arg = self.wk.x[di.b as usize];
                if !self.get_atomic(arg, Cell::Int(self.dense_int(di.c)))? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::GetNil => {
                let arg = self.wk.x[di.b as usize];
                if !self.get_atomic(arg, Cell::Con(known::NIL))? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::GetStructure => {
                let arg = self.wk.x[di.b as usize];
                match self.deref(arg) {
                    Cell::Ref(addr) => {
                        let fun_addr = self.heap_push(Cell::Fun(Atom(di.c), di.a))?;
                        self.bind(addr, Cell::Str(fun_addr))?;
                        self.wk.mode = Mode::Write;
                    }
                    Cell::Str(pp) => {
                        let fun = self.mem_read(pp, ObjectKind::HeapTerm);
                        match fun {
                            Cell::Fun(f2, n2) if f2 == Atom(di.c) && n2 == di.a => {
                                self.wk.s = pp + 1;
                                self.wk.mode = Mode::Read;
                            }
                            _ => {
                                return self.fail();
                            }
                        }
                    }
                    _ => {
                        return self.fail();
                    }
                }
                Ok(Flow::Next)
            }
            DenseOp::GetList => {
                let arg = self.wk.x[di.b as usize];
                match self.deref(arg) {
                    Cell::Ref(addr) => {
                        let h = self.wk.h;
                        self.bind(addr, Cell::Lis(h))?;
                        self.wk.mode = Mode::Write;
                    }
                    Cell::Lis(pp) => {
                        self.wk.s = pp;
                        self.wk.mode = Mode::Read;
                    }
                    _ => {
                        return self.fail();
                    }
                }
                Ok(Flow::Next)
            }

            // ---------------- unify ----------------
            DenseOp::UnifyVariable => {
                match self.wk.mode {
                    Mode::Read => {
                        let s = self.wk.s;
                        let obj = self.object_for_addr(s);
                        let c = self.mem_read(s, obj);
                        self.wk.s = s + 1;
                        self.write_reg(decode_reg(di.b), c)?;
                    }
                    Mode::Write => {
                        let var = self.new_heap_var()?;
                        self.write_reg(decode_reg(di.b), var)?;
                    }
                }
                Ok(Flow::Next)
            }
            DenseOp::UnifyValue => {
                match self.wk.mode {
                    Mode::Read => {
                        let s = self.wk.s;
                        let obj = self.object_for_addr(s);
                        let target = self.mem_read(s, obj);
                        self.wk.s = s + 1;
                        let c = self.read_reg(decode_reg(di.b))?;
                        if !self.unify(c, target)? {
                            return self.fail();
                        }
                    }
                    Mode::Write => {
                        let c = self.read_reg(decode_reg(di.b))?;
                        let g = self.globalize(c)?;
                        self.heap_push(g)?;
                    }
                }
                Ok(Flow::Next)
            }
            DenseOp::UnifyConstant => {
                if !self.unify_atomic(Cell::Con(Atom(di.c)))? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::UnifyInteger => {
                if !self.unify_atomic(Cell::Int(self.dense_int(di.c)))? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::UnifyNil => {
                if !self.unify_atomic(Cell::Con(known::NIL))? {
                    return self.fail();
                }
                Ok(Flow::Next)
            }
            DenseOp::UnifyVoid => {
                match self.wk.mode {
                    Mode::Read => self.wk.s += di.a as u32,
                    Mode::Write => {
                        for _ in 0..di.a {
                            self.new_heap_var()?;
                        }
                    }
                }
                Ok(Flow::Next)
            }

            // ---------------- control ----------------
            DenseOp::Allocate => {
                let n = di.b as u32;
                let e_new = self.wk.local_top;
                self.check_cached_top(self.wk.local_end, Area::LocalStack, e_new + env::size(n))?;
                let (e_old, cp) = (self.wk.e, self.wk.cp);
                // CE, CP, NVARS.
                let header = [Cell::Uint(e_old), Cell::Code(cp), Cell::Uint(n)];
                self.mem_write_run(e_new, ObjectKind::EnvControl, &header);
                let wk = &mut *self.wk;
                wk.e = e_new;
                wk.local_top = e_new + env::size(n);
                wk.max_local_top = wk.max_local_top.max(wk.local_top);
                // Keep the frame's control words register-resident: a
                // `deallocate` reaching this frame while it is still the
                // topmost environment consumes them without re-reading the
                // frame (the reads are accounted as if performed).
                wk.env_cache_e = e_new;
                wk.env_cache_ce = e_old;
                wk.env_cache_cp = cp;
                wk.env_cache_n = n;
                Ok(Flow::Next)
            }
            DenseOp::Deallocate => {
                let e = self.wk.e;
                let (ce, cp, n) = if self.wk.env_cache_e == e {
                    // Register-cache hit: the continuation words were
                    // written by this worker's own `allocate` and nothing
                    // restored `E` since (every such transition drops the
                    // cache).  Make the three frame reads the machine
                    // performs here as references all the same, so counters
                    // and trace stay identical to the uncached path.
                    debug_assert_eq!(
                        self.core.mem.read_untraced(e + env::CE).expect_uint("env CE"),
                        self.wk.env_cache_ce
                    );
                    debug_assert_eq!(
                        self.core.mem.read_untraced(e + env::CP).expect_code("env CP"),
                        self.wk.env_cache_cp
                    );
                    debug_assert_eq!(
                        self.core.mem.read_untraced(e + env::NVARS).expect_uint("env nvars"),
                        self.wk.env_cache_n
                    );
                    self.note_run(e, env::HEADER, false, ObjectKind::EnvControl);
                    let wk = &*self.wk;
                    (wk.env_cache_ce, wk.env_cache_cp, wk.env_cache_n)
                } else {
                    let mut header = [Cell::Empty; env::HEADER as usize];
                    self.mem_read_run(e, ObjectKind::EnvControl, &mut header);
                    let [ce, cp, n] = header;
                    (ce.expect_uint("env CE"), cp.expect_code("env CP"), n.expect_uint("env nvars"))
                };
                let wk = &mut *self.wk;
                if e + env::size(n) == wk.local_top {
                    // Recover the frame's space, but never below the current
                    // choice point's protected region (`stack_boundary` is
                    // the local top the newest choice point saved): a
                    // choice point pushed after this environment was
                    // allocated restores `saved_e` into it on backtracking,
                    // so its slots must survive until then.  This is the
                    // split-stack analogue of the single-stack WAM's
                    // `E = max(E, B)` allocation rule; without it a later
                    // `allocate` reuses the frame and the resumed
                    // alternative reads clobbered (or dangling) slots.
                    wk.local_top = e.max(wk.stack_boundary);
                }
                wk.cp = cp;
                wk.e = ce;
                // The popped frame is gone; the parent's words were never
                // cached.
                wk.env_cache_e = NONE_ADDR;
                Ok(Flow::Next)
            }
            DenseOp::CallCode => {
                self.wk.inferences += 1;
                let wk = &mut *self.wk;
                wk.prof_switch(di.c);
                wk.cp = p + 1;
                wk.num_args = di.a;
                wk.b0 = wk.b;
                Ok(Flow::Jump(di.c))
            }
            DenseOp::CallBuiltin => match self.exec_builtin(self.dense_builtin(di.c))? {
                BuiltinOutcome::Succeed => Ok(Flow::Next),
                BuiltinOutcome::Fail => self.fail(),
                BuiltinOutcome::Halted => Ok(self.halted_at(p)),
            },
            DenseOp::ExecuteCode => {
                self.wk.inferences += 1;
                let wk = &mut *self.wk;
                wk.prof_switch(di.c);
                wk.num_args = di.a;
                wk.b0 = wk.b;
                Ok(Flow::Jump(di.c))
            }
            DenseOp::ExecuteBuiltin => match self.exec_builtin(self.dense_builtin(di.c))? {
                BuiltinOutcome::Succeed => Ok(Flow::Jump(self.wk.cp)),
                BuiltinOutcome::Fail => self.fail(),
                BuiltinOutcome::Halted => Ok(self.halted_at(p)),
            },
            DenseOp::CallHost => match self.call_host(di.c, di.a, p)? {
                true => Ok(Flow::Next),
                false => self.fail(),
            },
            DenseOp::ExecuteHost => match self.call_host(di.c, di.a, p)? {
                // Last-call shape: the continuation is the saved `cp`.
                true => Ok(Flow::Jump(self.wk.cp)),
                false => self.fail(),
            },
            DenseOp::CallUnresolved | DenseOp::ExecuteUnresolved => {
                Err(EngineError::BadInstruction { addr: p, what: "unresolved call target".into() })
            }
            DenseOp::Proceed => Ok(Flow::Jump(self.wk.cp)),

            // ---------------- choice points & indexing ----------------
            DenseOp::Try => {
                self.push_choice_point(p + 1)?;
                Ok(Flow::Jump(di.c))
            }
            DenseOp::Retry => {
                self.retry_update_next_clause(p + 1)?;
                Ok(Flow::Jump(di.c))
            }
            DenseOp::Trust => {
                self.pop_choice_point()?;
                Ok(Flow::Jump(di.c))
            }
            DenseOp::TryMeElse => {
                self.push_choice_point(di.c)?;
                Ok(Flow::Next)
            }
            DenseOp::RetryMeElse => {
                self.retry_update_next_clause(di.c)?;
                Ok(Flow::Next)
            }
            DenseOp::TrustMe => {
                self.pop_choice_point()?;
                Ok(Flow::Next)
            }
            DenseOp::SwitchOnTerm => {
                let quad = self.core.program.dense.term_quads[di.c as usize];
                let arg = self.wk.x[1];
                let next = match self.deref(arg) {
                    Cell::Ref(_) => quad[0],
                    Cell::Con(_) | Cell::Int(_) => quad[1],
                    Cell::Lis(_) => quad[2],
                    Cell::Str(_) => quad[3],
                    other => {
                        return Err(EngineError::BadInstruction {
                            addr: p,
                            what: format!("switch_on_term saw a control cell {other:?}"),
                        })
                    }
                };
                Ok(Flow::Jump(next))
            }
            DenseOp::SwitchOnConstant => {
                let arg = self.wk.x[1];
                let key = match self.deref(arg) {
                    Cell::Con(a) => ConstKey::Atom(a),
                    Cell::Int(i) => ConstKey::Int(i),
                    _ => {
                        return self.fail();
                    }
                };
                let table = &self.core.program.dense.const_tables[di.c as usize];
                let next = table.iter().find(|(k, _)| *k == key).map(|(_, a)| *a).unwrap_or(di.d);
                Ok(Flow::Jump(next))
            }
            DenseOp::SwitchOnStructure => {
                let arg = self.wk.x[1];
                match self.deref(arg) {
                    Cell::Str(pp) => {
                        let fun = self.mem_read(pp, ObjectKind::HeapTerm);
                        match fun {
                            Cell::Fun(f, n) => {
                                let table = &self.core.program.dense.struct_tables[di.c as usize];
                                let next = table
                                    .iter()
                                    .find(|((tf, tn), _)| *tf == f && *tn == n)
                                    .map(|(_, a)| *a)
                                    .unwrap_or(di.d);
                                Ok(Flow::Jump(next))
                            }
                            _ => self.fail(),
                        }
                    }
                    _ => self.fail(),
                }
            }

            // ---------------- cut ----------------
            DenseOp::NeckCut => {
                // Cut immediately after head unification: discard every
                // choice point pushed since the current predicate was
                // called (clause selection included), restoring B to the
                // barrier captured in B0 at the call.  This compiler's
                // clause bodies route cuts through `get_level`/`cut_to`,
                // but the instruction is part of the abstract machine's
                // surface (hand-written or externally generated code).
                self.cut_to(self.wk.b0)?;
                Ok(Flow::Next)
            }
            DenseOp::GetLevel => {
                // Capture the cut barrier: choice points older than the call
                // of the current predicate survive a cut, everything newer
                // (including the clause-selection choice point) is discarded.
                let b0 = self.wk.b0;
                self.write_reg(Reg::Y(di.b), Cell::Uint(b0))?;
                Ok(Flow::Next)
            }
            DenseOp::CutTo => {
                let target = self.read_reg(Reg::Y(di.b))?.expect_uint("cut barrier");
                self.cut_to(target)?;
                Ok(Flow::Next)
            }

            // ---------------- parallel ----------------
            DenseOp::CheckGround => {
                let c = self.read_reg(decode_reg(di.b))?;
                if !self.is_ground(c)? {
                    return Ok(Flow::Jump(di.c));
                }
                Ok(Flow::Next)
            }
            DenseOp::CheckIndep => {
                let c1 = self.read_reg(decode_reg(di.b))?;
                let c2 = self.read_reg(decode_reg(di.c as u16))?;
                if !self.independent(c1, c2)? {
                    return Ok(Flow::Jump(di.d));
                }
                Ok(Flow::Next)
            }
            DenseOp::PcallAlloc => {
                self.pcall_alloc(di.a as u32)?;
                Ok(Flow::Next)
            }
            DenseOp::PcallGoal => {
                self.pcall_goal(di.c, di.a as u32, di.b as u32)?;
                if self.end_on_push {
                    // A solo round ends here: the batch loop's exit check
                    // sees the frame on the board.
                    self.wk.p = p + 1;
                    return Ok(Flow::Reload);
                }
                Ok(Flow::Next)
            }
            DenseOp::PcallGoalBad => {
                // Name the offending target in the diagnostic (cold path:
                // re-read the enum form).
                let what = match &self.core.program.code[p as usize] {
                    Instr::PcallGoal { target, .. } => {
                        format!("pcall_goal target must be user code, found {target:?}")
                    }
                    _ => "pcall_goal target must be user code".to_string(),
                };
                Err(EngineError::BadInstruction { addr: p, what })
            }
            DenseOp::PcallWait => self.pcall_wait(p),
            DenseOp::GoalSuccess => {
                self.finish_goal_success()?;
                // A parent resumed at its wait (`Resume::ToWait`) is
                // `Running` again with `wk.p` at the wait instruction:
                // continue inline rather than bouncing through the driver.
                // Idle/cancelling wind-downs park and take the cold exit.
                if self.wk.status == WorkerStatus::Running {
                    Ok(Flow::Jump(self.wk.p))
                } else {
                    Ok(Flow::Reload)
                }
            }

            // ---------------- misc ----------------
            DenseOp::Jump => Ok(Flow::Jump(di.c)),
            DenseOp::FailInstr => self.fail(),
            DenseOp::Halt => {
                // `wk.p` intentionally keeps pointing at the halt
                // instruction.
                self.wk.p = p;
                self.query_succeeded();
                Ok(Flow::Reload)
            }
            DenseOp::NoOp => Ok(Flow::Next),
        }
    }

    /// Leave the batch after `halt/0` at `p`: like the `halt` instruction,
    /// `wk.p` keeps pointing at it, wherever the batch began.
    #[inline(always)]
    fn halted_at(&mut self, p: CodeAddr) -> Flow {
        self.wk.p = p;
        Flow::Reload
    }

    /// Fetch an integer literal from the dense pool.
    #[inline(always)]
    fn dense_int(&self, idx: u32) -> i64 {
        debug_assert!((idx as usize) < self.core.program.dense.ints.len());
        // SAFETY: pool indices are emitted by `DenseCode::build` and always
        // in bounds.
        unsafe { *self.core.program.dense.ints.get_unchecked(idx as usize) }
    }

    /// Fetch a builtin operand from the dense pool.
    #[inline(always)]
    fn dense_builtin(&self, idx: u32) -> pwam_compiler::Builtin {
        debug_assert!((idx as usize) < self.core.program.dense.builtins.len());
        // SAFETY: as for `dense_int`.
        unsafe { *self.core.program.dense.builtins.get_unchecked(idx as usize) }
    }

    /// `retry` / `retry_me_else`: redirect the current choice point's
    /// next-clause word.
    #[inline(always)]
    fn retry_update_next_clause(&mut self, alt: CodeAddr) -> EngineResult<()> {
        let b = self.wk.b;
        let nargs = self.mem_read(b + choice::NARGS, ObjectKind::ChoicePoint).expect_uint("cp nargs");
        self.mem_write(choice::next_clause(b, nargs), Cell::Code(alt), ObjectKind::ChoicePoint);
        Ok(())
    }

    /// `pcall_alloc`: push a Parcall Frame with `n` goal slots.
    fn pcall_alloc(&mut self, n: u32) -> EngineResult<()> {
        let pf_new = self.wk.local_top;
        self.check_cached_top(self.wk.local_end, Area::LocalStack, pf_new + parcall::size(n))?;
        let prev = self.wk.pf;
        self.mem_write(pf_new + parcall::NGOALS, Cell::Uint(n), ObjectKind::ParcallLocal);
        self.mem_write(pf_new + parcall::TO_SCHEDULE, Cell::Uint(n), ObjectKind::ParcallCount);
        self.mem_write(pf_new + parcall::COMPLETED, Cell::Uint(0), ObjectKind::ParcallCount);
        self.mem_write(pf_new + parcall::STATUS, Cell::Uint(parcall::STATUS_OK), ObjectKind::ParcallLocal);
        self.mem_write(pf_new + parcall::PARENT_PE, Cell::Uint(self.w() as u32), ObjectKind::ParcallLocal);
        self.mem_write(pf_new + parcall::PREV_PF, Cell::Uint(prev), ObjectKind::ParcallLocal);
        // The parcall's backtrack point: `pcall_wait` commits the CGE to its
        // first solution by restoring B to this value, discarding any choice
        // points the inline branch left.
        self.mem_write(pf_new + parcall::ENTRY_B, Cell::Uint(self.wk.b), ObjectKind::ParcallLocal);
        // Slot statuses start PENDING: the local stack reuses backtracked-over
        // words, so cancellation's slot scan must never see a stale cell that
        // happens to read as TAKEN.  The executing-PE words stay lazy — they
        // are read only behind a genuine TAKEN status, which a thief writes
        // *after* its own PE id.
        for k in 0..n {
            self.mem_write(
                parcall::slot_status(pf_new, k),
                Cell::Uint(parcall::SLOT_PENDING),
                ObjectKind::ParcallGlobal,
            );
        }
        let wk = &mut *self.wk;
        wk.pf = pf_new;
        wk.local_top = pf_new + parcall::size(n);
        wk.max_local_top = wk.max_local_top.max(wk.local_top);
        self.wk.parcalls += 1;
        Ok(())
    }

    /// `pcall_goal`: push a Goal Frame for `code` onto this worker's board.
    fn pcall_goal(&mut self, code: CodeAddr, arity: u32, slot: u32) -> EngineResult<()> {
        let pf = self.wk.pf;
        // The own board's lock is held across top read, word writes and the
        // push: a thief popping concurrently can then never observe a
        // half-written frame.  (`core` is copied out of `self` so the guard
        // does not pin `self` while globalize mutates the worker.)
        let w = self.w();
        let core = self.core;
        {
            let mut board = core.boards[w].lock().unwrap();
            let g = board.goal_top;
            core.mem.check_top(w, Area::GoalStack, g + goal_frame::size(arity))?;
            // CODE, ARITY, PF, SLOT; the arguments cannot join the run, each
            // is globalized — more references — just before it is written.
            let header = [Cell::Code(code), Cell::Uint(arity), Cell::Uint(pf), Cell::Uint(slot)];
            self.mem_write_run(g, ObjectKind::GoalFrame, &header);
            for i in 0..arity {
                let c = self.wk.x[(i + 1) as usize];
                let g_c = self.globalize(c)?;
                self.mem_write(goal_frame::arg(g, i), g_c, ObjectKind::GoalFrame);
            }
            board.goal_frames.push(g);
            core.publish_goals_waiting(w, &board);
            board.goal_top = g + goal_frame::size(arity);
            self.wk.goal_top = board.goal_top;
        }
        self.wk.max_goal_top = self.wk.max_goal_top.max(self.wk.goal_top);
        Ok(())
    }

    /// `pcall_wait`; `p` is the instruction's own address (the wait
    /// re-executes it until the frame completes).
    fn pcall_wait(&mut self, p: CodeAddr) -> EngineResult<Flow> {
        let pf = self.wk.pf;
        if pf == NONE_ADDR {
            return Err(EngineError::BadInstruction {
                addr: p,
                what: "pcall_wait without a Parcall Frame".into(),
            });
        }
        let n = self.mem_read(pf + parcall::NGOALS, ObjectKind::ParcallLocal).expect_uint("ngoals");
        let done = self.mem_read(pf + parcall::COMPLETED, ObjectKind::ParcallCount).expect_uint("completed");
        if done >= n {
            let status = self.mem_read(pf + parcall::STATUS, ObjectKind::ParcallLocal).expect_uint("status");
            self.consume_messages();
            // Commit the parcall to its first solution: discard any choice
            // points the inline first branch left behind, mirroring the
            // per-goal commit of the scheduled goals.  (A cut inside the
            // branch can never reach below the frame's entry B — barriers
            // are captured at or above it — so this only ever discards,
            // never resurrects.)
            let entry_b =
                self.mem_read(pf + parcall::ENTRY_B, ObjectKind::ParcallLocal).expect_uint("entry b");
            self.cut_to(entry_b)?;
            if status != parcall::STATUS_OK {
                return self.fail();
            }
            let prev = self.mem_read(pf + parcall::PREV_PF, ObjectKind::ParcallLocal).expect_uint("prev pf");
            let wk = &mut *self.wk;
            if pf + parcall::size(n) == wk.local_top {
                // As in `deallocate`: never recede below the protected region.
                wk.local_top = pf.max(wk.stack_boundary);
            }
            wk.pf = prev;
            Ok(Flow::Next)
        } else {
            // Not complete yet.  If some goal already failed, start backward
            // execution on the frame — retract the goals still sitting
            // un-stolen on the board and send `cancel_goal` after the
            // in-flight ones — instead of executing doomed siblings; the wait
            // then drains the remainder through the completion protocol.
            // Otherwise pick up one of our own goals or park (idle PEs do the
            // stealing).  The program counter stays at the wait instruction.
            self.wk.p = p;
            let status = self.mem_read(pf + parcall::STATUS, ObjectKind::ParcallLocal).expect_uint("status");
            if status == parcall::STATUS_FAILED {
                self.cancel_parcall_frame(pf)?;
            }
            if !self.try_dispatch_work(Resume::ToWait { addr: p })? {
                self.wk.status = WorkerStatus::WaitingAtPcall { addr: p, pf };
                return Ok(Flow::Reload);
            }
            // A goal from our own board was dispatched: `start_goal` left
            // the worker `Running` with `wk.p` at the goal's entry point —
            // stay in the flat loop instead of exiting to the driver.
            debug_assert_eq!(self.wk.status, WorkerStatus::Running);
            Ok(Flow::Jump(self.wk.p))
        }
    }
}
