//! Clause code generation (WAM put/get/unify sequences, control, CGEs).
//!
//! Each clause is compiled into a straight-line instruction sequence with no
//! choice instructions of its own; clause selection (try/retry/trust chains
//! and switch dispatch) is generated per-predicate by [`crate::index`].
//!
//! The parallel path of a CGE with `k` branches compiles (with the
//! last-goal-inline optimisation, the default) to
//!
//! ```text
//!     check_ground  Yk, Lseq        % one per run-time condition
//!     check_indep   Yi, Yj, Lseq
//!     pcall_alloc   N               % Parcall Frame, N = k - 1 slots
//!     <put args of branch 2>        % into A1..Aa2
//!     pcall_goal    p2/a2, slot 0   % Goal Frame onto the Goal Stack
//!     ...                           % branches 3..k, slots 1..N-1
//!     <put args of branch 1>
//!     call          p1/a1           % leftmost branch inline, no Goal Frame
//!     pcall_wait                    % schedule / steal / wait
//!     jump          Lcont
//! Lseq:                             % sequential fallback
//!     <put args of branch 1>  call p1/a1
//!     ...
//! Lcont:
//! ```
//!
//! which is the instruction-level shape described for the RAP-WAM in the
//! paper: goal frames created from the argument registers, a Parcall Frame
//! carrying completion counts, a wait point that doubles as the local
//! scheduling loop — and the parent executing the first goal itself, so the
//! parallelism overhead concentrates on the goals other PEs might steal.
//! An inline branch failing before `pcall_wait` is made sound by the
//! engine's parcall cancellation (backward execution); compiling with
//! `inline_first_goal` off pushes every branch through the Goal-Frame path
//! instead.

use crate::classify::{analyze_clause, cge_inline_call, is_builtin_call, ClauseAnalysis};
use crate::error::{CompileError, CompileResult};
use crate::instr::{Builtin, CallTarget, CodeAddr, Instr, PredRef, Reg};
use pwam_front::clause::{Cge, CgeCondition, Clause, Goal};
use pwam_front::term::Term;
use pwam_front::SymbolTable;
use std::collections::HashSet;

/// Compilation options shared by the whole pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Compile CGEs into parallel code (RAP-WAM).  When `false`, CGEs are
    /// compiled as plain sequential conjunctions (the WAM baseline).
    pub parallel: bool,
    /// Execute the leftmost CGE branch inline on the parent PE, without a
    /// Goal Frame (the paper's last-goal-inline optimisation: the
    /// parallelism overhead concentrates on goals that may actually run
    /// elsewhere).  Sound because the engine performs parcall cancellation
    /// when the inline branch fails before `pcall_wait`.  On by default;
    /// turn it off to force every branch through the Goal-Frame path.
    pub inline_first_goal: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::parallel()
    }
}

impl CompileOptions {
    /// Options for the sequential WAM baseline.
    pub fn sequential() -> Self {
        CompileOptions { parallel: false, inline_first_goal: true }
    }
    /// Options for the parallel RAP-WAM.
    pub fn parallel() -> Self {
        CompileOptions { parallel: true, inline_first_goal: true }
    }
    /// Disable the last-goal-inline optimisation (every CGE branch takes
    /// the Goal-Frame path; used by the differential suites to pin both
    /// compilation schemes against each other).
    pub fn without_inline_first_goal(mut self) -> Self {
        self.inline_first_goal = false;
        self
    }
}

/// A growing chunk of code with chunk-relative addresses.
#[derive(Debug, Default, Clone)]
pub struct ChunkBuilder {
    pub code: Vec<Instr>,
}

impl ChunkBuilder {
    pub fn new() -> Self {
        ChunkBuilder { code: Vec::new() }
    }

    /// Current position (address of the next instruction to be emitted).
    pub fn here(&self) -> CodeAddr {
        self.code.len() as CodeAddr
    }

    /// Append an instruction, returning its address.
    pub fn emit(&mut self, i: Instr) -> CodeAddr {
        let at = self.here();
        self.code.push(i);
        at
    }

    /// Patch a previously emitted instruction in place.
    pub fn patch(&mut self, at: CodeAddr, f: impl FnOnce(&mut Instr)) {
        f(&mut self.code[at as usize]);
    }
}

/// Per-clause code generation context.
struct ClauseCtx<'a> {
    analysis: ClauseAnalysis,
    syms: &'a SymbolTable,
    opts: CompileOptions,
    /// Variables that have had their first occurrence compiled.
    seen: HashSet<String>,
    /// Next never-used scratch X register (reset per goal).
    scratch: u16,
    /// Scratch registers that have been released and can be reused.  Deeply
    /// nested literal terms (e.g. a 1000-element list in a query) would
    /// otherwise exhaust the register file.
    free_scratch: Vec<u16>,
}

impl<'a> ClauseCtx<'a> {
    fn reg(&self, name: &str) -> CompileResult<Reg> {
        self.analysis.reg_of(name)
    }

    fn reset_scratch(&mut self) {
        self.scratch = self.analysis.base_scratch;
        self.free_scratch.clear();
    }

    fn alloc_scratch(&mut self) -> CompileResult<u16> {
        if let Some(r) = self.free_scratch.pop() {
            return Ok(r);
        }
        let r = self.scratch;
        self.scratch += 1;
        if r as usize >= crate::MAX_X_REGS {
            return Err(CompileError::new("ran out of scratch registers"));
        }
        Ok(r)
    }

    /// Return a scratch register to the pool once the value it holds has
    /// been consumed by an emitted instruction.
    fn free_scratch(&mut self, r: u16) {
        self.free_scratch.push(r);
    }
}

/// Information returned when compiling a query clause.
#[derive(Debug, Clone, Default)]
pub struct QueryInfo {
    /// Query variables and the `Y` slot each was assigned.
    pub vars: Vec<(String, u16)>,
    /// Size of the query environment.
    pub env_size: u16,
}

/// Compile a single clause into `chunk`.  When `is_query` is set, the clause
/// is the query pseudo-clause: every variable is permanent, last-call
/// optimisation is disabled and the code ends in `halt` rather than
/// `proceed`, so the answer substitution stays readable in the environment.
pub fn compile_clause(
    clause: &Clause,
    syms: &SymbolTable,
    opts: CompileOptions,
    is_query: bool,
    chunk: &mut ChunkBuilder,
) -> CompileResult<QueryInfo> {
    let analysis = analyze_clause(clause, syms, is_query)?;
    let mut ctx = ClauseCtx {
        scratch: analysis.base_scratch,
        analysis,
        syms,
        opts,
        seen: HashSet::new(),
        free_scratch: Vec::new(),
    };

    let env_needed = ctx.analysis.env_needed;
    if env_needed {
        chunk.emit(Instr::Allocate { n: ctx.analysis.env_size });
    }
    if let Some(ycut) = ctx.analysis.cut_y {
        chunk.emit(Instr::GetLevel { y: ycut });
    }

    // ----- head -----
    ctx.reset_scratch();
    if let Term::Struct(_, args) = &clause.head {
        compile_head_args(&mut ctx, args, chunk)?;
    }

    // ----- body -----
    let goals = &clause.body.goals;
    // Index of the final goal if it is an ordinary user call eligible for LCO.
    let lco_index = if is_query {
        None
    } else {
        match goals.last() {
            Some(Goal::Call(t)) if !is_builtin_call(t, syms) => Some(goals.len() - 1),
            _ => None,
        }
    };

    let mut tail_called = false;
    for (i, goal) in goals.iter().enumerate() {
        ctx.reset_scratch();
        match goal {
            Goal::Cut => {
                let y = ctx
                    .analysis
                    .cut_y
                    .ok_or_else(|| CompileError::new("internal error: cut without a reserved cut slot"))?;
                chunk.emit(Instr::CutTo { y });
            }
            Goal::Call(t) => {
                if is_builtin_call(t, syms) {
                    compile_builtin_goal(&mut ctx, t, chunk)?;
                } else {
                    let last = Some(i) == lco_index;
                    compile_user_call(&mut ctx, t, last, env_needed, chunk)?;
                    if last {
                        tail_called = true;
                    }
                }
            }
            Goal::Cge(cge) => compile_cge(&mut ctx, cge, chunk)?,
        }
    }

    // ----- clause termination -----
    if is_query {
        chunk.emit(Instr::CallBuiltin { b: Builtin::Halt });
    } else if !tail_called {
        if env_needed {
            chunk.emit(Instr::Deallocate);
        }
        chunk.emit(Instr::Proceed);
    }

    let mut qinfo = QueryInfo::default();
    if is_query {
        let mut vars: Vec<(String, u16)> = ctx.analysis.perm.iter().map(|(k, v)| (k.clone(), *v)).collect();
        vars.sort_by_key(|(_, y)| *y);
        qinfo.vars = vars;
        qinfo.env_size = ctx.analysis.env_size;
    }
    Ok(qinfo)
}

// ---------------------------------------------------------------------------
// Head compilation
// ---------------------------------------------------------------------------

fn compile_head_args(ctx: &mut ClauseCtx, args: &[Term], chunk: &mut ChunkBuilder) -> CompileResult<()> {
    let wk = ctx.syms.well_known();
    // Breadth-first queue of (register, nested structure) pairs.
    let mut queue: Vec<(u16, Term)> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        let a = (i + 1) as u16;
        match arg {
            Term::Var(v) => {
                let reg = ctx.reg(v)?;
                if ctx.seen.insert(v.clone()) {
                    chunk.emit(Instr::GetVariable { v: reg, a });
                } else {
                    chunk.emit(Instr::GetValue { v: reg, a });
                }
            }
            Term::Int(n) => {
                chunk.emit(Instr::GetInteger { i: *n, a });
            }
            Term::Atom(c) => {
                if *c == wk.nil {
                    chunk.emit(Instr::GetNil { a });
                } else {
                    chunk.emit(Instr::GetConstant { c: *c, a });
                }
            }
            Term::Struct(f, sub) => {
                if *f == wk.dot && sub.len() == 2 {
                    chunk.emit(Instr::GetList { a });
                } else {
                    chunk.emit(Instr::GetStructure { f: *f, n: sub.len() as u8, a });
                }
                compile_unify_args(ctx, sub, &mut queue, chunk)?;
            }
        }
    }
    // Process nested structures breadth-first.  A register is released as
    // soon as its structure has been matched, so deeply nested heads only
    // need a handful of live scratch registers.
    let mut qi = 0;
    while qi < queue.len() {
        let (reg, term) = queue[qi].clone();
        qi += 1;
        if let Term::Struct(f, sub) = &term {
            if *f == wk.dot && sub.len() == 2 {
                chunk.emit(Instr::GetList { a: reg });
            } else {
                chunk.emit(Instr::GetStructure { f: *f, n: sub.len() as u8, a: reg });
            }
            ctx.free_scratch(reg);
            compile_unify_args(ctx, sub, &mut queue, chunk)?;
        }
    }
    Ok(())
}

fn compile_unify_args(
    ctx: &mut ClauseCtx,
    args: &[Term],
    queue: &mut Vec<(u16, Term)>,
    chunk: &mut ChunkBuilder,
) -> CompileResult<()> {
    let wk = ctx.syms.well_known();
    for arg in args {
        match arg {
            Term::Var(v) => {
                let reg = ctx.reg(v)?;
                if ctx.seen.insert(v.clone()) {
                    chunk.emit(Instr::UnifyVariable { v: reg });
                } else {
                    // UnifyValue performs the local-value (globalisation)
                    // check in the engine, so it is safe for Y registers.
                    chunk.emit(Instr::UnifyValue { v: reg });
                }
            }
            Term::Int(n) => {
                chunk.emit(Instr::UnifyInteger { i: *n });
            }
            Term::Atom(c) => {
                if *c == wk.nil {
                    chunk.emit(Instr::UnifyNil);
                } else {
                    chunk.emit(Instr::UnifyConstant { c: *c });
                }
            }
            Term::Struct(_, _) => {
                let s = ctx.alloc_scratch()?;
                chunk.emit(Instr::UnifyVariable { v: Reg::X(s) });
                queue.push((s, arg.clone()));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Argument (put) compilation
// ---------------------------------------------------------------------------

fn compile_put_args(
    ctx: &mut ClauseCtx,
    args: &[Term],
    last_goal: bool,
    chunk: &mut ChunkBuilder,
) -> CompileResult<()> {
    for (i, arg) in args.iter().enumerate() {
        let a = (i + 1) as u16;
        compile_put_arg(ctx, arg, a, last_goal, chunk)?;
    }
    Ok(())
}

fn compile_put_arg(
    ctx: &mut ClauseCtx,
    term: &Term,
    a: u16,
    last_goal: bool,
    chunk: &mut ChunkBuilder,
) -> CompileResult<()> {
    let wk = ctx.syms.well_known();
    match term {
        Term::Var(v) => {
            let reg = ctx.reg(v)?;
            if ctx.seen.insert(v.clone()) {
                chunk.emit(Instr::PutVariable { v: reg, a });
            } else if last_goal {
                if let Reg::Y(y) = reg {
                    chunk.emit(Instr::PutUnsafeValue { y, a });
                } else {
                    chunk.emit(Instr::PutValue { v: reg, a });
                }
            } else {
                chunk.emit(Instr::PutValue { v: reg, a });
            }
        }
        Term::Int(n) => {
            chunk.emit(Instr::PutInteger { i: *n, a });
        }
        Term::Atom(c) => {
            if *c == wk.nil {
                chunk.emit(Instr::PutNil { a });
            } else {
                chunk.emit(Instr::PutConstant { c: *c, a });
            }
        }
        Term::Struct(_, _) => {
            build_structure(ctx, term, Some(a), chunk)?;
        }
    }
    Ok(())
}

/// Build a (possibly nested) structure bottom-up into X register `target`,
/// or — when `target` is `None` — into a scratch register allocated *after*
/// the structure's own children have been built (and their registers
/// released).  Returns the register the structure ends up in.
///
/// Nested sub-structures are built first (post-order), each into such a
/// scratch register that is released as soon as the parent has consumed it,
/// so the number of simultaneously live scratch registers is proportional to
/// the nesting depth of left branches rather than the total term size: even
/// very deep literal terms (long lists in queries) need only a few.
fn build_structure(
    ctx: &mut ClauseCtx,
    term: &Term,
    target: Option<u16>,
    chunk: &mut ChunkBuilder,
) -> CompileResult<u16> {
    let wk = ctx.syms.well_known();
    let (f, args) = match term {
        Term::Struct(f, args) => (*f, args),
        _ => return Err(CompileError::new("build_structure called on a non-structure")),
    };
    let mut child_regs: Vec<Option<u16>> = Vec::with_capacity(args.len());
    for arg in args {
        if matches!(arg, Term::Struct(_, _)) {
            child_regs.push(Some(build_structure(ctx, arg, None, chunk)?));
        } else {
            child_regs.push(None);
        }
    }
    let target = match target {
        Some(a) => a,
        None => ctx.alloc_scratch()?,
    };
    if f == wk.dot && args.len() == 2 {
        chunk.emit(Instr::PutList { a: target });
    } else {
        chunk.emit(Instr::PutStructure { f, n: args.len() as u8, a: target });
    }
    for (arg, child) in args.iter().zip(child_regs) {
        match arg {
            Term::Var(v) => {
                let reg = ctx.reg(v)?;
                if ctx.seen.insert(v.clone()) {
                    chunk.emit(Instr::UnifyVariable { v: reg });
                } else {
                    chunk.emit(Instr::UnifyValue { v: reg });
                }
            }
            Term::Int(n) => {
                chunk.emit(Instr::UnifyInteger { i: *n });
            }
            Term::Atom(c) => {
                if *c == wk.nil {
                    chunk.emit(Instr::UnifyNil);
                } else {
                    chunk.emit(Instr::UnifyConstant { c: *c });
                }
            }
            Term::Struct(_, _) => {
                let s = child.expect("child register allocated above");
                chunk.emit(Instr::UnifyValue { v: Reg::X(s) });
                ctx.free_scratch(s);
            }
        }
    }
    Ok(target)
}

// ---------------------------------------------------------------------------
// Goals
// ---------------------------------------------------------------------------

fn compile_builtin_goal(ctx: &mut ClauseCtx, t: &Term, chunk: &mut ChunkBuilder) -> CompileResult<()> {
    let (f, n) = t.functor().expect("builtin goal has a functor");
    let b = Builtin::lookup(ctx.syms.name(f), n)
        .ok_or_else(|| CompileError::new("internal error: not a builtin"))?;
    if let Term::Struct(_, args) = t {
        compile_put_args(ctx, args, false, chunk)?;
    }
    chunk.emit(Instr::CallBuiltin { b });
    Ok(())
}

fn compile_user_call(
    ctx: &mut ClauseCtx,
    t: &Term,
    last: bool,
    env_needed: bool,
    chunk: &mut ChunkBuilder,
) -> CompileResult<()> {
    let (f, n) = t.functor().ok_or_else(|| CompileError::new(format!("goal {t:?} is not callable")))?;
    if n > u8::MAX as usize {
        return Err(CompileError::new("goal arity exceeds 255"));
    }
    if let Term::Struct(_, args) = t {
        compile_put_args(ctx, args, last, chunk)?;
    }
    let target = CallTarget::Unresolved(PredRef { name: f, arity: n as u8 });
    if last {
        if env_needed {
            chunk.emit(Instr::Deallocate);
        }
        chunk.emit(Instr::Execute { target, arity: n as u8 });
    } else {
        chunk.emit(Instr::Call { target, arity: n as u8 });
    }
    Ok(())
}

fn condition_reg(ctx: &ClauseCtx, term: &Term) -> CompileResult<Reg> {
    match term {
        Term::Var(v) => {
            if !ctx.seen.contains(v) {
                return Err(CompileError::new(format!(
                    "CGE condition mentions variable {v} before it is bound anywhere; \
                     such a check can never succeed"
                )));
            }
            ctx.reg(v)
        }
        other => {
            Err(CompileError::new(format!("CGE conditions must be applied to variables, found {other:?}")))
        }
    }
}

fn compile_cge(ctx: &mut ClauseCtx, cge: &Cge, chunk: &mut ChunkBuilder) -> CompileResult<()> {
    // After lifting, every branch is a single user-predicate call.
    let mut branch_calls: Vec<&Term> = Vec::with_capacity(cge.branches.len());
    for b in &cge.branches {
        match b.goals.as_slice() {
            [Goal::Call(t)] if !is_builtin_call(t, ctx.syms) => branch_calls.push(t),
            _ => {
                return Err(CompileError::new(
                    "internal error: CGE branch is not a single user call (lifting missing?)",
                ))
            }
        }
    }
    if branch_calls.len() > u8::MAX as usize {
        return Err(CompileError::new("CGE has more than 255 parallel branches"));
    }

    if !ctx.opts.parallel {
        // WAM baseline: plain sequential conjunction, no checks.
        for t in &branch_calls {
            compile_user_call(ctx, t, false, false, chunk)?;
        }
        return Ok(());
    }

    // ----- parallel path -----
    let mut check_fixups: Vec<CodeAddr> = Vec::new();
    for cond in &cge.conditions {
        match cond {
            CgeCondition::True => {}
            CgeCondition::Ground(t) => {
                let v = condition_reg(ctx, t)?;
                let at = chunk.emit(Instr::CheckGround { v, else_: 0 });
                check_fixups.push(at);
            }
            CgeCondition::Indep(a, b) => {
                let v1 = condition_reg(ctx, a)?;
                let v2 = condition_reg(ctx, b)?;
                let at = chunk.emit(Instr::CheckIndep { v1, v2, else_: 0 });
                check_fixups.push(at);
            }
        }
    }

    // With the last-goal-inline optimisation the parent schedules branches
    // 2..k as Goal Frames and executes the leftmost branch itself, inline,
    // before entering `pcall_wait` — no Goal Frame, no Marker, no message
    // for the goal that would otherwise just be picked straight back up.
    // If the inline branch fails before the wait, the engine's parcall
    // cancellation retracts the un-stolen siblings and drains the in-flight
    // ones through the completion protocol, so the failure is sound (this
    // is what PR 4 lacked when it disabled the optimisation).  With the
    // optimisation off, every branch goes onto the Goal Stack and the
    // parent re-acquires its own goals at the wait through the local path.
    let seen_before = ctx.seen.clone();
    let inline_call =
        if ctx.opts.inline_first_goal { cge_inline_call(&cge.branches, ctx.syms) } else { None };
    let scheduled = if inline_call.is_some() { &branch_calls[1..] } else { &branch_calls[..] };
    chunk.emit(Instr::PcallAlloc { n: scheduled.len() as u8 });
    for (k, t) in scheduled.iter().enumerate() {
        ctx.reset_scratch();
        let (f, n) = t.functor().expect("branch call has a functor");
        if let Term::Struct(_, args) = t {
            compile_put_args(ctx, args, false, chunk)?;
        }
        chunk.emit(Instr::PcallGoal {
            target: CallTarget::Unresolved(PredRef { name: f, arity: n as u8 }),
            arity: n as u8,
            slot: k as u8,
        });
    }
    if let Some(first) = inline_call {
        // The scheduled branches are compiled (and executed) before the
        // inline one, so a shared variable's first occurrence is created
        // before any sibling reads it.
        ctx.reset_scratch();
        compile_user_call(ctx, first, false, false, chunk)?;
    }
    chunk.emit(Instr::PcallWait);
    let seen_after_parallel = ctx.seen.clone();

    if check_fixups.is_empty() {
        // Unconditional CGE: no fallback path is needed.
        return Ok(());
    }

    let jump_at = chunk.emit(Instr::Jump { addr: 0 });
    let seq_label = chunk.here();
    for at in check_fixups {
        chunk.patch(at, |i| match i {
            Instr::CheckGround { else_, .. } | Instr::CheckIndep { else_, .. } => *else_ = seq_label,
            _ => unreachable!("patched instruction is not a check"),
        });
    }

    // Sequential fallback: restore the first-occurrence state so the code is
    // self-contained whichever path executes.
    ctx.seen = seen_before;
    for t in &branch_calls {
        ctx.reset_scratch();
        compile_user_call(ctx, t, false, false, chunk)?;
    }
    debug_assert_eq!(ctx.seen, seen_after_parallel, "both CGE paths must bind the same variables");
    ctx.seen = seen_after_parallel;

    let cont = chunk.here();
    chunk.patch(jump_at, |i| {
        if let Instr::Jump { addr } = i {
            *addr = cont;
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_front::parser::parse_program;

    fn compile_first(src: &str, opts: CompileOptions) -> (Vec<Instr>, SymbolTable) {
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        let mut lifter = crate::lift::Lifter::new();
        let p = lifter.lift_program(&p, &mut syms);
        let mut chunk = ChunkBuilder::new();
        compile_clause(&p.clauses[0], &syms, opts, false, &mut chunk).unwrap();
        (chunk.code, syms)
    }

    fn count_matching(code: &[Instr], f: impl Fn(&Instr) -> bool) -> usize {
        code.iter().filter(|i| f(i)).count()
    }

    #[test]
    fn fact_compiles_to_gets_and_proceed() {
        let (code, _) = compile_first("p(a, X, 42).", CompileOptions::default());
        assert!(matches!(code.last(), Some(Instr::Proceed)));
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::GetConstant { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::GetVariable { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::GetInteger { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Allocate { .. })), 0);
    }

    #[test]
    fn last_call_optimisation_emits_execute() {
        let (code, _) = compile_first("p(X) :- q(X), r(X).", CompileOptions::default());
        assert!(matches!(code.last(), Some(Instr::Execute { .. })));
        // deallocate must appear right before the execute
        let len = code.len();
        assert!(matches!(code[len - 2], Instr::Deallocate));
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Call { .. })), 1);
    }

    #[test]
    fn single_goal_clause_has_no_environment() {
        let (code, _) = compile_first("p(X) :- q(X).", CompileOptions::default());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Allocate { .. })), 0);
        assert!(matches!(code.last(), Some(Instr::Execute { .. })));
    }

    #[test]
    fn nested_structures_in_head_use_scratch_registers() {
        let (code, _) = compile_first("p(f(g(X), Y)).", CompileOptions::default());
        // get_structure f/2, A1 ; unify_variable Xs ; unify_variable Y ;
        // get_structure g/1, Xs ; unify_variable X
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::GetStructure { .. })), 2);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::UnifyVariable { .. })), 3);
    }

    #[test]
    fn list_head_uses_get_list() {
        let (code, _) = compile_first("p([H|T]) :- q(H, T).", CompileOptions::default());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::GetList { .. })), 1);
    }

    #[test]
    fn structure_argument_is_built_bottom_up() {
        let (code, _) = compile_first("p(X) :- q(f(g(1), X)).", CompileOptions::default());
        // the inner g(1) must be built before the outer f/2
        let pos_inner =
            code.iter().position(|i| matches!(i, Instr::PutStructure { n: 1, .. })).expect("inner structure");
        let pos_outer =
            code.iter().position(|i| matches!(i, Instr::PutStructure { n: 2, .. })).expect("outer structure");
        assert!(pos_inner < pos_outer);
    }

    #[test]
    fn builtin_goal_compiles_inline() {
        let (code, _) = compile_first("p(X, Y) :- Y is X + 1.", CompileOptions::default());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::CallBuiltin { b: Builtin::Is })), 1);
        assert!(matches!(code.last(), Some(Instr::Proceed)));
    }

    #[test]
    fn cut_allocates_and_uses_level() {
        let (code, _) = compile_first("p(X) :- q(X), !, r(X).", CompileOptions::default());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::GetLevel { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::CutTo { .. })), 1);
    }

    #[test]
    fn parallel_cge_emits_pcall_sequence() {
        let (code, _) = compile_first(
            "f(X,Y,Z) :- (ground(Y), indep(X,Z) | g(X,Y) & h(Y,Z)).",
            CompileOptions::parallel(),
        );
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::CheckGround { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::CheckIndep { .. })), 1);
        // Last-goal-inline: only the rightmost branch is scheduled as a
        // Goal Frame; the leftmost runs inline on the parent before the
        // wait.
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallAlloc { n: 1 })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallGoal { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallWait)), 1);
        // one inline call on the parallel path, two on the fallback
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Call { .. })), 3);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Jump { .. })), 1);
        // the inline call sits immediately before pcall_wait
        let wait = code.iter().position(|i| matches!(i, Instr::PcallWait)).unwrap();
        assert!(matches!(code[wait - 1], Instr::Call { .. }));
    }

    #[test]
    fn disabling_inline_pushes_every_branch() {
        let (code, _) = compile_first(
            "f(X,Y,Z) :- (ground(Y), indep(X,Z) | g(X,Y) & h(Y,Z)).",
            CompileOptions::parallel().without_inline_first_goal(),
        );
        // Every branch gets a Goal Frame; the parent re-acquires its own
        // goals at `pcall_wait` through the local path.
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallAlloc { n: 2 })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallGoal { .. })), 2);
        // no inline call on the parallel path; two calls on the fallback
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Call { .. })), 2);
    }

    #[test]
    fn unconditional_cge_has_no_fallback() {
        let (code, _) = compile_first("f(X,Y) :- (g(X) & h(Y)).", CompileOptions::parallel());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallGoal { .. })), 1);
        // no sequential fallback; exactly the inline call on the parallel path
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Call { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Jump { .. })), 0);
    }

    #[test]
    fn three_branch_cge_schedules_two_goals() {
        let (code, _) = compile_first("f(X,Y,Z) :- (g(X) & h(Y) & k(Z)).", CompileOptions::parallel());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallAlloc { n: 2 })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallGoal { slot: 0, .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallGoal { slot: 1, .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Call { .. })), 1);
    }

    #[test]
    fn sequential_mode_compiles_cge_as_calls() {
        let (code, _) =
            compile_first("f(X,Y,Z) :- (ground(Y) | g(X,Y) & h(Y,Z)).", CompileOptions::sequential());
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::PcallAlloc { .. })), 0);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::CheckGround { .. })), 0);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Call { .. })), 2);
    }

    #[test]
    fn query_compilation_reports_variables_and_halts() {
        let mut syms = SymbolTable::new();
        let p = parse_program("dummy.", &mut syms).unwrap();
        let _ = p;
        let q = pwam_front::parser::parse_query("append(X, Y, [1,2,3])", &mut syms).unwrap();
        let clause = Clause { head: Term::Atom(syms.intern("$query")), body: q };
        let mut chunk = ChunkBuilder::new();
        let info = compile_clause(&clause, &syms, CompileOptions::default(), true, &mut chunk).unwrap();
        assert_eq!(info.vars.len(), 2);
        assert!(matches!(chunk.code.last(), Some(Instr::CallBuiltin { b: Builtin::Halt })));
        // the final user call must NOT be an execute (no LCO for queries)
        assert_eq!(count_matching(&chunk.code, |i| matches!(i, Instr::Execute { .. })), 0);
    }

    #[test]
    fn unsafe_value_for_permanent_in_last_call() {
        // Y is first bound by a put in the body (not the head) and used in
        // the last call: the conservative rule emits put_unsafe_value.
        let (code, _) = compile_first("p(X) :- q(X, Y), r(Y).", CompileOptions::default());
        assert!(count_matching(&code, |i| matches!(i, Instr::PutUnsafeValue { .. })) >= 1);
    }

    #[test]
    fn condition_on_unseen_variable_is_an_error() {
        let mut syms = SymbolTable::new();
        let p = parse_program("f(X) :- (ground(Q) | a(X) & b(X)).", &mut syms).unwrap();
        let mut lifter = crate::lift::Lifter::new();
        let p = lifter.lift_program(&p, &mut syms);
        let mut chunk = ChunkBuilder::new();
        let r = compile_clause(&p.clauses[0], &syms, CompileOptions::parallel(), false, &mut chunk);
        assert!(r.is_err());
    }
}
