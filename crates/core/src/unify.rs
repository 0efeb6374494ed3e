//! Dereferencing, binding, trailing and unification.
//!
//! Unification uses the worker's PDL area as its explicit work stack, so the
//! PDL traffic of deep structure unifications shows up in the reference
//! trace exactly as in the paper's storage model.
//!
//! All operations run on a `Step` (one worker's exclusive state plus the
//! shared core).  Under the relaxed backend several workers unify
//! concurrently; the CGE independence conditions guarantee that two goals
//! running in parallel never bind the same variable, and every arena word is
//! a lock-free atomic (see [`crate::mem`]), so no torn cell is ever observed
//! — not even by a program whose unconditional `&` lies about independence.
//! Bindings into *another* PE's arena are always trailed
//! (conditional trailing applies only within the own Stack Set), which keeps
//! the trail traffic independent of which PE happened to execute the goal.

use crate::cell::{Cell, NONE_ADDR};
use crate::engine::Step;
use crate::error::{EngineError, EngineResult};
use crate::frames::env;
use crate::layout::{Area, ObjectKind};
use pwam_compiler::Reg;

impl<'a, 'p> Step<'a, 'p> {
    // -----------------------------------------------------------------
    // Registers
    // -----------------------------------------------------------------

    /// Address of permanent variable `Yn` in the current environment.
    pub(crate) fn y_addr(&self, n: u16) -> EngineResult<u32> {
        let e = self.wk.e;
        if e == NONE_ADDR {
            return Err(EngineError::Internal("Y register used without an environment".into()));
        }
        Ok(env::y_addr(e, n))
    }

    /// Read a register operand (X directly, Y through the environment).
    pub(crate) fn read_reg(&mut self, reg: Reg) -> EngineResult<Cell> {
        match reg {
            Reg::X(n) => Ok(self.wk.x[n as usize]),
            Reg::Y(n) => {
                let addr = self.y_addr(n)?;
                Ok(self.mem_read(addr, ObjectKind::EnvPermVar))
            }
        }
    }

    /// Write a register operand.
    pub(crate) fn write_reg(&mut self, reg: Reg, value: Cell) -> EngineResult<()> {
        match reg {
            Reg::X(n) => {
                self.wk.x[n as usize] = value;
                Ok(())
            }
            Reg::Y(n) => {
                let addr = self.y_addr(n)?;
                self.mem_write(addr, value, ObjectKind::EnvPermVar);
                Ok(())
            }
        }
    }

    // -----------------------------------------------------------------
    // Heap variables, dereferencing, binding
    // -----------------------------------------------------------------

    /// Allocate a fresh unbound variable on this worker's heap.
    pub(crate) fn new_heap_var(&mut self) -> EngineResult<Cell> {
        self.heap_push(Cell::Ref(self.wk.h)).map(Cell::Ref)
    }

    /// Push one cell onto this worker's heap.
    pub(crate) fn heap_push(&mut self, cell: Cell) -> EngineResult<u32> {
        let h = self.wk.h;
        self.check_cached_top(self.wk.heap_end, Area::Heap, h)?;
        self.mem_write(h, cell, ObjectKind::HeapTerm);
        self.wk.h = h + 1;
        self.wk.max_h = self.wk.max_h.max(h + 1);
        Ok(h)
    }

    /// Follow reference chains until reaching an unbound variable or a
    /// non-reference cell.  Every hop reads memory (and is counted, traced
    /// when tracing is on).
    ///
    /// Inlined into every caller: a `Cell` is 16 bytes, which the Rust ABI
    /// returns through a stack slot, and an out-of-line `deref` filled that
    /// slot with separate tag and payload stores that the caller's 16-byte
    /// reload could not forward from (see ARCHITECTURE, "flattened
    /// executor").
    #[inline(always)]
    pub(crate) fn deref(&mut self, mut cell: Cell) -> Cell {
        loop {
            match cell {
                Cell::Ref(a) => {
                    let obj = self.object_for_addr(a);
                    let next = self.mem_read(a, obj);
                    if next == Cell::Ref(a) {
                        return cell; // unbound variable at a
                    }
                    cell = next;
                }
                other => return other,
            }
        }
    }

    /// Record `addr` on the trail if the binding must be undone on
    /// backtracking (conditional trailing).
    pub(crate) fn trail_if_needed(&mut self, addr: u32) -> EngineResult<()> {
        // Pure register arithmetic against the worker's cached area
        // boundaries — no address-map division on the hot path.  Bindings
        // into another worker's areas are always trailed; own goal-frame
        // arguments and the like conservatively so.
        let wk = &*self.wk;
        let must_trail = if addr < wk.heap_base || addr >= wk.arena_end {
            true
        } else if addr < wk.local_base {
            addr < wk.hb // own heap: conditional on the backtrack boundary
        } else if addr < wk.control_base {
            addr < wk.stack_boundary // own local stack
        } else {
            true
        };
        if !must_trail {
            return Ok(());
        }
        let tr = self.wk.tr;
        self.check_cached_top(self.wk.trail_end, Area::Trail, tr)?;
        self.mem_write(tr, Cell::Uint(addr), ObjectKind::TrailEntry);
        self.wk.tr = tr + 1;
        self.wk.max_tr = self.wk.max_tr.max(tr + 1);
        Ok(())
    }

    /// Bind the unbound variable at `addr` to `value`.
    pub(crate) fn bind(&mut self, addr: u32, value: Cell) -> EngineResult<()> {
        self.trail_if_needed(addr)?;
        let obj = self.object_for_addr(addr);
        self.mem_write(addr, value, obj);
        Ok(())
    }

    /// Bind two unbound variables together, choosing a direction that never
    /// leaves a heap cell pointing into a (shorter-lived) local stack.
    fn bind_vars(&mut self, a1: u32, a2: u32) -> EngineResult<()> {
        let area1 = self.object_for_addr(a1).area();
        let area2 = self.object_for_addr(a2).area();
        let (from, to) = match (area1, area2) {
            (Area::Heap, Area::Heap) => {
                if a1 > a2 {
                    (a1, a2)
                } else {
                    (a2, a1)
                }
            }
            (Area::Heap, _) => (a2, a1),
            (_, Area::Heap) => (a1, a2),
            _ => {
                if a1 > a2 {
                    (a1, a2)
                } else {
                    (a2, a1)
                }
            }
        };
        self.bind(from, Cell::Ref(to))
    }

    /// If `cell` dereferences to an unbound variable living on a local
    /// stack, move it to the heap (binding the stack cell to the new heap
    /// variable).  Used by `put_unsafe_value`, write-mode `unify_value` and
    /// Goal-Frame argument copying, so no other PE ever needs to reference a
    /// local-stack cell.  Inlined like [`Step::deref`], whose `Cell` it
    /// returns.
    #[inline(always)]
    pub(crate) fn globalize(&mut self, cell: Cell) -> EngineResult<Cell> {
        let d = self.deref(cell);
        if let Cell::Ref(a) = d {
            if self.object_for_addr(a).area() == Area::LocalStack {
                let hv = self.new_heap_var()?;
                self.bind(a, hv)?;
                return Ok(hv);
            }
        }
        Ok(d)
    }

    // -----------------------------------------------------------------
    // Unification
    // -----------------------------------------------------------------

    /// Push a pair of cells onto the PDL work stack.
    #[inline(always)]
    fn pdl_push(&mut self, pdl: &mut u32, a: Cell, b: Cell) -> EngineResult<()> {
        self.check_cached_top(self.wk.pdl_end, Area::Pdl, *pdl + 1)?;
        self.mem_write_run(*pdl, ObjectKind::PdlEntry, &[a, b]);
        *pdl += 2;
        Ok(())
    }

    /// Full unification of two cells.  Returns `Ok(false)` on mismatch
    /// (the caller backtracks).
    pub(crate) fn unify(&mut self, c1: Cell, c2: Cell) -> EngineResult<bool> {
        // The PDL holds pairs of cells still to be unified.
        let pdl_base = self.wk.pdl_base;
        let mut pdl = pdl_base;
        self.pdl_push(&mut pdl, c1, c2)?;
        while pdl > pdl_base {
            pdl -= 2;
            let mut pair = [Cell::Empty; 2];
            self.mem_read_run(pdl, ObjectKind::PdlEntry, &mut pair);
            let [a, b] = pair;
            let d1 = self.deref(a);
            let d2 = self.deref(b);
            if d1 == d2 {
                continue;
            }
            match (d1, d2) {
                (Cell::Ref(a1), Cell::Ref(a2)) => self.bind_vars(a1, a2)?,
                (Cell::Ref(a1), other) => self.bind(a1, other)?,
                (other, Cell::Ref(a2)) => self.bind(a2, other)?,
                (Cell::Int(i), Cell::Int(j)) => {
                    if i != j {
                        return Ok(false);
                    }
                }
                (Cell::Con(x), Cell::Con(y)) => {
                    if x != y {
                        return Ok(false);
                    }
                }
                (Cell::Lis(p1), Cell::Lis(p2)) => {
                    let h1 = self.mem_read(p1, ObjectKind::HeapTerm);
                    let h2 = self.mem_read(p2, ObjectKind::HeapTerm);
                    let t1 = self.mem_read(p1 + 1, ObjectKind::HeapTerm);
                    let t2 = self.mem_read(p2 + 1, ObjectKind::HeapTerm);
                    self.pdl_push(&mut pdl, h1, h2)?;
                    self.pdl_push(&mut pdl, t1, t2)?;
                }
                (Cell::Str(p1), Cell::Str(p2)) => {
                    let f1 = self.mem_read(p1, ObjectKind::HeapTerm);
                    let f2 = self.mem_read(p2, ObjectKind::HeapTerm);
                    match (f1, f2) {
                        (Cell::Fun(n1, a1), Cell::Fun(n2, a2)) if n1 == n2 && a1 == a2 => {
                            for i in 0..a1 as u32 {
                                let x = self.mem_read(p1 + 1 + i, ObjectKind::HeapTerm);
                                let y = self.mem_read(p2 + 1 + i, ObjectKind::HeapTerm);
                                self.pdl_push(&mut pdl, x, y)?;
                            }
                        }
                        _ => return Ok(false),
                    }
                }
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    // -----------------------------------------------------------------
    // Term inspection (groundness, independence, structural equality)
    // -----------------------------------------------------------------

    /// Walk the whole term reachable from `cell` and hand `visit` the address
    /// of every unbound variable met.  The walk is the same whatever `visit`
    /// does with them — every word looked at is a reference of the stream, so
    /// not even `ground/1` may stop at its first variable.
    ///
    /// The work stack is the worker's `term_stack`, taken for the walk and
    /// handed back empty whatever the walk returns, so a walk allocates only
    /// when a term is deeper than any this worker walked before.  A list
    /// cell's two words are one run, and so are a structure's arguments, read
    /// after its functor: each run lands on the stack in address order, the
    /// order its single reads were pushed in.
    fn each_unbound(&mut self, cell: Cell, mut visit: impl FnMut(u32)) -> EngineResult<()> {
        let mut work = std::mem::take(&mut self.wk.term_stack);
        work.push(cell);
        let mut walked = Ok(());
        let mut visited = 0usize;
        while let Some(c) = work.pop() {
            visited += 1;
            if visited > 10_000_000 {
                walked = Err(EngineError::Internal("term too large during variable scan".into()));
                break;
            }
            match self.deref(c) {
                Cell::Ref(a) => visit(a),
                Cell::Lis(p) => self.heap_run_onto(&mut work, p, 2),
                Cell::Str(p) => {
                    if let Cell::Fun(_, n) = self.mem_read(p, ObjectKind::HeapTerm) {
                        self.heap_run_onto(&mut work, p + 1, n as usize);
                    }
                }
                _ => {}
            }
        }
        work.clear();
        self.wk.term_stack = work;
        walked
    }

    /// Read the `n` heap words from `addr` up, as one run, onto the top of
    /// `work`.
    #[inline(always)]
    fn heap_run_onto(&mut self, work: &mut Vec<Cell>, addr: u32, n: usize) {
        let len = work.len();
        work.resize(len + n, Cell::Empty);
        self.mem_read_run(addr, ObjectKind::HeapTerm, &mut work[len..]);
    }

    /// True if the term reachable from `cell` contains no unbound variables.
    pub(crate) fn is_ground(&mut self, cell: Cell) -> EngineResult<bool> {
        let mut ground = true;
        self.each_unbound(cell, |_| ground = false)?;
        Ok(ground)
    }

    /// True if the terms reachable from `c1` and `c2` share no unbound
    /// variable (the `indep/2` run-time check of the CGE conditions).  The
    /// first term's variables go into the worker's `indep_vars`, handed back
    /// empty like `each_unbound`'s stack.
    pub(crate) fn independent(&mut self, c1: Cell, c2: Cell) -> EngineResult<bool> {
        let mut vars = std::mem::take(&mut self.wk.indep_vars);
        let mut walked = self.each_unbound(c1, |a| vars.push(a));
        let mut shared = false;
        if walked.is_ok() && !vars.is_empty() {
            vars.sort_unstable();
            walked = self.each_unbound(c2, |a| shared |= vars.binary_search(&a).is_ok());
        }
        vars.clear();
        self.wk.indep_vars = vars;
        walked.map(|()| !shared)
    }

    /// Structural equality (`==/2`): equal without any binding.
    pub(crate) fn struct_eq(&mut self, c1: Cell, c2: Cell) -> EngineResult<bool> {
        // The root pair is held aside, as `each_unbound` holds its root: two
        // atomic or unbound arguments allocate nothing.
        let mut root = Some((c1, c2));
        let mut work = Vec::new();
        while let Some((a, b)) = root.take().or_else(|| work.pop()) {
            let d1 = self.deref(a);
            let d2 = self.deref(b);
            match (d1, d2) {
                (Cell::Ref(x), Cell::Ref(y)) => {
                    if x != y {
                        return Ok(false);
                    }
                }
                (Cell::Int(x), Cell::Int(y)) => {
                    if x != y {
                        return Ok(false);
                    }
                }
                (Cell::Con(x), Cell::Con(y)) => {
                    if x != y {
                        return Ok(false);
                    }
                }
                (Cell::Lis(p1), Cell::Lis(p2)) => {
                    let h1 = self.mem_read(p1, ObjectKind::HeapTerm);
                    let h2 = self.mem_read(p2, ObjectKind::HeapTerm);
                    let t1 = self.mem_read(p1 + 1, ObjectKind::HeapTerm);
                    let t2 = self.mem_read(p2 + 1, ObjectKind::HeapTerm);
                    work.push((h1, h2));
                    work.push((t1, t2));
                }
                (Cell::Str(p1), Cell::Str(p2)) => {
                    let f1 = self.mem_read(p1, ObjectKind::HeapTerm);
                    let f2 = self.mem_read(p2, ObjectKind::HeapTerm);
                    match (f1, f2) {
                        (Cell::Fun(n1, a1), Cell::Fun(n2, a2)) if n1 == n2 && a1 == a2 => {
                            for i in 0..a1 as u32 {
                                let x = self.mem_read(p1 + 1 + i, ObjectKind::HeapTerm);
                                let y = self.mem_read(p2 + 1 + i, ObjectKind::HeapTerm);
                                work.push((x, y));
                            }
                        }
                        _ => return Ok(false),
                    }
                }
                _ => return Ok(false),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::layout::MemoryConfig;
    use crate::trace::{self, MemRef};
    use pwam_front::term::Term;
    use pwam_front::{parser, SymbolTable};

    /// The run-time checks of a CGE walk whole terms, and every word they
    /// look at is a reference of the stream: finding the first variable must
    /// not end `ground/1`'s walk early.  The counts were recorded while
    /// `is_ground` still collected the variables it only counts and
    /// `struct_eq` kept its root pair on the work stack; the fingerprints of
    /// the traced leg's records, and the rows from the 9-argument structure
    /// on, while `each_unbound` still read a term word by word onto a work
    /// stack it allocated per call.  Those rows outgrow such a stack's first
    /// allocation.
    #[test]
    fn term_inspection_makes_the_references_it_always_made() {
        // (check, its arguments as t(..), answer, data references,
        // `trace::fingerprint` of the references' records)
        const CASES: &[(&str, &str, bool, u64, u64)] = &[
            ("ground", "t(a)", true, 0, 0xcbf29ce484222325),
            ("ground", "t(7)", true, 0, 0xcbf29ce484222325),
            ("ground", "t(X)", false, 1, 0x4fd9fccc1241d6b5),
            ("ground", "t([1, 2, 3])", true, 6, 0x5c05ed1ab502032a),
            ("ground", "t([X, 2, Y | T])", false, 9, 0xb86fc6c56751e15),
            ("ground", "t(f(a, g(b, 1)))", true, 6, 0x934e967e31ed1426),
            ("ground", "t(f(X, g(Y, X), c))", false, 10, 0xe8467b4a1d6cae19),
            ("indep", "t(a, b)", true, 0, 0xcbf29ce484222325),
            ("indep", "t(X, Y)", true, 2, 0x97de38d111546bb6),
            ("indep", "t(X, X)", false, 2, 0x19fc642e9c252ac5),
            ("indep", "t(f(a), X)", true, 2, 0x97de38d111546bb6),
            ("indep", "t([X, 1], f(Y, 2))", true, 9, 0xea9f69750b646025),
            ("indep", "t([X, 1], f(Y, g(X)))", false, 12, 0x9075c5bda54aab18),
            ("indep", "t([1, 2], f(Y, g(X)))", true, 4, 0xd286ecab9b049679),
            ("==", "t(a, a)", true, 0, 0xcbf29ce484222325),
            ("==", "t(a, b)", false, 0, 0xcbf29ce484222325),
            ("==", "t(7, 7)", true, 0, 0xcbf29ce484222325),
            ("==", "t(X, X)", true, 2, 0x19fc642e9c252ac5),
            ("==", "t(X, Y)", false, 2, 0x97de38d111546bb6),
            ("==", "t(X, a)", false, 1, 0x4fd9fccc1241d6b5),
            ("==", "t([1, 2, 3], [1, 2, 3])", true, 12, 0x313d71a9cb4439e1),
            ("==", "t([1, 2, 3], [1, 2, 4])", false, 12, 0x313d71a9cb4439e1),
            ("==", "t([1, X | T], [1, X | T])", true, 12, 0x5d7ea0c6ec8d75d1),
            ("==", "t(f(X, g(a, 1)), f(X, g(a, 1)))", true, 14, 0xc68c8e707495dd01),
            ("==", "t(f(X, g(a, 1)), f(X, g(b, 1)))", false, 12, 0xd2ceb1ca337cc0a1),
            ("==", "t(f(a), g(a))", false, 2, 0x15cda573868f394b),
            ("ground", "t(f(A, b, C, d, E, 6, G, [h], I))", false, 17, 0xef7dba749b8fcef1),
            ("ground", LONG_LIST, false, 81, 0x14cc75aae63f0135),
            ("ground", "t([[X] | T])", false, 6, 0x3e5a5796f66fb9d2),
            ("indep", "t([[X] | T], f(T, Y))", false, 11, 0xc660e9071f228cff),
            ("indep", NINE_ARGS_AND_LONG_LIST_SHARING, false, 98, 0x503d08588980fb13),
            ("indep", NINE_ARGS_AND_LONG_LIST_APART, true, 98, 0x1e7f3e981eff28f2),
        ];
        // Forty elements, then a variable.
        const LONG_LIST: &str =
            "t([1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0|T])";
        const NINE_ARGS_AND_LONG_LIST_SHARING: &str = "t(f(A, b, C, d, E, 6, G, [h], I), \
             [1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0|I])";
        const NINE_ARGS_AND_LONG_LIST_APART: &str = "t(f(A, b, C, d, E, 6, G, [h], I), \
             [1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0|T])";
        let mut session = crate::session::Session::new("p.").unwrap();
        let program = session.compile("p", true).unwrap();
        let mut syms = SymbolTable::new();
        for &(check, args, answer, refs, fingerprint) in CASES {
            let Term::Struct(_, args) = parser::parse_term(args, &mut syms).unwrap() else { unreachable!() };
            // Untraced, then traced: the same answer and references, and the
            // traced leg's records are the recorded ones, one per reference.
            for collect_trace in [false, true] {
                let config =
                    EngineConfig { memory: MemoryConfig::small(), collect_trace, ..EngineConfig::default() };
                let mut engine = Engine::new(&program, config);
                let mut step = Step::new(&engine.core, &mut engine.workers[0]);
                // One memo for both arguments: `t(X, X)` is one variable.
                let mut memo = std::collections::HashMap::new();
                let cells: Vec<Cell> = args.iter().map(|a| step.build_term(a, &mut memo).unwrap()).collect();
                let issued = |step: &Step| step.wk.refs.counts.iter().flatten().sum::<u64>();
                let before = issued(&step);
                let first_record = step.wk.trace.as_ref().map_or(0, Vec::len);
                let got = match check {
                    "ground" => step.is_ground(cells[0]),
                    "indep" => step.independent(cells[0], cells[1]),
                    _ => step.struct_eq(cells[0], cells[1]),
                }
                .unwrap();
                let made = issued(&step) - before;
                assert_eq!((got, made), (answer, refs), "{check} over {args:?}, traced: {collect_trace}");
                if let Some(trace) = &step.wk.trace {
                    let records: Vec<MemRef> = trace[first_record..].iter().map(|&(_, r)| r).collect();
                    let row = (records.len() as u64, trace::fingerprint(&records));
                    assert_eq!(row, (made, fingerprint), "{check} over {args:?}: the records");
                }
            }
        }
    }
}
