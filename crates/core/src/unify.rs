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
        let h = self.wk.h;
        self.check_cached_top(self.wk.heap_end, Area::Heap, h)?;
        self.mem_write(h, Cell::Ref(h), ObjectKind::HeapTerm);
        self.wk.h = h + 1;
        self.wk.max_h = self.wk.max_h.max(h + 1);
        Ok(Cell::Ref(h))
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
    /// local-stack cell.
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
    fn each_unbound(&mut self, cell: Cell, mut visit: impl FnMut(u32)) -> EngineResult<()> {
        // The root is held aside, so a root that is atomic or unbound — what
        // a CGE's `ground/1` check nearly always sees — allocates nothing.
        let mut root = Some(cell);
        let mut work = Vec::new();
        let mut visited = 0usize;
        while let Some(c) = root.take().or_else(|| work.pop()) {
            visited += 1;
            if visited > 10_000_000 {
                return Err(EngineError::Internal("term too large during variable scan".into()));
            }
            match self.deref(c) {
                Cell::Ref(a) => visit(a),
                Cell::Lis(p) => {
                    let h = self.mem_read(p, ObjectKind::HeapTerm);
                    let t = self.mem_read(p + 1, ObjectKind::HeapTerm);
                    work.push(h);
                    work.push(t);
                }
                Cell::Str(p) => {
                    let f = self.mem_read(p, ObjectKind::HeapTerm);
                    if let Cell::Fun(_, n) = f {
                        for i in 0..n as u32 {
                            let a = self.mem_read(p + 1 + i, ObjectKind::HeapTerm);
                            work.push(a);
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// True if the term reachable from `cell` contains no unbound variables.
    pub(crate) fn is_ground(&mut self, cell: Cell) -> EngineResult<bool> {
        let mut ground = true;
        self.each_unbound(cell, |_| ground = false)?;
        Ok(ground)
    }

    /// True if the terms reachable from `c1` and `c2` share no unbound
    /// variable (the `indep/2` run-time check of the CGE conditions).
    pub(crate) fn independent(&mut self, c1: Cell, c2: Cell) -> EngineResult<bool> {
        let mut v1 = Vec::new();
        self.each_unbound(c1, |a| v1.push(a))?;
        if v1.is_empty() {
            return Ok(true);
        }
        v1.sort_unstable();
        let mut shared = false;
        self.each_unbound(c2, |a| shared |= v1.binary_search(&a).is_ok())?;
        Ok(!shared)
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
    use pwam_front::term::Term;
    use pwam_front::{parser, SymbolTable};

    /// The run-time checks of a CGE walk whole terms, and every word they
    /// look at is a reference of the stream: finding the first variable must
    /// not end `ground/1`'s walk early.  The counts were recorded while
    /// `is_ground` still collected the variables it only counts and
    /// `struct_eq` kept its root pair on the work stack.
    #[test]
    fn term_inspection_makes_the_references_it_always_made() {
        // (check, its arguments as t(..), answer, data references)
        const CASES: &[(&str, &str, bool, u64)] = &[
            ("ground", "t(a)", true, 0),
            ("ground", "t(7)", true, 0),
            ("ground", "t(X)", false, 1),
            ("ground", "t([1, 2, 3])", true, 6),
            ("ground", "t([X, 2, Y | T])", false, 9),
            ("ground", "t(f(a, g(b, 1)))", true, 6),
            ("ground", "t(f(X, g(Y, X), c))", false, 10),
            ("indep", "t(a, b)", true, 0),
            ("indep", "t(X, Y)", true, 2),
            ("indep", "t(X, X)", false, 2),
            ("indep", "t(f(a), X)", true, 2),
            ("indep", "t([X, 1], f(Y, 2))", true, 9),
            ("indep", "t([X, 1], f(Y, g(X)))", false, 12),
            ("indep", "t([1, 2], f(Y, g(X)))", true, 4),
            ("==", "t(a, a)", true, 0),
            ("==", "t(a, b)", false, 0),
            ("==", "t(7, 7)", true, 0),
            ("==", "t(X, X)", true, 2),
            ("==", "t(X, Y)", false, 2),
            ("==", "t(X, a)", false, 1),
            ("==", "t([1, 2, 3], [1, 2, 3])", true, 12),
            ("==", "t([1, 2, 3], [1, 2, 4])", false, 12),
            ("==", "t([1, X | T], [1, X | T])", true, 12),
            ("==", "t(f(X, g(a, 1)), f(X, g(a, 1)))", true, 14),
            ("==", "t(f(X, g(a, 1)), f(X, g(b, 1)))", false, 12),
            ("==", "t(f(a), g(a))", false, 2),
        ];
        let mut session = crate::session::Session::new("p.").unwrap();
        let program = session.compile("p", true).unwrap();
        let config = EngineConfig { memory: MemoryConfig::small(), ..EngineConfig::default() };
        let mut syms = SymbolTable::new();
        for &(check, args, answer, refs) in CASES {
            let mut engine = Engine::new(&program, config.clone());
            let mut step = Step::new(&engine.core, &mut engine.workers[0]);
            let Term::Struct(_, args) = parser::parse_term(args, &mut syms).unwrap() else { unreachable!() };
            // One memo for both arguments: `t(X, X)` is one variable.
            let mut memo = std::collections::HashMap::new();
            let cells: Vec<Cell> = args.iter().map(|a| step.build_term(a, &mut memo).unwrap()).collect();
            let issued = |step: &Step| step.wk.refs.counts.iter().flatten().sum::<u64>();
            let before = issued(&step);
            let got = match check {
                "ground" => step.is_ground(cells[0]),
                "indep" => step.independent(cells[0], cells[1]),
                _ => step.struct_eq(cells[0], cells[1]),
            }
            .unwrap();
            assert_eq!((got, issued(&step) - before), (answer, refs), "{check} over {args:?}");
        }
    }
}
