//! Conversion of run-time heap terms back to source-level terms.
//!
//! Used for answer extraction and debugging only, so it reads memory through
//! the *untraced* interface: inspecting a result never perturbs the measured
//! reference counts.

use crate::cell::Cell;
use crate::error::{EngineError, EngineResult};
use crate::known;
use crate::mem::Memory;
use pwam_front::term::Term;

/// Hard cap on the size of extracted terms, to catch accidental cycles.
const MAX_NODES: usize = 10_000_000;

/// Extract the term bound to the cell stored at `addr`.  Atoms keep their
/// interned [`pwam_front::Atom`]: names resolve later, at render time.
pub fn extract_binding(mem: &Memory, addr: u32) -> EngineResult<Term> {
    extract_cell(mem, mem.read_untraced(addr))
}

/// Extract the term a cell denotes.
pub fn extract_cell(mem: &Memory, cell: Cell) -> EngineResult<Term> {
    let mut budget = MAX_NODES;
    extract_node(mem, cell, &mut budget)
}

fn extract_node(mem: &Memory, cell: Cell, budget: &mut usize) -> EngineResult<Term> {
    if *budget == 0 {
        return Err(EngineError::Internal("term too large (or cyclic) during extraction".into()));
    }
    *budget -= 1;
    match deref_untraced(mem, cell) {
        Cell::Ref(a) => Ok(Term::Var(format!("_G{a}"))),
        Cell::Int(i) => Ok(Term::Int(i)),
        Cell::Con(a) => Ok(Term::Atom(a)),
        Cell::Lis(p) => {
            let head = extract_node(mem, mem.read_untraced(p), budget)?;
            let tail = extract_node(mem, mem.read_untraced(p + 1), budget)?;
            Ok(Term::Struct(known::DOT, vec![head, tail]))
        }
        Cell::Str(p) => {
            let (f, n) = match mem.read_untraced(p) {
                Cell::Fun(f, n) => (f, n),
                other => {
                    return Err(EngineError::Internal(format!(
                        "structure pointer does not reference a functor cell: {other:?}"
                    )))
                }
            };
            let mut args = Vec::with_capacity(n as usize);
            for i in 0..n as u32 {
                args.push(extract_node(mem, mem.read_untraced(p + 1 + i), budget)?);
            }
            Ok(Term::Struct(f, args))
        }
        Cell::Fun(_, _) | Cell::Code(_) | Cell::Uint(_) | Cell::Empty => Err(EngineError::Internal(
            "control word reached during term extraction (corrupted binding?)".into(),
        )),
    }
}

fn deref_untraced(mem: &Memory, mut cell: Cell) -> Cell {
    loop {
        match cell {
            Cell::Ref(a) => {
                let next = mem.read_untraced(a);
                if next == Cell::Ref(a) {
                    return cell;
                }
                cell = next;
            }
            other => return other,
        }
    }
}
