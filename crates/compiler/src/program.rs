//! The loaded program representation handed to the abstract machine.

use crate::dense::DenseCode;
use crate::instr::{CodeAddr, Instr};
use pwam_front::Atom;
use std::collections::HashMap;

/// A fully compiled and loaded program plus one query.
///
/// All code lives in a single code area (`code`); predicate entry points are
/// absolute addresses into it.  The engine starts executing at
/// [`CompiledProgram::query_start`] and stops when it reaches the `halt`
/// builtin emitted at the end of the query.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The code area.
    pub code: Vec<Instr>,
    /// The same code pre-decoded into the executor's dense fixed-width
    /// stream (index `i` is instruction address `i`, as in `code`).
    pub dense: DenseCode,
    /// Entry points of user predicates.
    pub(crate) predicates: HashMap<(Atom, u8), CodeAddr>,
    /// Predicate entry points in definition order (for stable reporting).
    pub(crate) predicate_order: Vec<((Atom, u8), CodeAddr)>,
    /// Resolved predicate names in definition order, parallel to
    /// `predicate_order`, then the host predicates' parallel-goal entry
    /// stubs: `(name, arity, entry)`.  Like [`Self::hosts`],
    /// names are materialised at compile time so downstream layers (the
    /// engine's per-predicate profile, the serving tier's metrics) can
    /// label code addresses without the symbol table.
    pub(crate) predicate_names: Vec<(String, u8, CodeAddr)>,
    /// Entry point of the compiled query.
    pub query_start: CodeAddr,
    /// Query variables: source name → `Y` slot (1-based).
    pub query_vars: Vec<(String, u16)>,
    /// Address of the parallel-goal success stub.
    pub goal_success_addr: CodeAddr,
    /// Host predicates the program was compiled against, in registry order:
    /// `CallTarget::Host(i)` / `DenseOp::CallHost`'s `c` operand index this
    /// table.  Resolved names (not atoms) so the serving layer can match
    /// them against its registry without the symbol table.
    pub hosts: Vec<(String, u8)>,
}

impl CompiledProgram {
    /// Number of instructions in the code area.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Entry point of a predicate, if defined.
    pub fn entry(&self, name: Atom, arity: u8) -> Option<CodeAddr> {
        self.predicates.get(&(name, arity)).copied()
    }

    /// The predicate (if any) whose code region contains `addr`.  Entry
    /// points are sorted by address; the owner is the predicate with the
    /// greatest entry point `<= addr`.  Used for profiling/debug output.
    pub fn predicate_containing(&self, addr: CodeAddr) -> Option<(Atom, u8)> {
        let mut best: Option<((Atom, u8), CodeAddr)> = None;
        for (key, entry) in &self.predicate_order {
            if *entry <= addr {
                match best {
                    Some((_, e)) if e >= *entry => {}
                    _ => best = Some((*key, *entry)),
                }
            }
        }
        best.map(|(k, _)| k)
    }

    /// The resolved `name/arity` label of the predicate whose entry point
    /// is exactly `addr`, if any.  Call targets always name entry points,
    /// so this is the lookup the per-predicate profile uses.
    pub fn predicate_label_at(&self, addr: CodeAddr) -> Option<String> {
        self.predicate_names
            .iter()
            .find(|(_, _, entry)| *entry == addr)
            .map(|(name, arity, _)| format!("{name}/{arity}"))
    }
}
