//! Atom interning.
//!
//! Prolog programs mention the same functor names over and over (`'.'`, `[]`,
//! the arithmetic operators, the predicate names of the program).  Interning
//! them once gives the compiler and the abstract machine a cheap `u32` handle
//! that can be stored directly inside a tagged heap cell, exactly as the WAM
//! stores functor/atom indices.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// An interned atom (constant or functor name).
///
/// The numeric value is an index into the owning [`SymbolTable`].  Atoms from
/// different symbol tables must not be mixed; in this code base a single
/// table is created per loaded program/session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Atom(pub u32);

impl Atom {
    /// Raw index of the atom in its symbol table.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atom#{}", self.0)
    }
}

/// Well-known atoms that are pre-interned in every [`SymbolTable`] so that the
/// compiler and engine can refer to them without lookups.
#[derive(Debug, Clone, Copy)]
pub struct WellKnown {
    /// `[]` — the empty list.
    pub nil: Atom,
    /// `'.'` — the list constructor functor.
    pub dot: Atom,
    /// `true`
    pub(crate) truth: Atom,
    /// `','`
    pub(crate) comma: Atom,
    /// `'&'` — parallel conjunction.
    pub(crate) amp: Atom,
    /// `'|'` — CGE condition separator.
    pub(crate) bar: Atom,
    /// `':-'`
    pub(crate) neck: Atom,
    /// `'!'`
    pub(crate) cut: Atom,
    /// `ground`
    pub(crate) ground: Atom,
    /// `indep`
    pub(crate) indep: Atom,
}

/// A bidirectional name ↔ [`Atom`] mapping.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, Atom>,
}

impl SymbolTable {
    /// Create a table with the well-known atoms pre-interned.
    pub fn new() -> Self {
        let mut t = SymbolTable { names: Vec::new(), index: HashMap::new() };
        // Keep this order in sync with `well_known`.
        for name in [
            "[]", ".", "true", "fail", ",", "&", "|", ":-", "!", "ground", "indep", "is", "-", "+", "*", "/",
            "mod", "//",
        ] {
            t.intern(name);
        }
        t
    }

    /// Handles for the pre-interned atoms.
    pub fn well_known(&self) -> WellKnown {
        WellKnown {
            nil: Atom(0),
            dot: Atom(1),
            truth: Atom(2),
            comma: Atom(4),
            amp: Atom(5),
            bar: Atom(6),
            neck: Atom(7),
            cut: Atom(8),
            ground: Atom(9),
            indep: Atom(10),
        }
    }

    /// Intern `name`, returning the existing handle if already present.
    pub fn intern(&mut self, name: &str) -> Atom {
        if let Some(&a) = self.index.get(name) {
            return a;
        }
        let a = Atom(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), a);
        a
    }

    /// Look up an already-interned atom without creating it.
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        self.index.get(name).copied()
    }

    /// The textual name of an atom.  Panics if the atom does not belong to
    /// this table.
    pub fn name(&self, atom: Atom) -> &str {
        &self.names[atom.index()]
    }

    /// Number of interned atoms.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Iterate over `(Atom, name)` pairs in interning order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Atom, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (Atom(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("foo");
        assert_eq!(a, b);
        assert_eq!(t.name(a), "foo");
    }

    #[test]
    fn distinct_names_get_distinct_atoms() {
        let mut t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("bar");
        assert_ne!(a, b);
    }

    #[test]
    fn well_known_atoms_resolve_to_their_names() {
        let t = SymbolTable::new();
        let wk = t.well_known();
        assert_eq!(t.name(wk.nil), "[]");
        assert_eq!(t.name(wk.dot), ".");
        assert_eq!(t.name(wk.cut), "!");
        assert_eq!(t.name(wk.indep), "indep");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.lookup("zork").is_none());
        let n = t.len();
        let _ = t.lookup("zork");
        assert_eq!(t.len(), n);
        t.intern("zork");
        assert!(t.lookup("zork").is_some());
    }

    #[test]
    fn iter_respects_order() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let names: Vec<_> = t.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names.last().unwrap(), "alpha");
        assert_eq!(t.iter().count(), a.index() + 1);
    }
}
