//! Source-level Prolog terms.
//!
//! These are the terms produced by the reader and consumed by the compiler.
//! They are *not* the run-time representation (the engine uses tagged heap
//! cells, see `rapwam::cell`); keeping the two separate mirrors the paper's
//! distinction between the compiler input and the WAM storage model.

use crate::atoms::{Atom, SymbolTable};
use std::collections::BTreeSet;

/// The smallest integer a program can hold: the engine stores an integer as
/// a 63-bit immediate in one arena word.
pub const INT_MIN: i64 = -(1 << 62);
/// The largest integer a program can hold (see [`INT_MIN`]).
pub const INT_MAX: i64 = (1 << 62) - 1;

/// A source-level Prolog term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// An atom (constant), e.g. `foo`, `[]`.
    Atom(Atom),
    /// An integer constant, in `INT_MIN..=INT_MAX`.
    Int(i64),
    /// A named variable.  Anonymous variables (`_`) are given unique names by
    /// the parser (`_G<n>`), so every `Var` is identified by its name string.
    Var(String),
    /// A compound term `functor(arg1, ..., argN)` with `N >= 1`.
    Struct(Atom, Vec<Term>),
}

impl Term {
    /// Build a list term out of `items`, terminated by `tail`.
    pub(crate) fn list(items: Vec<Term>, tail: Term, syms: &SymbolTable) -> Term {
        let dot = syms.well_known().dot;
        items.into_iter().rev().fold(tail, |acc, item| Term::Struct(dot, vec![item, acc]))
    }

    /// Build a proper (nil-terminated) list.
    pub fn proper_list(items: Vec<Term>, syms: &SymbolTable) -> Term {
        let nil = Term::Atom(syms.well_known().nil);
        Term::list(items, nil, syms)
    }

    /// The functor name and arity of this term.  Atoms have arity 0;
    /// integers and variables have no functor and return `None`.
    pub fn functor(&self) -> Option<(Atom, usize)> {
        match self {
            Term::Atom(a) => Some((*a, 0)),
            Term::Struct(a, args) => Some((*a, args.len())),
            _ => None,
        }
    }

    /// True if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Atom(_) | Term::Int(_) => true,
            Term::Var(_) => false,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// The set of variable names occurring in the term, in sorted order.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.collect_variables(&mut set);
        set
    }

    fn collect_variables(&self, set: &mut BTreeSet<String>) {
        match self {
            Term::Var(v) => {
                set.insert(v.clone());
            }
            Term::Struct(_, args) => {
                for a in args {
                    a.collect_variables(set);
                }
            }
            _ => {}
        }
    }

    /// Number of sub-terms (including the term itself); a rough size measure
    /// used by tests and by the benchmark input generators.
    pub fn node_count(&self) -> usize {
        match self {
            Term::Struct(_, args) => 1 + args.iter().map(Term::node_count).sum::<usize>(),
            _ => 1,
        }
    }

    /// Maximum nesting depth of the term.
    pub fn depth(&self) -> usize {
        match self {
            Term::Struct(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> SymbolTable {
        SymbolTable::new()
    }

    #[test]
    fn proper_list_round_trip() {
        let mut s = syms();
        let a = s.intern("a");
        let b = s.intern("b");
        let list = Term::proper_list(vec![Term::Atom(a), Term::Atom(b), Term::Int(3)], &s);
        assert_eq!(crate::parse_term("[a, b, 3]", &mut s).unwrap(), list);
    }

    #[test]
    fn groundness() {
        let mut s = syms();
        let f = s.intern("f");
        let ground = Term::Struct(f, vec![Term::Int(1), Term::Atom(s.well_known().nil)]);
        let non_ground = Term::Struct(f, vec![Term::Int(1), Term::Var("X".into())]);
        assert!(ground.is_ground());
        assert!(!non_ground.is_ground());
    }

    #[test]
    fn variable_collection_is_sorted_and_deduplicated() {
        let mut s = syms();
        let f = s.intern("f");
        let t = Term::Struct(f, vec![Term::Var("B".into()), Term::Var("A".into()), Term::Var("B".into())]);
        let vars: Vec<_> = t.variables().into_iter().collect();
        assert_eq!(vars, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn functor_and_sizes() {
        let mut s = syms();
        let f = s.intern("f");
        let t = Term::Struct(f, vec![Term::Int(1), Term::Struct(f, vec![Term::Int(2)])]);
        assert_eq!(t.functor(), Some((f, 2)));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.depth(), 3);
        assert_eq!(Term::Int(7).functor(), None);
    }
}
