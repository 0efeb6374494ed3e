//! Well-known atom handles.
//!
//! `pwam_front::SymbolTable::new` pre-interns a fixed list of atoms in a
//! fixed order, so their handles are compile-time constants.  The engine
//! relies on this for the list constructor, `[]`, and the arithmetic
//! functors without needing the symbol table at execution time.  A unit test
//! below guards against the two crates drifting apart.

use pwam_front::Atom;

/// `[]`
pub(crate) const NIL: Atom = Atom(0);
/// `'.'` — list constructor.
pub(crate) const DOT: Atom = Atom(1);
/// `-`
pub(crate) const MINUS: Atom = Atom(12);
/// `+`
pub(crate) const PLUS: Atom = Atom(13);
/// `*`
pub(crate) const STAR: Atom = Atom(14);
/// `/`
pub(crate) const SLASH: Atom = Atom(15);
/// `mod`
pub(crate) const MOD: Atom = Atom(16);
/// `//`
pub(crate) const INT_DIV: Atom = Atom(17);

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_front::SymbolTable;

    #[test]
    fn constants_match_the_symbol_table() {
        let t = SymbolTable::new();
        for (atom, name) in [
            (NIL, "[]"),
            (DOT, "."),
            (MINUS, "-"),
            (PLUS, "+"),
            (STAR, "*"),
            (SLASH, "/"),
            (MOD, "mod"),
            (INT_DIV, "//"),
        ] {
            assert_eq!(t.lookup(name), Some(atom), "{name}");
        }
    }
}
