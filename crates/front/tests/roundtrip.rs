//! Property-based tests: the pretty printer and the parser are inverses on
//! randomly generated terms, and groundness/variable collection behave
//! consistently under substitution of structure.

use proptest::prelude::*;
use pwam_front::parse_term;
use pwam_front::pretty::term_to_string;
use pwam_front::SymbolTable;
use pwam_front::Term;

/// Generate a random term over a fixed safe alphabet (plain atoms that never
/// need quoting or collide with operators).
fn arb_term() -> impl Strategy<Value = TermSpec> {
    let leaf = prop_oneof![
        (0u8..5).prop_map(TermSpec::Atom),
        (-(1000i64)..1000).prop_map(TermSpec::Int),
        (0u8..4).prop_map(TermSpec::Var),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (0u8..5, prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(f, args)| TermSpec::Struct(f, args)),
            prop::collection::vec(inner, 0..4).prop_map(TermSpec::List),
        ]
    })
}

/// A host-side term description, turned into a real [`Term`] against a
/// symbol table.
#[derive(Debug, Clone)]
enum TermSpec {
    Atom(u8),
    Int(i64),
    Var(u8),
    Struct(u8, Vec<TermSpec>),
    List(Vec<TermSpec>),
}

const ATOMS: [&str; 5] = ["foo", "bar", "baz", "quux", "zip"];
const FUNCTORS: [&str; 5] = ["f", "g", "h", "point", "pair"];
const VARS: [&str; 4] = ["X", "Y", "Z", "Acc"];

impl TermSpec {
    fn build(&self, syms: &mut SymbolTable) -> Term {
        match self {
            TermSpec::Atom(i) => Term::Atom(syms.intern(ATOMS[*i as usize])),
            TermSpec::Int(n) => Term::Int(*n),
            TermSpec::Var(i) => Term::Var(VARS[*i as usize].to_string()),
            TermSpec::Struct(f, args) => {
                let functor = syms.intern(FUNCTORS[*f as usize]);
                let args = args.iter().map(|a| a.build(syms)).collect();
                Term::Struct(functor, args)
            }
            TermSpec::List(items) => {
                let items: Vec<Term> = items.iter().map(|a| a.build(syms)).collect();
                Term::proper_list(items, syms)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_then_parse_is_identity(spec in arb_term()) {
        let mut syms = SymbolTable::new();
        let term = spec.build(&mut syms);
        let text = term_to_string(&term, &syms);
        let reparsed = parse_term(&text, &mut syms)
            .unwrap_or_else(|e| panic!("could not reparse {text:?}: {e}"));
        prop_assert_eq!(reparsed, term);
    }

    #[test]
    fn groundness_is_absence_of_variables(spec in arb_term()) {
        let mut syms = SymbolTable::new();
        let term = spec.build(&mut syms);
        prop_assert_eq!(term.is_ground(), term.variables().is_empty());
    }

    #[test]
    fn node_count_bounds_depth(spec in arb_term()) {
        let mut syms = SymbolTable::new();
        let term = spec.build(&mut syms);
        prop_assert!(term.depth() <= term.node_count());
        prop_assert!(term.node_count() >= 1);
    }

    #[test]
    fn printed_terms_parse_as_single_clause_heads(spec in arb_term()) {
        // Wrapping any term as the argument of a fact must give a program
        // with exactly one clause whose head round-trips.
        let mut syms = SymbolTable::new();
        let term = spec.build(&mut syms);
        let text = format!("wrapper({}).", term_to_string(&term, &syms));
        let program = pwam_front::parse_program(&text, &mut syms)
            .unwrap_or_else(|e| panic!("could not parse {text:?}: {e}"));
        prop_assert_eq!(program.clauses.len(), 1);
        match &program.clauses[0].head {
            Term::Struct(_, args) => prop_assert_eq!(&args[0], &term),
            other => prop_assert!(false, "unexpected head {:?}", other),
        }
    }
}
