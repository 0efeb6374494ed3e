//! Pretty printer for source terms, clauses and programs.
//!
//! The printer produces text that the parser reads back to an equal term
//! (operator notation for the standard operators, bracket notation for
//! lists, quoting where necessary).  This round-trip property is checked by
//! property-based tests in `tests/roundtrip.rs` of this crate.

use crate::atoms::SymbolTable;
use crate::clause::{Body, CgeCondition, Clause, Goal, Program};
use crate::term::Term;

/// Associativity classes used when printing operator terms.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fix {
    Xfx,
    Xfy,
    Yfx,
}

fn infix_op(name: &str) -> Option<(u16, Fix)> {
    use Fix::*;
    Some(match name {
        ":-" => (1200, Xfx),
        ";" => (1100, Xfy),
        "|" => (1100, Xfy),
        "->" => (1050, Xfy),
        "&" => (1025, Xfy),
        "," => (1000, Xfy),
        "=" | "\\=" | "==" | "\\==" | "is" | "=:=" | "=\\=" | "<" | ">" | "=<" | ">=" | "@<" | "@>"
        | "@=<" | "@>=" | "=.." => (700, Xfx),
        "+" | "-" => (500, Yfx),
        "*" | "/" | "//" | "mod" | "rem" => (400, Yfx),
        "^" => (200, Xfy),
        _ => return None,
    })
}

/// True if the atom text needs quoting to be read back as a single atom.
fn needs_quotes(name: &str) -> bool {
    if name.is_empty() {
        return true;
    }
    if name == "[]" || name == "!" || name == ";" || name == "." {
        return false;
    }
    let mut chars = name.chars();
    let first = chars.next().unwrap();
    if first.is_lowercase() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return false;
    }
    // purely symbolic atoms do not need quotes
    let symbolic = |c: char| {
        matches!(
            c,
            '+' | '-'
                | '*'
                | '/'
                | '\\'
                | '^'
                | '<'
                | '>'
                | '='
                | '~'
                | ':'
                | '.'
                | '?'
                | '@'
                | '#'
                | '&'
                | '$'
        )
    };
    if name.chars().all(symbolic) {
        return false;
    }
    true
}

fn atom_text(name: &str) -> String {
    if needs_quotes(name) {
        format!("'{}'", name.replace('\'', "''"))
    } else {
        name.to_string()
    }
}

/// Render a term using operator and list notation.
pub fn term_to_string(term: &Term, syms: &SymbolTable) -> String {
    let mut s = String::new();
    write_term(&mut s, term, syms, 1200);
    s
}

fn write_term(out: &mut String, term: &Term, syms: &SymbolTable, max_prec: u16) {
    let wk = syms.well_known();
    match term {
        Term::Int(n) => out.push_str(&n.to_string()),
        Term::Var(v) => out.push_str(v),
        Term::Atom(a) => out.push_str(&atom_text(syms.name(*a))),
        Term::Struct(f, args) => {
            // List notation.
            if *f == wk.dot && args.len() == 2 {
                write_list(out, term, syms);
                return;
            }
            let name = syms.name(*f);
            if args.len() == 2 {
                if let Some((prec, fix)) = infix_op(name) {
                    let (lmax, rmax) = match fix {
                        Fix::Xfx => (prec - 1, prec - 1),
                        Fix::Xfy => (prec - 1, prec),
                        Fix::Yfx => (prec, prec - 1),
                    };
                    let need_parens = prec > max_prec;
                    if need_parens {
                        out.push('(');
                    }
                    write_term(out, &args[0], syms, lmax);
                    if name == "," {
                        out.push_str(", ");
                    } else if prec >= 700 {
                        out.push(' ');
                        out.push_str(name);
                        out.push(' ');
                    } else {
                        out.push_str(name);
                    }
                    write_term(out, &args[1], syms, rmax);
                    if need_parens {
                        out.push(')');
                    }
                    return;
                }
            }
            if args.len() == 1 && (name == "-" || name == "+" || name == "\\+") {
                let need_parens = 200 > max_prec;
                if need_parens {
                    out.push('(');
                }
                out.push_str(name);
                out.push(' ');
                write_term(out, &args[0], syms, 200);
                if need_parens {
                    out.push(')');
                }
                return;
            }
            // Canonical functional notation.
            out.push_str(&atom_text(name));
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_term(out, a, syms, 999);
            }
            out.push(')');
        }
    }
}

fn write_list(out: &mut String, term: &Term, syms: &SymbolTable) {
    let wk = syms.well_known();
    out.push('[');
    let mut cur = term;
    let mut first = true;
    loop {
        match cur {
            Term::Struct(f, args) if *f == wk.dot && args.len() == 2 => {
                if !first {
                    out.push(',');
                }
                write_term(out, &args[0], syms, 999);
                first = false;
                cur = &args[1];
            }
            Term::Atom(a) if *a == wk.nil => break,
            other => {
                out.push('|');
                write_term(out, other, syms, 999);
                break;
            }
        }
    }
    out.push(']');
}

/// Render a goal.
pub(crate) fn goal_to_string(goal: &Goal, syms: &SymbolTable) -> String {
    match goal {
        Goal::Call(t) => term_to_string(t, syms),
        Goal::Cut => "!".to_string(),
        Goal::Cge(cge) => {
            let conds: Vec<String> = cge
                .conditions
                .iter()
                .map(|c| match c {
                    CgeCondition::Ground(t) => format!("ground({})", term_to_string(t, syms)),
                    CgeCondition::Indep(a, b) => {
                        format!("indep({},{})", term_to_string(a, syms), term_to_string(b, syms))
                    }
                    CgeCondition::True => "true".to_string(),
                })
                .collect();
            let branches: Vec<String> = cge.branches.iter().map(|b| body_to_string(b, syms)).collect();
            if conds.is_empty() {
                format!("({})", branches.join(" & "))
            } else {
                format!("({} | {})", conds.join(", "), branches.join(" & "))
            }
        }
    }
}

/// Render a body as a comma-separated goal sequence.
pub(crate) fn body_to_string(body: &Body, syms: &SymbolTable) -> String {
    if body.goals.is_empty() {
        return "true".to_string();
    }
    body.goals.iter().map(|g| goal_to_string(g, syms)).collect::<Vec<_>>().join(", ")
}

/// Render a clause, terminated by a period.
pub(crate) fn clause_to_string(clause: &Clause, syms: &SymbolTable) -> String {
    if clause.body.goals.is_empty() {
        format!("{}.", term_to_string(&clause.head, syms))
    } else {
        format!("{} :- {}.", term_to_string(&clause.head, syms), body_to_string(&clause.body, syms))
    }
}

/// Render a whole program, one clause per line.
pub fn program_to_string(program: &Program, syms: &SymbolTable) -> String {
    program.clauses.iter().map(|c| clause_to_string(c, syms)).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_term};

    #[test]
    fn prints_lists() {
        let mut syms = SymbolTable::new();
        let t = parse_term("[1,2|T]", &mut syms).unwrap();
        assert_eq!(term_to_string(&t, &syms), "[1,2|T]");
    }

    #[test]
    fn prints_operators_with_minimal_parens() {
        let mut syms = SymbolTable::new();
        let t = parse_term("X is (A+B)*C", &mut syms).unwrap();
        assert_eq!(term_to_string(&t, &syms), "X is (A+B)*C");
    }

    #[test]
    fn quotes_atoms_when_needed() {
        let mut syms = SymbolTable::new();
        let t = parse_term("'Hello world'", &mut syms).unwrap();
        assert_eq!(term_to_string(&t, &syms), "'Hello world'");
    }

    #[test]
    fn clause_round_trip_text() {
        let mut syms = SymbolTable::new();
        let p = parse_program("f(X,Y) :- (ground(X) | g(X) & h(Y)).", &mut syms).unwrap();
        let printed = clause_to_string(&p.clauses[0], &syms);
        assert_eq!(printed, "f(X,Y) :- (ground(X) | g(X) & h(Y)).");
        // and it parses back to the same structure
        let p2 = parse_program(&printed, &mut syms).unwrap();
        assert_eq!(p.clauses[0], p2.clauses[0]);
    }

    #[test]
    fn program_to_string_is_reparsable() {
        let src = "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).";
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        let printed = program_to_string(&p, &syms);
        let p2 = parse_program(&printed, &mut syms).unwrap();
        assert_eq!(p.clauses, p2.clauses);
    }

    #[test]
    fn empty_body_prints_true() {
        let syms = SymbolTable::new();
        assert_eq!(body_to_string(&Body::empty(), &syms), "true");
    }
}
