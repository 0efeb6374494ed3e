//! CGE branch lifting.
//!
//! The RAP-WAM dispatches each parallel branch of a CGE as a *single
//! predicate call* whose arguments are copied into a Goal Frame on the Goal
//! Stack.  Source-level CGE branches, however, may be arbitrary sequential
//! conjunctions, contain cuts, builtins or even nested CGEs.  This pass
//! normalises a program so that **every CGE branch is exactly one call to a
//! user-defined predicate**, by lifting every other branch shape into a fresh
//! auxiliary predicate `'$par_<n>'(SharedVars...)` whose body is the original
//! branch.
//!
//! The transformation is semantics-preserving: the auxiliary predicate's
//! arguments are exactly the variables the branch shares with the rest of the
//! clause, so bindings flow in and out the same way.

use pwam_front::clause::{Body, Cge, Clause, Goal, Program};
use pwam_front::SymbolTable;
use pwam_front::Term;
use std::collections::BTreeSet;

use crate::classify::is_builtin_call;

/// Lift CGE branches of a whole program (and optionally of a query body).
/// Returns the transformed program; auxiliary predicates are appended.
pub(crate) struct Lifter {
    counter: usize,
}

impl Default for Lifter {
    fn default() -> Self {
        Self::new()
    }
}

impl Lifter {
    pub(crate) fn new() -> Self {
        Lifter { counter: 0 }
    }

    /// Lift every clause of `program`, returning a new program.
    pub(crate) fn lift_program(&mut self, program: &Program, syms: &mut SymbolTable) -> Program {
        let mut out = Program::default();
        let mut aux: Vec<Clause> = Vec::new();
        for clause in &program.clauses {
            let body = self.lift_body(&clause.body, syms, &mut aux);
            out.push(Clause { head: clause.head.clone(), body }, syms);
        }
        for c in aux {
            out.push(c, syms);
        }
        out
    }

    /// Lift a stand-alone body (e.g. a query).  Auxiliary clauses produced by
    /// the lifting are appended to `extra`.
    pub(crate) fn lift_body_with_aux(
        &mut self,
        body: &Body,
        syms: &mut SymbolTable,
        extra: &mut Vec<Clause>,
    ) -> Body {
        self.lift_body(body, syms, extra)
    }

    fn lift_body(&mut self, body: &Body, syms: &mut SymbolTable, aux: &mut Vec<Clause>) -> Body {
        let goals = body
            .goals
            .iter()
            .map(|g| match g {
                Goal::Call(t) => Goal::Call(t.clone()),
                Goal::Cut => Goal::Cut,
                Goal::Cge(cge) => Goal::Cge(self.lift_cge(cge, syms, aux)),
            })
            .collect();
        Body { goals }
    }

    fn lift_cge(&mut self, cge: &Cge, syms: &mut SymbolTable, aux: &mut Vec<Clause>) -> Cge {
        let branches = cge
            .branches
            .iter()
            .map(|branch| {
                // First, recursively lift nested CGEs inside the branch.
                let branch = self.lift_body(branch, syms, aux);
                if branch_is_plain_call(&branch, syms) {
                    branch
                } else {
                    let call = self.lift_branch(&branch, syms, aux);
                    Body { goals: vec![Goal::Call(call)] }
                }
            })
            .collect();
        Cge { conditions: cge.conditions.clone(), branches }
    }

    fn lift_branch(&mut self, branch: &Body, syms: &mut SymbolTable, aux: &mut Vec<Clause>) -> Term {
        let vars: BTreeSet<String> = branch.variables();
        let name = format!("$par_{}", self.counter);
        self.counter += 1;
        let f = syms.intern(&name);
        let args: Vec<Term> = vars.iter().map(|v| Term::Var(v.clone())).collect();
        let head = if args.is_empty() { Term::Atom(f) } else { Term::Struct(f, args.clone()) };
        aux.push(Clause { head: head.clone(), body: branch.clone() });
        head
    }
}

/// True if the branch is a single call to a (presumably) user predicate —
/// i.e. exactly one `Call` goal that is not a builtin.
fn branch_is_plain_call(branch: &Body, syms: &SymbolTable) -> bool {
    if branch.goals.len() != 1 {
        return false;
    }
    match &branch.goals[0] {
        Goal::Call(t) => !is_builtin_call(t, syms) && t.functor().is_some(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_front::parse_program;

    fn lift(src: &str) -> (Program, SymbolTable) {
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        let mut lifter = Lifter::new();
        let out = lifter.lift_program(&p, &mut syms);
        (out, syms)
    }

    fn cge_of(p: &Program, clause_idx: usize) -> &Cge {
        match &p.clauses[clause_idx].body.goals[0] {
            Goal::Cge(c) => c,
            other => panic!("expected CGE, got {other:?}"),
        }
    }

    #[test]
    fn plain_call_branches_are_untouched() {
        let (p, _) = lift("f(X,Y) :- (g(X) & h(Y)).");
        assert_eq!(p.clauses.len(), 1);
        let cge = cge_of(&p, 0);
        assert_eq!(cge.branches.len(), 2);
    }

    #[test]
    fn conjunction_branch_is_lifted() {
        let (p, syms) = lift("f(X,Y) :- ((g(X), g2(X)) & h(Y)).");
        // one original clause + one auxiliary predicate
        assert_eq!(p.clauses.len(), 2);
        let cge = cge_of(&p, 0);
        let call = match &cge.branches[0].goals[0] {
            Goal::Call(t) => t,
            other => panic!("{other:?}"),
        };
        let (f, n) = call.functor().unwrap();
        assert!(syms.name(f).starts_with("$par_"));
        assert_eq!(n, 1); // only X is shared into the branch
                          // The auxiliary clause body has the two original goals.
        assert_eq!(p.clauses[1].body.goals.len(), 2);
    }

    #[test]
    fn builtin_branch_is_lifted() {
        let (p, syms) = lift("f(A,B,X,Y) :- (X is A+1 & Y is B+2).");
        assert_eq!(p.clauses.len(), 3);
        let cge = cge_of(&p, 0);
        for b in &cge.branches {
            let call = match &b.goals[0] {
                Goal::Call(t) => t,
                other => panic!("{other:?}"),
            };
            let (f, _) = call.functor().unwrap();
            assert!(syms.name(f).starts_with("$par_"));
        }
    }

    #[test]
    fn nested_cge_is_lifted_recursively() {
        let (p, _) = lift("f(X,Y,Z) :- (g(X) & (h(Y), (i(Z) & j(Z)))).");
        // The second branch is a conjunction containing a nested CGE: the
        // branch itself is lifted, and inside the lifted predicate the nested
        // CGE's branches are plain calls already.
        assert!(p.clauses.len() >= 2);
        // All CGE branches everywhere must now be single calls.
        for clause in &p.clauses {
            for goal in &clause.body.goals {
                if let Goal::Cge(cge) = goal {
                    for b in &cge.branches {
                        assert_eq!(b.goals.len(), 1);
                        assert!(matches!(b.goals[0], Goal::Call(_)));
                    }
                }
            }
        }
    }

    #[test]
    fn cut_branch_is_lifted() {
        let (p, _) = lift("f(X,Y) :- ((g(X), !) & h(Y)).");
        assert_eq!(p.clauses.len(), 2);
        // The lifted predicate contains the cut (now local to it).
        assert!(p.clauses[1].body.goals.iter().any(|g| matches!(g, Goal::Cut)));
    }

    #[test]
    fn lifted_names_are_unique() {
        let (p, syms) = lift("f :- ((a, b) & (c, d)).\ng :- ((e, e2) & (h, i)).");
        let mut names = BTreeSet::new();
        for clause in &p.clauses {
            if let Some((f, _)) = clause.head.functor() {
                let n = syms.name(f);
                if n.starts_with("$par_") {
                    assert!(names.insert(n.to_string()), "duplicate auxiliary name {n}");
                }
            }
        }
        assert_eq!(names.len(), 4);
    }
}
