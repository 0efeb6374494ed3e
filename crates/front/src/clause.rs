//! Clauses, bodies and Conditional Graph Expressions (CGEs).
//!
//! The parser produces raw operator terms; this module gives them the
//! structure the compiler works with:
//!
//! * a [`Clause`] is `head :- body` (facts have an empty body),
//! * a [`Body`] is a sequence of [`Goal`]s,
//! * a [`Goal`] is an ordinary call, a cut, or a [`Cge`],
//! * a [`Cge`] is `( conditions | branch1 & branch2 & ... )` — the
//!   goal-independence annotation of the RAP-WAM model.  An unconditional
//!   parallel conjunction `( g & h )` is a CGE whose condition list is empty
//!   (always true).

use crate::atoms::{Atom, SymbolTable};
use crate::error::{FrontError, FrontResult};
use crate::term::Term;
use std::collections::BTreeSet;
use std::collections::HashMap;

/// A single goal in a clause body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Goal {
    /// An ordinary predicate call (atom or compound term).
    Call(Term),
    /// The cut (`!`).
    Cut,
    /// A Conditional Graph Expression — candidate AND-parallel execution.
    Cge(Cge),
}

/// A sequential conjunction of goals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Body {
    pub goals: Vec<Goal>,
}

impl Body {
    /// An empty (always-true) body.
    pub(crate) fn empty() -> Self {
        Body { goals: Vec::new() }
    }

    /// The set of variable names mentioned in the body.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for g in &self.goals {
            match g {
                Goal::Call(t) => out.extend(t.variables()),
                Goal::Cut => {}
                Goal::Cge(cge) => out.extend(cge.variables()),
            }
        }
        out
    }
}

/// A run-time independence condition guarding a CGE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgeCondition {
    /// `ground(T)` — T must be bound to a ground term.
    Ground(Term),
    /// `indep(A, B)` — the terms bound to A and B must share no variables.
    Indep(Term, Term),
    /// `true` — no run-time check (compile-time analysis proved independence).
    True,
}

/// A Conditional Graph Expression: `( Cond1, ..., CondN | B1 & B2 & ... & BM )`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cge {
    /// Run-time checks; all must succeed for parallel execution.  If any
    /// fails, the branches are executed sequentially (left to right), which
    /// preserves the don't-know non-deterministic semantics.
    pub conditions: Vec<CgeCondition>,
    /// Parallel branches.  Each branch is itself a sequential body.
    pub branches: Vec<Body>,
}

impl Cge {
    /// Variables mentioned anywhere in the CGE.
    pub(crate) fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for c in &self.conditions {
            match c {
                CgeCondition::Ground(t) => out.extend(t.variables()),
                CgeCondition::Indep(a, b) => {
                    out.extend(a.variables());
                    out.extend(b.variables());
                }
                CgeCondition::True => {}
            }
        }
        for b in &self.branches {
            out.extend(b.variables());
        }
        out
    }
}

/// A program clause `Head :- Body` (or a fact, with an empty body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    pub head: Term,
    pub body: Body,
}

impl Clause {
    /// The functor/arity of the clause head.
    pub fn predicate(&self) -> FrontResult<(Atom, usize)> {
        self.head
            .functor()
            .ok_or_else(|| FrontError::unpositioned("clause head must be an atom or compound term"))
    }
}

/// A parsed program: clause list plus an index from predicate (functor,
/// arity) to the clauses defining it, in source order.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub clauses: Vec<Clause>,
    pub(crate) predicates: HashMap<(Atom, usize), Vec<usize>>,
    /// Predicate definition order (first-clause order), for stable iteration.
    pub predicate_order: Vec<(Atom, usize)>,
}

impl Program {
    /// Append a clause, maintaining the predicate index.
    pub fn push(&mut self, clause: Clause, _syms: &SymbolTable) {
        if let Ok(key) = clause.predicate() {
            let entry = self.predicates.entry(key).or_default();
            if entry.is_empty() {
                self.predicate_order.push(key);
            }
            entry.push(self.clauses.len());
        }
        self.clauses.push(clause);
    }

    /// The clauses defining `pred/arity`, in source order.
    pub fn clauses_for(&self, pred: Atom, arity: usize) -> Vec<&Clause> {
        self.predicates
            .get(&(pred, arity))
            .map(|idxs| idxs.iter().map(|&i| &self.clauses[i]).collect())
            .unwrap_or_default()
    }

    /// Number of CGEs across all clauses (a measure of annotated parallelism).
    pub fn cge_count(&self) -> usize {
        fn count_body(b: &Body) -> usize {
            b.goals
                .iter()
                .map(|g| match g {
                    Goal::Cge(c) => 1 + c.branches.iter().map(count_body).sum::<usize>(),
                    _ => 0,
                })
                .sum()
        }
        self.clauses.iter().map(|c| count_body(&c.body)).sum()
    }
}

/// Convert a parsed operator term into a [`Clause`].
pub(crate) fn term_to_clause(term: &Term, syms: &SymbolTable) -> FrontResult<Clause> {
    let wk = syms.well_known();
    match term {
        Term::Struct(f, args) if *f == wk.neck && args.len() == 2 => {
            let head = args[0].clone();
            validate_head(&head)?;
            let body = term_to_goal_sequence(&args[1], syms)?;
            Ok(Clause { head, body })
        }
        _ => {
            validate_head(term)?;
            Ok(Clause { head: term.clone(), body: Body::empty() })
        }
    }
}

fn validate_head(head: &Term) -> FrontResult<()> {
    match head {
        Term::Atom(_) | Term::Struct(_, _) => Ok(()),
        other => Err(FrontError::unpositioned(format!(
            "clause head must be an atom or compound term, found {other:?}"
        ))),
    }
}

/// Convert a body term (a `','`/`'&'`/`'|'` tree) into a flat [`Body`].
pub(crate) fn term_to_goal_sequence(term: &Term, syms: &SymbolTable) -> FrontResult<Body> {
    let mut body = Body::empty();
    flatten_conj(term, syms, &mut body)?;
    Ok(body)
}

fn flatten_conj(term: &Term, syms: &SymbolTable, out: &mut Body) -> FrontResult<()> {
    let wk = syms.well_known();
    match term {
        Term::Struct(f, args) if *f == wk.comma && args.len() == 2 => {
            flatten_conj(&args[0], syms, out)?;
            flatten_conj(&args[1], syms, out)
        }
        _ => {
            out.goals.push(term_to_goal(term, syms)?);
            Ok(())
        }
    }
}

fn term_to_goal(term: &Term, syms: &SymbolTable) -> FrontResult<Goal> {
    let wk = syms.well_known();
    match term {
        Term::Atom(a) if *a == wk.cut => Ok(Goal::Cut),
        Term::Atom(a) if *a == wk.truth => Ok(Goal::Call(term.clone())),
        Term::Struct(f, args) if *f == wk.bar && args.len() == 2 => {
            // ( Conditions | Goals )
            let conditions = parse_conditions(&args[0], syms)?;
            let branches = parse_branches(&args[1], syms)?;
            if branches.len() < 2 {
                return Err(FrontError::unpositioned(
                    "a CGE must contain at least two parallel branches joined by '&'",
                ));
            }
            Ok(Goal::Cge(Cge { conditions, branches }))
        }
        Term::Struct(f, args) if *f == wk.amp && args.len() == 2 => {
            // Unconditional parallel conjunction ( G1 & G2 & ... ).
            let branches = parse_branches(term, syms)?;
            let _ = args;
            Ok(Goal::Cge(Cge { conditions: Vec::new(), branches }))
        }
        Term::Atom(_) | Term::Struct(_, _) => Ok(Goal::Call(term.clone())),
        Term::Var(v) => {
            Err(FrontError::unpositioned(format!("meta-call of a plain variable ({v}) is not supported")))
        }
        Term::Int(n) => Err(FrontError::unpositioned(format!("an integer ({n}) cannot be a goal"))),
    }
}

fn parse_conditions(term: &Term, syms: &SymbolTable) -> FrontResult<Vec<CgeCondition>> {
    let wk = syms.well_known();
    let mut flat = Vec::new();
    fn walk(t: &Term, comma: Atom, out: &mut Vec<Term>) {
        match t {
            Term::Struct(f, args) if *f == comma && args.len() == 2 => {
                walk(&args[0], comma, out);
                walk(&args[1], comma, out);
            }
            _ => out.push(t.clone()),
        }
    }
    walk(term, wk.comma, &mut flat);
    let mut out = Vec::new();
    for t in flat {
        match &t {
            Term::Atom(a) if *a == wk.truth => out.push(CgeCondition::True),
            Term::Struct(f, args) if *f == wk.ground && args.len() == 1 => {
                out.push(CgeCondition::Ground(args[0].clone()))
            }
            Term::Struct(f, args) if *f == wk.indep && args.len() == 2 => {
                out.push(CgeCondition::Indep(args[0].clone(), args[1].clone()))
            }
            other => {
                return Err(FrontError::unpositioned(format!(
                    "unsupported CGE condition {other:?}: expected ground/1, indep/2 or true"
                )))
            }
        }
    }
    Ok(out)
}

fn parse_branches(term: &Term, syms: &SymbolTable) -> FrontResult<Vec<Body>> {
    let wk = syms.well_known();
    let mut branch_terms = Vec::new();
    fn walk(t: &Term, amp: Atom, out: &mut Vec<Term>) {
        match t {
            Term::Struct(f, args) if *f == amp && args.len() == 2 => {
                walk(&args[0], amp, out);
                walk(&args[1], amp, out);
            }
            _ => out.push(t.clone()),
        }
    }
    walk(term, wk.amp, &mut branch_terms);
    branch_terms.iter().map(|t| term_to_goal_sequence(t, syms)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_term};

    fn program(src: &str) -> (Program, SymbolTable) {
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        (p, syms)
    }

    #[test]
    fn fact_has_empty_body() {
        let (p, _) = program("parent(tom, bob).");
        assert_eq!(p.clauses[0].body.goals.len(), 0);
    }

    #[test]
    fn rule_body_is_flattened() {
        let (p, _) = program("a :- b, c, d.");
        assert_eq!(p.clauses[0].body.goals.len(), 3);
        assert!(p.clauses[0].body.goals.iter().all(|g| matches!(g, Goal::Call(_))));
    }

    #[test]
    fn cut_is_recognised() {
        let (p, _) = program("a :- b, !, c.");
        assert!(matches!(p.clauses[0].body.goals[1], Goal::Cut));
    }

    #[test]
    fn cge_with_conditions() {
        let (p, _) = program("f(X,Y,Z) :- (ground(Y), indep(X,Z) | g(X,Y) & h(Y,Z)).");
        let body = &p.clauses[0].body;
        assert_eq!(body.goals.len(), 1);
        match &body.goals[0] {
            Goal::Cge(cge) => {
                assert_eq!(cge.conditions.len(), 2);
                assert_eq!(cge.branches.len(), 2);
                assert!(!cge.conditions.iter().all(|c| matches!(c, CgeCondition::True)));
            }
            other => panic!("expected CGE, got {other:?}"),
        }
    }

    #[test]
    fn unconditional_parallel_conjunction() {
        let (p, _) = program("f(X,Y) :- (g(X) & h(Y)).");
        match &p.clauses[0].body.goals[0] {
            Goal::Cge(cge) => {
                assert!(cge.conditions.iter().all(|c| matches!(c, CgeCondition::True)));
                assert_eq!(cge.branches.len(), 2);
            }
            other => panic!("expected CGE, got {other:?}"),
        }
    }

    #[test]
    fn three_way_parallel_branches() {
        let (p, _) = program("f :- (a & b & c).");
        match &p.clauses[0].body.goals[0] {
            Goal::Cge(cge) => assert_eq!(cge.branches.len(), 3),
            other => panic!("expected CGE, got {other:?}"),
        }
    }

    #[test]
    fn sequential_goals_inside_a_branch() {
        let (p, _) = program("f(X,Y) :- (true | (g(X), g2(X)) & h(Y)).");
        match &p.clauses[0].body.goals[0] {
            Goal::Cge(cge) => {
                assert_eq!(cge.branches.len(), 2);
                assert_eq!(cge.branches[0].goals.len(), 2);
            }
            other => panic!("expected CGE, got {other:?}"),
        }
    }

    #[test]
    fn predicate_index_groups_clauses() {
        let (p, mut syms) = program("app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).\nfoo.");
        let (_, syms_ref) = (&p, &mut syms);
        let app = syms_ref.intern("app");
        assert_eq!(p.clauses_for(app, 3).len(), 2);
        assert_eq!(p.predicate_order.len(), 2);
    }

    #[test]
    fn cge_count_counts_nested() {
        // The second clause has a CGE whose second branch contains another
        // CGE nested inside a sequential conjunction.
        let (p, _) = program("f :- (a & b).\ng :- (h & (x, (i & j))).");
        assert_eq!(p.cge_count(), 3);
    }

    #[test]
    fn adjacent_parallel_conjunctions_flatten_into_one_cge() {
        // `(h & i) & j` is the same three-way parallel conjunction as
        // `h & i & j`; the parentheses do not introduce nesting.
        let (p, _) = program("g :- (true | (h & i) & j).");
        assert_eq!(p.cge_count(), 1);
        match &p.clauses[0].body.goals[0] {
            Goal::Cge(cge) => assert_eq!(cge.branches.len(), 3),
            other => panic!("expected CGE, got {other:?}"),
        }
    }

    #[test]
    fn integer_goal_is_rejected() {
        let mut syms = SymbolTable::new();
        let t = parse_term("f :- 3", &mut syms).unwrap();
        assert!(term_to_clause(&t, &syms).is_err());
    }

    #[test]
    fn variable_head_is_rejected() {
        let mut syms = SymbolTable::new();
        assert!(parse_program("X :- a.", &mut syms).is_err());
    }

    #[test]
    fn bad_cge_condition_is_rejected() {
        let mut syms = SymbolTable::new();
        assert!(parse_program("f(X) :- (weird(X) | a & b).", &mut syms).is_err());
    }

    #[test]
    fn single_branch_cge_is_rejected() {
        let mut syms = SymbolTable::new();
        assert!(parse_program("f(X) :- (ground(X) | a).", &mut syms).is_err());
    }
}
