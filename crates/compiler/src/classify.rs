//! Clause analysis: chunk decomposition, permanent/temporary variable
//! classification and register assignment.
//!
//! The classification follows the standard WAM rules:
//!
//! * the head and the first call-like body goal form *chunk 0*; every later
//!   call-like goal starts a new chunk (inline builtins and cuts do not end a
//!   chunk);
//! * each branch of a CGE is its own chunk (its goals may execute on another
//!   PE, or — on the sequential fallback path — after an intervening call);
//! * a variable occurring in more than one chunk is **permanent** (lives in a
//!   `Yn` slot of the environment); all others are **temporary** (`Xn`).
//!
//! For query compilation every variable is forced permanent so that the
//! engine can read the answer substitution out of the query environment
//! after `halt`.

use crate::error::{CompileError, CompileResult};
use crate::instr::{Builtin, Reg};
use pwam_front::clause::{Body, Clause, Goal};
use pwam_front::SymbolTable;
use pwam_front::Term;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Result of analysing one clause.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseAnalysis {
    /// Permanent variables: name → 1-based `Y` slot.
    pub(crate) perm: HashMap<String, u16>,
    /// Temporary variables: name → 1-based `X` register.
    pub(crate) temp: HashMap<String, u16>,
    /// Whether the clause needs an environment.
    pub(crate) env_needed: bool,
    /// `Y` slot reserved for the cut barrier (`get_level`/`cut`), if any.
    pub(crate) cut_y: Option<u16>,
    /// Total number of `Y` slots (permanent variables + cut barrier).
    pub(crate) env_size: u16,
    /// First X register available for structure-building scratch temporaries.
    pub(crate) base_scratch: u16,
    /// Highest argument arity appearing in the clause (head or any goal).
    pub(crate) max_arity: u16,
}

impl ClauseAnalysis {
    /// The register assigned to a clause variable.
    pub(crate) fn reg_of(&self, name: &str) -> CompileResult<Reg> {
        if let Some(&y) = self.perm.get(name) {
            Ok(Reg::Y(y))
        } else if let Some(&x) = self.temp.get(name) {
            Ok(Reg::X(x))
        } else {
            Err(CompileError::new(format!("internal error: variable {name} was not classified")))
        }
    }
}

/// True if a goal term is a call to a builtin predicate.
pub(crate) fn is_builtin_call(term: &Term, syms: &SymbolTable) -> bool {
    match term.functor() {
        Some((f, n)) => Builtin::lookup(syms.name(f), n).is_some(),
        None => false,
    }
}

/// The call term of a CGE's leftmost branch when that branch is eligible
/// for inline execution on the parent PE (the last-goal-inline
/// optimisation): exactly one non-builtin user call.
///
/// Today every CGE that reaches codegen satisfies this — the parser
/// requires at least two branches, lifting reduces each branch to a single
/// user call, and `compile_cge` rejects anything else before asking — so
/// for compilable programs this returns `Some`.  It is still the single
/// place that *defines* eligibility: if branch shapes are ever loosened
/// (e.g. builtin-only branches), codegen automatically keeps those CGEs on
/// the Goal-Frame-everywhere path instead of inlining something unsound.
pub(crate) fn cge_inline_call<'a>(
    branches: &'a [pwam_front::clause::Body],
    syms: &SymbolTable,
) -> Option<&'a Term> {
    match branches.first()?.goals.as_slice() {
        [Goal::Call(t)] if !is_builtin_call(t, syms) => Some(t),
        _ => None,
    }
}

fn collect_term_vars(
    term: &Term,
    chunk: usize,
    occ: &mut BTreeMap<String, BTreeSet<usize>>,
    order: &mut Vec<String>,
) {
    match term {
        Term::Var(v) => {
            if !occ.contains_key(v) {
                order.push(v.clone());
            }
            occ.entry(v.clone()).or_default().insert(chunk);
        }
        Term::Struct(_, args) => {
            for a in args {
                collect_term_vars(a, chunk, occ, order);
            }
        }
        _ => {}
    }
}

fn goal_arity(goal: &Goal) -> usize {
    match goal {
        Goal::Call(t) => t.functor().map(|(_, n)| n).unwrap_or(0),
        Goal::Cut => 0,
        Goal::Cge(cge) => cge.branches.iter().flat_map(|b| b.goals.iter()).map(goal_arity).max().unwrap_or(0),
    }
}

fn body_has_cut(body: &Body) -> bool {
    body.goals.iter().any(|g| match g {
        Goal::Cut => true,
        Goal::Cge(c) => c.branches.iter().any(body_has_cut),
        Goal::Call(_) => false,
    })
}

fn body_has_cge(body: &Body) -> bool {
    body.goals.iter().any(|g| matches!(g, Goal::Cge(_)))
}

/// Analyse a clause.  `force_permanent` is used for query compilation.
pub(crate) fn analyze_clause(
    clause: &Clause,
    syms: &SymbolTable,
    force_permanent: bool,
) -> CompileResult<ClauseAnalysis> {
    // Occurrence map: variable -> set of chunk ids, plus first-occurrence order.
    let mut occ: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut chunk = 0usize;

    collect_term_vars(&clause.head, chunk, &mut occ, &mut order);

    let mut call_like = 0usize;
    for goal in &clause.body.goals {
        match goal {
            Goal::Cut => {}
            Goal::Call(t) => {
                collect_term_vars(t, chunk, &mut occ, &mut order);
                if !is_builtin_call(t, syms) {
                    call_like += 1;
                    chunk += 1;
                }
            }
            Goal::Cge(cge) => {
                call_like += 1;
                // Conditions belong to the chunk that precedes the CGE.
                for cond in &cge.conditions {
                    match cond {
                        pwam_front::clause::CgeCondition::Ground(t) => {
                            collect_term_vars(t, chunk, &mut occ, &mut order)
                        }
                        pwam_front::clause::CgeCondition::Indep(a, b) => {
                            collect_term_vars(a, chunk, &mut occ, &mut order);
                            collect_term_vars(b, chunk, &mut occ, &mut order);
                        }
                        pwam_front::clause::CgeCondition::True => {}
                    }
                }
                // Each branch is its own chunk.
                for branch in &cge.branches {
                    chunk += 1;
                    for g in &branch.goals {
                        match g {
                            Goal::Call(t) => collect_term_vars(t, chunk, &mut occ, &mut order),
                            Goal::Cut => {}
                            Goal::Cge(_) => {
                                return Err(CompileError::new(
                                    "nested CGEs must be lifted before classification (internal error)",
                                ))
                            }
                        }
                    }
                }
                chunk += 1;
            }
        }
    }

    let mut analysis = ClauseAnalysis::default();

    // Permanent = occurs in >= 2 chunks (or forced).
    let mut next_y = 1u16;
    for name in &order {
        let chunks = &occ[name];
        if force_permanent || chunks.len() >= 2 {
            analysis.perm.insert(name.clone(), next_y);
            next_y += 1;
        }
    }

    let has_cut = body_has_cut(&clause.body);
    let has_cge = body_has_cge(&clause.body);
    if has_cut {
        analysis.cut_y = Some(next_y);
        next_y += 1;
    }
    analysis.env_size = next_y - 1;

    analysis.env_needed = analysis.env_size > 0 || call_like >= 2 || has_cge || force_permanent;

    // Maximum arity of the head and of every goal (for the temp register base).
    let head_arity = clause.head.functor().map(|(_, n)| n).unwrap_or(0);
    let max_goal_arity = clause.body.goals.iter().map(goal_arity).max().unwrap_or(0);
    let max_arity = head_arity.max(max_goal_arity) as u16;
    analysis.max_arity = max_arity;

    // Temporary variables: everything not permanent, numbered above max_arity.
    let mut next_x = max_arity + 1;
    for name in &order {
        if !analysis.perm.contains_key(name) {
            analysis.temp.insert(name.clone(), next_x);
            next_x += 1;
        }
    }
    analysis.base_scratch = next_x;

    if analysis.base_scratch as usize + 64 > crate::MAX_X_REGS {
        return Err(CompileError::new(format!(
            "clause for {:?} needs too many registers ({})",
            clause.head.functor(),
            analysis.base_scratch
        )));
    }

    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_front::parse_program;

    fn analyze(src: &str) -> (ClauseAnalysis, SymbolTable) {
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        let a = analyze_clause(&p.clauses[0], &syms, false).unwrap();
        (a, syms)
    }

    #[test]
    fn fact_needs_no_environment() {
        let (a, _) = analyze("p(X, f(X), 3).");
        assert!(!a.env_needed);
        assert!(a.perm.is_empty());
        assert!(a.temp.contains_key("X"));
    }

    #[test]
    fn single_call_clause_needs_no_environment() {
        let (a, _) = analyze("p(X) :- q(X).");
        assert!(!a.env_needed);
        assert!(a.perm.is_empty(), "X lives in chunk 0 only: {:?}", a.perm);
    }

    #[test]
    fn variable_crossing_a_call_is_permanent() {
        let (a, _) = analyze("p(X, Y) :- q(X), r(Y).");
        // Y occurs in the head (chunk 0) and in r(Y) (chunk 1) -> permanent.
        assert!(a.perm.contains_key("Y"));
        // X occurs in head and q(X), both chunk 0 -> temporary.
        assert!(a.temp.contains_key("X"));
        assert!(a.env_needed);
    }

    #[test]
    fn builtin_does_not_end_a_chunk() {
        let (a, _) = analyze("p(X, Y) :- Y is X + 1, q(Y).");
        // Everything is in chunk 0 (is/2 is inline), so no permanents.
        assert!(a.perm.is_empty(), "{:?}", a.perm);
        assert!(!a.env_needed);
    }

    #[test]
    fn cge_branches_are_separate_chunks() {
        let (a, _) = analyze("f(X,Y,Z) :- (ground(Y), indep(X,Z) | g(X,Y) & h(Y,Z)).");
        // Y occurs in both branches -> permanent; X and Z occur in one branch
        // each plus the head/conditions (chunk 0) -> also permanent.
        assert!(a.perm.contains_key("Y"));
        assert!(a.perm.contains_key("X"));
        assert!(a.perm.contains_key("Z"));
        assert!(a.env_needed);
    }

    #[test]
    fn cut_reserves_a_y_slot() {
        let (a, _) = analyze("p(X) :- q(X), !, r(X).");
        assert!(a.cut_y.is_some());
        assert_eq!(a.env_size as usize, a.perm.len() + 1);
    }

    #[test]
    fn forced_permanent_for_queries() {
        let mut syms = SymbolTable::new();
        let p = parse_program("q(X,Y) :- foo(X), bar(Y).", &mut syms).unwrap();
        let a = analyze_clause(&p.clauses[0], &syms, true).unwrap();
        assert_eq!(a.perm.len(), 2);
        assert!(a.temp.is_empty());
        assert!(a.env_needed);
    }

    #[test]
    fn temp_registers_start_above_max_arity() {
        let (a, _) = analyze("p(A,B,C) :- q(A,B,C,1,2).");
        for &x in a.temp.values() {
            assert!(x > 5, "temp register {x} must be above the max arity 5");
        }
        assert_eq!(a.max_arity, 5);
    }

    #[test]
    fn y_slots_are_dense_and_start_at_one() {
        let (a, _) = analyze("p(X,Y,Z) :- q(X), r(Y), s(Z).");
        let mut ys: Vec<u16> = a.perm.values().copied().collect();
        ys.sort_unstable();
        // X is only in chunk 0, Y crosses one call, Z crosses two.
        assert_eq!(ys, vec![1, 2]);
    }
}
