//! The answer oracle of the differential suites: a term-level SLD
//! interpreter over `pwam_front`'s AST.
//!
//! It shares no code with the compiler or the abstract machine — no
//! instruction set, no tagged cells, no Stack Sets — so an answer stream that
//! agrees with it was not produced by a bug the two have in common.  Proofs
//! run depth first over an explicit continuation list and choice-point stack
//! (nothing recurses over the proof), clauses are tried in source order, and
//! a cut discards the choice points pushed since its clause was called.
//!
//! A CGE has two readings, and [`Cge`] picks one.  The WAM compilation
//! ([`Cge::Conjunction`]) runs the branches as a plain conjunction.  The
//! RAP-WAM compilation ([`Cge::FirstSolution`]) runs them in parallel when the
//! conditions hold, and `pcall_wait` then commits every branch to its first
//! solution; when a condition fails the branches run as the conjunction.  A
//! cut inside a branch is local to the branch in both.
//!
//! Unbound variables in an answer render as `_G<n>` with the oracle's own
//! numbering, so only streams of ground answers compare as strings.

use pwam_front::clause::{Body, CgeCondition, Goal};
use pwam_front::pretty::term_to_string;
use pwam_front::Term;
use pwam_front::{parse_program, parse_query};
use pwam_front::{Atom, SymbolTable, INT_MAX, INT_MIN};
use std::collections::HashMap;
use std::rc::Rc;

/// Proof steps after which a query is declared runaway, unless
/// [`Oracle::step_limit`] says otherwise.
const STEP_LIMIT: u64 = 50_000_000;

/// One answer: the query's named variables with their rendered bindings,
/// sorted by name.
pub type Row = Vec<(String, String)>;

/// How the oracle reads a CGE (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cge {
    Conjunction,
    FirstSolution,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    Instantiation,
    Type(String),
    DivisionByZero,
    IntegerOverflow,
    UnknownPredicate(String),
    StepLimit,
}

/// A run-time term.  Variables index the binding store.
#[derive(Debug, Clone)]
enum T {
    Var(usize),
    Atom(Atom),
    Int(i64),
    Struct(Atom, Rc<[T]>),
}

/// A body goal with clause-local variable numbers.
enum G {
    Call(T),
    Cut,
    Cge { conditions: Vec<Cond>, branches: Vec<Vec<G>> },
}

enum Cond {
    Ground(T),
    Indep(T, T),
}

struct Rule {
    head: T,
    body: Vec<G>,
    nvars: usize,
}

/// The goals still to prove.
type Cont<'a> = Option<Rc<Frame<'a>>>;

enum Frame<'a> {
    /// The rest of a clause body: its variables start at `base`, its cut
    /// returns the choice stack to height `cut`.
    Goals { goals: &'a [G], base: usize, cut: usize, next: Cont<'a> },
    /// A CGE branch about to start; `commit` keeps only its first solution.
    Branch { goals: &'a [G], base: usize, commit: bool, next: Cont<'a> },
    /// Return the choice stack to `height`.
    Commit { height: usize, next: Cont<'a> },
}

/// The untried clauses of one call.
struct Choice<'a> {
    goal: T,
    rules: &'a [Rule],
    cont: Cont<'a>,
    trail: usize,
    vars: usize,
}

pub struct Oracle {
    syms: SymbolTable,
    rules: HashMap<(Atom, usize), Vec<Rule>>,
    /// Proof steps one [`Oracle::solutions`] call may take.
    pub step_limit: u64,
}

fn lower(t: &Term, vars: &mut Vec<String>) -> T {
    match t {
        Term::Atom(a) => T::Atom(*a),
        Term::Int(i) => T::Int(*i),
        Term::Var(name) => T::Var(vars.iter().position(|v| v == name).unwrap_or_else(|| {
            vars.push(name.clone());
            vars.len() - 1
        })),
        Term::Struct(f, args) => T::Struct(*f, args.iter().map(|a| lower(a, vars)).collect()),
    }
}

fn lower_body(body: &Body, vars: &mut Vec<String>) -> Vec<G> {
    let goals = body.goals.iter().map(|g| match g {
        Goal::Call(t) => G::Call(lower(t, vars)),
        Goal::Cut => G::Cut,
        Goal::Cge(cge) => G::Cge {
            conditions: cge
                .conditions
                .iter()
                .filter_map(|c| match c {
                    CgeCondition::Ground(t) => Some(Cond::Ground(lower(t, vars))),
                    CgeCondition::Indep(a, b) => Some(Cond::Indep(lower(a, vars), lower(b, vars))),
                    CgeCondition::True => None,
                })
                .collect(),
            branches: cge.branches.iter().map(|b| lower_body(b, vars)).collect(),
        },
    });
    goals.collect()
}

/// `t` with its clause-local variables moved to `base`.
fn shift(t: &T, base: usize) -> T {
    match t {
        T::Var(i) => T::Var(i + base),
        T::Struct(f, args) => T::Struct(*f, args.iter().map(|a| shift(a, base)).collect()),
        other => other.clone(),
    }
}

impl Oracle {
    pub fn new(program_text: &str) -> Oracle {
        let mut syms = SymbolTable::new();
        let program = parse_program(program_text, &mut syms).expect("oracle: program parses");
        let mut rules: HashMap<(Atom, usize), Vec<Rule>> = HashMap::new();
        for clause in &program.clauses {
            let mut vars = Vec::new();
            let head = lower(&clause.head, &mut vars);
            let body = lower_body(&clause.body, &mut vars);
            let key = clause.predicate().expect("oracle: clause head has a functor");
            rules.entry(key).or_default().push(Rule { head, body, nvars: vars.len() });
        }
        Oracle { syms, rules, step_limit: STEP_LIMIT }
    }

    /// The first `limit` answers to `query_text`, in proof order.
    pub fn solutions(&mut self, query_text: &str, cge: Cge, limit: usize) -> Result<Vec<Row>, OracleError> {
        let body = parse_query(query_text, &mut self.syms).expect("oracle: query parses");
        let mut names = Vec::new();
        let goals = lower_body(&body, &mut names);
        let mut m = Machine {
            syms: &self.syms,
            rules: &self.rules,
            cge,
            bindings: vec![None; names.len()],
            trail: Vec::new(),
            choices: Vec::new(),
        };
        let mut rows = Vec::new();
        let mut cont: Cont = Some(Rc::new(Frame::Goals { goals: &goals, base: 0, cut: 0, next: None }));
        for _ in 0..self.step_limit {
            let step = match cont.take() {
                None => {
                    let mut row: Row = names
                        .iter()
                        .enumerate()
                        .filter(|(_, name)| !name.starts_with('_'))
                        .map(|(i, name)| (name.clone(), term_to_string(&m.resolve(&T::Var(i)), m.syms)))
                        .collect();
                    row.sort();
                    rows.push(row);
                    if rows.len() >= limit {
                        return Ok(rows);
                    }
                    None
                }
                Some(frame) => m.step(&frame)?,
            };
            cont = match step.or_else(|| m.backtrack()) {
                Some(next) => next,
                None => return Ok(rows),
            };
        }
        Err(OracleError::StepLimit)
    }
}

struct Machine<'a> {
    syms: &'a SymbolTable,
    rules: &'a HashMap<(Atom, usize), Vec<Rule>>,
    cge: Cge,
    bindings: Vec<Option<T>>,
    trail: Vec<usize>,
    choices: Vec<Choice<'a>>,
}

impl<'a> Machine<'a> {
    /// Take one frame off the continuation.  `Some(rest)` continues forward
    /// with `rest` (itself `None` once everything is proved); `None` fails.
    fn step(&mut self, frame: &Frame<'a>) -> Result<Option<Cont<'a>>, OracleError> {
        Ok(match frame {
            Frame::Commit { height, next } => {
                self.choices.truncate(*height);
                Some(next.clone())
            }
            Frame::Branch { goals, base, commit, next } => {
                let cut = self.choices.len();
                let next = if *commit {
                    Some(Rc::new(Frame::Commit { height: cut, next: next.clone() }))
                } else {
                    next.clone()
                };
                Some(Some(Rc::new(Frame::Goals { goals, base: *base, cut, next })))
            }
            Frame::Goals { goals: [], next, .. } => Some(next.clone()),
            Frame::Goals { goals, base, cut, next } => {
                let (base, cut) = (*base, *cut);
                let rest: Cont =
                    Some(Rc::new(Frame::Goals { goals: &goals[1..], base, cut, next: next.clone() }));
                match &goals[0] {
                    G::Cut => {
                        self.choices.truncate(cut);
                        Some(rest)
                    }
                    G::Cge { conditions, branches } => {
                        let commit = self.cge == Cge::FirstSolution
                            && conditions.iter().all(|c| match c {
                                Cond::Ground(t) => self.variables(&shift(t, base)).is_empty(),
                                Cond::Indep(a, b) => {
                                    let b = self.variables(&shift(b, base));
                                    self.variables(&shift(a, base)).iter().all(|v| !b.contains(v))
                                }
                            });
                        Some(branches.iter().rev().fold(rest, |next, goals| {
                            Some(Rc::new(Frame::Branch { goals, base, commit, next }))
                        }))
                    }
                    G::Call(t) => self.call(shift(t, base), rest)?,
                }
            }
        })
    }

    fn call(&mut self, goal: T, rest: Cont<'a>) -> Result<Option<Cont<'a>>, OracleError> {
        let (f, args): (Atom, &[T]) = match &goal {
            T::Atom(a) => (*a, &[]),
            T::Struct(f, args) => (*f, args),
            other => return Err(OracleError::Type(format!("{other:?} is not callable"))),
        };
        let arg = |i: usize| args[i].clone();
        let holds = match (self.syms.name(f), args.len()) {
            ("true", 0) => true,
            ("fail", 0) | ("false", 0) => false,
            ("is", 2) => {
                let v = self.eval(&arg(1))?;
                self.unify(arg(0), T::Int(v))
            }
            ("=:=", 2) => self.eval(&arg(0))? == self.eval(&arg(1))?,
            ("=\\=", 2) => self.eval(&arg(0))? != self.eval(&arg(1))?,
            ("<", 2) => self.eval(&arg(0))? < self.eval(&arg(1))?,
            ("=<", 2) => self.eval(&arg(0))? <= self.eval(&arg(1))?,
            (">", 2) => self.eval(&arg(0))? > self.eval(&arg(1))?,
            (">=", 2) => self.eval(&arg(0))? >= self.eval(&arg(1))?,
            ("=", 2) => self.unify(arg(0), arg(1)),
            ("==", 2) => self.identical(&arg(0), &arg(1)),
            ("\\==", 2) => !self.identical(&arg(0), &arg(1)),
            ("ground", 1) => self.variables(&arg(0)).is_empty(),
            ("var", 1) => matches!(self.deref(arg(0)), T::Var(_)),
            ("nonvar", 1) => !matches!(self.deref(arg(0)), T::Var(_)),
            ("integer", 1) => matches!(self.deref(arg(0)), T::Int(_)),
            ("atom", 1) => matches!(self.deref(arg(0)), T::Atom(_)),
            ("atomic", 1) => matches!(self.deref(arg(0)), T::Atom(_) | T::Int(_)),
            ("indep", 2) => {
                let b = self.variables(&arg(1));
                self.variables(&arg(0)).iter().all(|v| !b.contains(v))
            }
            (name, arity) => {
                let Some(rules) = self.rules.get(&(f, arity)) else {
                    return Err(OracleError::UnknownPredicate(format!("{name}/{arity}")));
                };
                return Ok(self.resolve_call(goal, rules, rest));
            }
        };
        Ok(holds.then_some(rest))
    }

    /// Resolve `goal` against the first of `rules` whose head unifies, leaving
    /// a choice point when more remain.
    fn resolve_call(&mut self, goal: T, rules: &'a [Rule], cont: Cont<'a>) -> Option<Cont<'a>> {
        let (trail, vars, cut) = (self.trail.len(), self.bindings.len(), self.choices.len());
        for (i, rule) in rules.iter().enumerate() {
            self.bindings.resize(vars + rule.nvars, None);
            if self.unify(shift(&rule.head, vars), goal.clone()) {
                if i + 1 < rules.len() {
                    let (goal, rules, cont) = (goal, &rules[i + 1..], cont.clone());
                    self.choices.push(Choice { goal, rules, cont, trail, vars });
                }
                return Some(Some(Rc::new(Frame::Goals { goals: &rule.body, base: vars, cut, next: cont })));
            }
            self.undo(trail, vars);
        }
        None
    }

    /// Resume at the newest choice point with an untried clause that matches.
    fn backtrack(&mut self) -> Option<Cont<'a>> {
        while let Some(c) = self.choices.pop() {
            self.undo(c.trail, c.vars);
            if let Some(next) = self.resolve_call(c.goal, c.rules, c.cont) {
                return Some(next);
            }
        }
        None
    }

    fn undo(&mut self, trail: usize, vars: usize) {
        for v in self.trail.drain(trail..) {
            self.bindings[v] = None;
        }
        self.bindings.truncate(vars);
    }

    fn deref(&self, mut t: T) -> T {
        while let T::Var(v) = t {
            match &self.bindings[v] {
                Some(bound) => t = bound.clone(),
                None => break,
            }
        }
        t
    }

    /// Unification without the occurs check, like the machine's.
    fn unify(&mut self, a: T, b: T) -> bool {
        let mut pending = vec![(a, b)];
        while let Some((a, b)) = pending.pop() {
            match (self.deref(a), self.deref(b)) {
                (T::Var(x), T::Var(y)) if x == y => {}
                (T::Var(v), t) | (t, T::Var(v)) => {
                    self.bindings[v] = Some(t);
                    self.trail.push(v);
                }
                (T::Atom(x), T::Atom(y)) if x == y => {}
                (T::Int(x), T::Int(y)) if x == y => {}
                (T::Struct(f, xs), T::Struct(g, ys)) if f == g && xs.len() == ys.len() => {
                    pending.extend(xs.iter().cloned().zip(ys.iter().cloned()));
                }
                _ => return false,
            }
        }
        true
    }

    /// `==/2`: equal without binding anything.
    fn identical(&self, a: &T, b: &T) -> bool {
        match (self.deref(a.clone()), self.deref(b.clone())) {
            (T::Var(x), T::Var(y)) => x == y,
            (T::Atom(x), T::Atom(y)) => x == y,
            (T::Int(x), T::Int(y)) => x == y,
            (T::Struct(f, xs), T::Struct(g, ys)) => {
                f == g && xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| self.identical(x, y))
            }
            _ => false,
        }
    }

    /// The unbound variables of `t`.
    fn variables(&self, t: &T) -> Vec<usize> {
        match self.deref(t.clone()) {
            T::Var(v) => vec![v],
            T::Struct(_, args) => args.iter().flat_map(|a| self.variables(a)).collect(),
            _ => Vec::new(),
        }
    }

    /// Integer arithmetic with the machine's conventions: `/` and `//` both
    /// truncating division, `mod` the Euclidean remainder, and any result
    /// outside `INT_MIN..=INT_MAX` an overflow error.
    fn eval(&self, t: &T) -> Result<i64, OracleError> {
        let in_range = |v: Option<i64>| {
            v.filter(|v| (INT_MIN..=INT_MAX).contains(v)).ok_or(OracleError::IntegerOverflow)
        };
        match self.deref(t.clone()) {
            T::Int(v) => Ok(v),
            T::Var(_) => Err(OracleError::Instantiation),
            T::Atom(a) => Err(OracleError::Type(format!("{} is not a number", self.syms.name(a)))),
            T::Struct(f, args) => {
                let name = self.syms.name(f);
                let x = self.eval(&args[0])?;
                match (name, args.len()) {
                    ("-", 1) => in_range(x.checked_neg()),
                    ("+", 1) => Ok(x),
                    (_, 2) => {
                        let y = self.eval(&args[1])?;
                        match name {
                            "+" => in_range(x.checked_add(y)),
                            "-" => in_range(x.checked_sub(y)),
                            "*" => in_range(x.checked_mul(y)),
                            "/" | "//" | "mod" if y == 0 => Err(OracleError::DivisionByZero),
                            "/" | "//" => in_range(x.checked_div(y)),
                            "mod" => in_range(x.checked_rem_euclid(y)),
                            _ => Err(OracleError::Type(format!("{name}/2 is not arithmetic"))),
                        }
                    }
                    (_, n) => Err(OracleError::Type(format!("{name}/{n} is not arithmetic"))),
                }
            }
        }
    }

    /// `t` with every binding applied, as a source-level term.
    fn resolve(&self, t: &T) -> Term {
        match self.deref(t.clone()) {
            T::Var(v) => Term::Var(format!("_G{v}")),
            T::Atom(a) => Term::Atom(a),
            T::Int(i) => Term::Int(i),
            T::Struct(f, args) => Term::Struct(f, args.iter().map(|a| self.resolve(a)).collect()),
        }
    }
}
