//! Linking / loading: lay out predicate chunks in a single code area,
//! resolve call targets and the shared failure stub.

use crate::codegen::{compile_clause, ChunkBuilder, CompileOptions};
use crate::dense::DenseCode;
use crate::error::{CompileError, CompileResult};
use crate::index::compile_predicate;
use crate::instr::{Builtin, CallTarget, CodeAddr, Instr, FAIL_SENTINEL};
use crate::lift::Lifter;
use crate::program::CompiledProgram;
use pwam_front::clause::{Body, Clause, Program};
use pwam_front::SymbolTable;
use pwam_front::Term;
use std::collections::HashMap;

/// Compile a program and a query into a loaded [`CompiledProgram`].
///
/// This is the main entry point of the crate: it lifts CGE branches, compiles
/// every predicate (with indexing), compiles the query pseudo-clause, and
/// resolves all inter-predicate references.
pub fn compile_program_and_query(
    program: &Program,
    query: &Body,
    syms: &mut SymbolTable,
    opts: CompileOptions,
) -> CompileResult<CompiledProgram> {
    compile_program_and_query_with_hosts(program, query, syms, opts, &[])
}

/// Like [`compile_program_and_query`], with a registry of *host predicates*:
/// `(name, arity)` pairs the embedding application services at run time.
/// Calls to a host predicate compile to `CallTarget::Host(i)` where `i`
/// indexes [`CompiledProgram::hosts`].  User-defined predicates shadow host
/// registrations; hosts shadow builtins.  A host predicate cannot appear as
/// a parallel (CGE) goal: a host call runs in sequential code only.
pub fn compile_program_and_query_with_hosts(
    program: &Program,
    query: &Body,
    syms: &mut SymbolTable,
    opts: CompileOptions,
    hosts: &[(pwam_front::Atom, u8)],
) -> CompileResult<CompiledProgram> {
    // ----- CGE lifting -----
    let mut lifter = Lifter::new();
    let mut lifted = lifter.lift_program(program, syms);
    let mut query_aux: Vec<Clause> = Vec::new();
    let lifted_query = lifter.lift_body_with_aux(query, syms, &mut query_aux);
    for c in query_aux {
        lifted.push(c, syms);
    }

    // ----- code area with runtime stubs -----
    let mut code: Vec<Instr> = Vec::new();
    let fail_addr: CodeAddr = code.len() as CodeAddr;
    code.push(Instr::FailInstr);
    let goal_success_addr: CodeAddr = code.len() as CodeAddr;
    code.push(Instr::GoalSuccess);

    // ----- predicates -----
    let mut predicates: HashMap<(pwam_front::Atom, u8), CodeAddr> = HashMap::new();
    let mut predicate_order = Vec::new();
    let mut predicate_names = Vec::new();
    for &(name, arity) in &lifted.predicate_order {
        if arity > u8::MAX as usize {
            return Err(CompileError::new(format!(
                "predicate {}/{} exceeds the maximum supported arity",
                syms.name(name),
                arity
            )));
        }
        let clauses = lifted.clauses_for(name, arity);
        let chunk = compile_predicate(&clauses, syms, opts)?;
        let base = code.len() as CodeAddr;
        append_relocated(&mut code, chunk, base);
        predicates.insert((name, arity as u8), base);
        predicate_order.push(((name, arity as u8), base));
        predicate_names.push((syms.name(name).to_string(), arity as u8, base));
    }

    // ----- query -----
    let query_atom = syms.intern("$query");
    let query_clause = Clause { head: Term::Atom(query_atom), body: lifted_query };
    let mut qchunk = ChunkBuilder::new();
    let query_vars = compile_clause(&query_clause, syms, opts, true, &mut qchunk)?;
    let query_start = code.len() as CodeAddr;
    append_relocated(&mut code, qchunk, query_start);

    // ----- host registry -----
    // Deterministic order: as registered, first registration of a
    // `(name, arity)` pair wins.
    let mut host_index: HashMap<(pwam_front::Atom, u8), u32> = HashMap::new();
    let mut host_names: Vec<(String, u8)> = Vec::new();
    for &(name, arity) in hosts {
        host_index.entry((name, arity)).or_insert_with(|| {
            host_names.push((syms.name(name).to_string(), arity));
            (host_names.len() - 1) as u32
        });
    }

    // ----- resolution -----
    // Validate call targets first so we can produce a good error message.
    for instr in &code {
        if let Instr::Call { target, .. } | Instr::Execute { target, .. } | Instr::PcallGoal { target, .. } =
            instr
        {
            if let CallTarget::Unresolved(pr) = target {
                let defined = predicates.contains_key(&(pr.name, pr.arity));
                let host = host_index.contains_key(&(pr.name, pr.arity));
                let builtin = Builtin::lookup(syms.name(pr.name), pr.arity as usize).is_some();
                if !defined && !host && !builtin {
                    return Err(CompileError::new(format!(
                        "undefined predicate {}/{}",
                        syms.name(pr.name),
                        pr.arity
                    )));
                }
                if host && !defined && matches!(instr, Instr::PcallGoal { .. }) {
                    return Err(CompileError::new(format!(
                        "host predicate {}/{} cannot be a parallel goal",
                        syms.name(pr.name),
                        pr.arity
                    )));
                }
            }
        }
    }
    for instr in code.iter_mut() {
        instr.map_addrs(&mut |a| if a == FAIL_SENTINEL { fail_addr } else { a });
        instr.map_targets(&mut |t| match t {
            CallTarget::Unresolved(pr) => {
                if let Some(&addr) = predicates.get(&(pr.name, pr.arity)) {
                    CallTarget::Code(addr)
                } else if let Some(&h) = host_index.get(&(pr.name, pr.arity)) {
                    CallTarget::Host(h)
                } else {
                    let b = Builtin::lookup(syms.name(pr.name), pr.arity as usize).expect("validated above");
                    CallTarget::Builtin(b)
                }
            }
            other => *other,
        });
    }

    let dense = DenseCode::build(&code);
    Ok(CompiledProgram {
        code,
        dense,
        predicates,
        predicate_order,
        predicate_names,
        query_start,
        query_vars,
        goal_success_addr,
        hosts: host_names,
    })
}

fn append_relocated(code: &mut Vec<Instr>, chunk: ChunkBuilder, base: CodeAddr) {
    for mut instr in chunk.code {
        instr.relocate(base);
        code.push(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_front::{parse_program, parse_query};

    fn compile(src: &str, query: &str, opts: CompileOptions) -> (CompiledProgram, SymbolTable) {
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        let q = parse_query(query, &mut syms).unwrap();
        let cp = compile_program_and_query(&p, &q, &mut syms, opts).unwrap();
        (cp, syms)
    }

    #[test]
    fn simple_program_loads() {
        let (cp, syms) = compile(
            "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).",
            "app([1,2],[3],X)",
            CompileOptions::default(),
        );
        let app = syms.lookup("app").unwrap();
        assert!(cp.entry(app, 3).is_some());
        assert_eq!(cp.query_vars.len(), 1);
        assert_eq!(cp.query_vars[0].0, "X");
        assert!(cp.code.iter().any(|i| matches!(i, Instr::FailInstr)));
        assert!(matches!(cp.code[cp.goal_success_addr as usize], Instr::GoalSuccess));
    }

    #[test]
    fn every_call_target_is_resolved() {
        let (cp, _) =
            compile("p(X) :- q(X).\nq(X) :- X is 1 + 1.\nr :- p(_).", "r, p(Y)", CompileOptions::default());
        for i in &cp.code {
            if let Instr::Call { target, .. }
            | Instr::Execute { target, .. }
            | Instr::PcallGoal { target, .. } = i
            {
                assert!(!matches!(target, CallTarget::Unresolved(_)), "unresolved target: {i:?}");
            }
        }
    }

    #[test]
    fn undefined_predicate_is_reported() {
        let mut syms = SymbolTable::new();
        let p = parse_program("p(X) :- missing(X).", &mut syms).unwrap();
        let q = parse_query("p(1)", &mut syms).unwrap();
        let err = compile_program_and_query(&p, &q, &mut syms, CompileOptions::default()).unwrap_err();
        assert!(err.message.contains("missing/1"), "{}", err.message);
    }

    #[test]
    fn no_fail_sentinels_survive_loading() {
        let (cp, _) = compile("f(a).\nf(b).\ng([]).\ng([_|_]).", "f(X), g([])", CompileOptions::default());
        for i in &cp.code {
            let mut bad = false;
            let mut probe = i.clone();
            probe.map_addrs(&mut |a| {
                if a == FAIL_SENTINEL {
                    bad = true;
                }
                a
            });
            assert!(!bad, "instruction still holds FAIL_SENTINEL: {i:?}");
        }
    }

    #[test]
    fn parallel_program_with_cge_loads_and_resolves_pcall_targets() {
        let (cp, _) = compile(
            "f(X,Y,R1,R2) :- (ground(X), ground(Y) | g(X,R1) & h(Y,R2)).\n\
             g(X, X).\nh(Y, Y).",
            "f(1,2,A,B)",
            CompileOptions::parallel(),
        );
        let pcalls: Vec<_> = cp.code.iter().filter(|i| matches!(i, Instr::PcallGoal { .. })).collect();
        // The rightmost branch is scheduled as a Goal Frame; the leftmost
        // runs inline on the parent (last-goal-inline optimisation).
        assert_eq!(pcalls.len(), 1);
        for i in pcalls {
            if let Instr::PcallGoal { target, .. } = i {
                assert!(matches!(target, CallTarget::Code(_)));
            }
        }
    }

    #[test]
    fn query_variables_are_ordered_by_slot() {
        let (cp, _) = compile("t(1,2,3).", "t(A,B,C)", CompileOptions::default());
        let slots: Vec<u16> = cp.query_vars.iter().map(|(_, s)| *s).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted);
        assert_eq!(cp.query_vars.len(), 3);
    }

    #[test]
    fn predicate_containing_maps_addresses_back() {
        let (cp, syms) = compile("a(1).\nb(2).", "a(X), b(Y)", CompileOptions::default());
        let a = syms.lookup("a").unwrap();
        let b = syms.lookup("b").unwrap();
        let ea = cp.entry(a, 1).unwrap();
        let eb = cp.entry(b, 1).unwrap();
        assert_eq!(cp.predicate_containing(ea), Some((a, 1)));
        assert_eq!(cp.predicate_containing(eb), Some((b, 1)));
    }

    #[test]
    fn integers_outside_the_word_range_are_compile_errors() {
        use pwam_front::clause::Goal;
        use pwam_front::{INT_MAX, INT_MIN};
        let mut syms = SymbolTable::new();
        let p = syms.intern("p");
        let q = syms.intern("q");
        let call = |f, n| Body { goals: vec![Goal::Call(Term::Struct(f, vec![Term::Int(n)]))] };
        // Built by hand: the parser rejects such literals, a `Program` does not.
        let mut program = parse_program("q(_).", &mut syms).unwrap();
        program.push(
            Clause { head: Term::Struct(p, vec![Term::Int(INT_MAX + 1)]), body: Body::default() },
            &syms,
        );
        let err = compile_program_and_query(&program, &call(q, 1), &mut syms, CompileOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains(&(INT_MAX + 1).to_string()), "{err}");
        let program = parse_program("q(_).", &mut syms).unwrap();
        for n in [INT_MIN - 1, i64::MAX, i64::MIN] {
            assert!(compile_program_and_query(&program, &call(q, n), &mut syms, CompileOptions::default())
                .is_err());
        }
        for n in [INT_MIN, INT_MAX] {
            assert!(compile_program_and_query(&program, &call(q, n), &mut syms, CompileOptions::default())
                .is_ok());
        }
    }
}
