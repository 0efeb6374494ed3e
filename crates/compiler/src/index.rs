//! Per-predicate clause selection: first-argument indexing and try/retry/trust
//! chains.
//!
//! The generated layout for a predicate with more than one clause is
//!
//! ```text
//! entry:  switch_on_term  Lvar, Lcon, Llis, Lstr
//! Lvar:   try   C1 ; retry C2 ; ... ; trust Cm       (all clauses)
//! Lcon:   switch_on_constant {k1 -> ..., ...} default Ldef
//! ...                                                  (value chains)
//! C1:     <clause 1 code>
//! C2:     <clause 2 code>
//! ```
//!
//! mirroring the WAM's two-level indexing scheme.  Choice points are only
//! created by the try/retry/trust drivers, never inside clause code.

use crate::codegen::{compile_clause, ChunkBuilder, CompileOptions};
use crate::error::{CompileError, CompileResult};
use crate::instr::{CodeAddr, ConstKey, Instr, FAIL_SENTINEL};
use pwam_front::clause::Clause;
use pwam_front::Atom;
use pwam_front::SymbolTable;
use pwam_front::Term;

/// Shape of a clause's first head argument, used to build dispatch tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FirstArg {
    Variable,
    Constant(ConstKey),
    List,
    Structure(Atom, u8),
    /// The predicate has arity 0 (no first argument to index on).
    None,
}

fn first_arg_kind(clause: &Clause, syms: &SymbolTable) -> FirstArg {
    let wk = syms.well_known();
    match &clause.head {
        Term::Atom(_) => FirstArg::None,
        Term::Struct(_, args) => match &args[0] {
            Term::Var(_) => FirstArg::Variable,
            Term::Int(i) => FirstArg::Constant(ConstKey::Int(*i)),
            Term::Atom(a) => FirstArg::Constant(ConstKey::Atom(*a)),
            Term::Struct(f, sub) if *f == wk.dot && sub.len() == 2 => FirstArg::List,
            Term::Struct(f, sub) => FirstArg::Structure(*f, sub.len() as u8),
        },
        _ => FirstArg::None,
    }
}

/// A planned dispatch target, resolved to a code address after layout.
#[derive(Debug, Clone, Copy)]
enum Target {
    Clause(usize),
    Block(usize),
    Fail,
}

#[derive(Debug, Clone)]
enum Block {
    SwitchTerm { var: Target, con: Target, lis: Target, stru: Target },
    SwitchConst { table: Vec<(ConstKey, Target)>, default: Target },
    SwitchStruct { table: Vec<((Atom, u8), Target)>, default: Target },
    Chain(Vec<usize>),
}

impl Block {
    fn len(&self) -> usize {
        match self {
            Block::Chain(c) => c.len(),
            _ => 1,
        }
    }
}

/// Compile a whole predicate (all its clauses) into one chunk whose entry
/// point is offset 0.
pub(crate) fn compile_predicate(
    clauses: &[&Clause],
    syms: &SymbolTable,
    opts: CompileOptions,
) -> CompileResult<ChunkBuilder> {
    if clauses.is_empty() {
        return Err(CompileError::new("cannot compile a predicate with no clauses"));
    }

    // Compile every clause into its own chunk first.
    let mut clause_chunks: Vec<ChunkBuilder> = Vec::with_capacity(clauses.len());
    for c in clauses {
        let mut chunk = ChunkBuilder::new();
        compile_clause(c, syms, opts, false, &mut chunk)?;
        clause_chunks.push(chunk);
    }

    if clauses.len() == 1 {
        return Ok(clause_chunks.pop().unwrap());
    }

    let kinds: Vec<FirstArg> = clauses.iter().map(|c| first_arg_kind(c, syms)).collect();
    let indexable = !kinds.iter().any(|k| matches!(k, FirstArg::None));

    let mut blocks: Vec<Block> = Vec::new();

    if !indexable {
        // Simple try/retry/trust chain over all clauses.
        blocks.push(Block::Chain((0..clauses.len()).collect()));
    } else {
        // Block 0 is the switch_on_term; fill its targets below.
        blocks.push(Block::SwitchTerm {
            var: Target::Fail,
            con: Target::Fail,
            lis: Target::Fail,
            stru: Target::Fail,
        });

        let all: Vec<usize> = (0..clauses.len()).collect();
        let var_only: Vec<usize> =
            all.iter().copied().filter(|&i| matches!(kinds[i], FirstArg::Variable)).collect();

        let make_target = |cands: Vec<usize>, blocks: &mut Vec<Block>| -> Target {
            match cands.len() {
                0 => Target::Fail,
                1 => Target::Clause(cands[0]),
                _ => {
                    blocks.push(Block::Chain(cands));
                    Target::Block(blocks.len() - 1)
                }
            }
        };

        // var entry: all clauses in order.
        let var_target = make_target(all.clone(), &mut blocks);

        // constants
        let mut const_keys: Vec<ConstKey> = Vec::new();
        for k in &kinds {
            if let FirstArg::Constant(c) = k {
                if !const_keys.contains(c) {
                    const_keys.push(*c);
                }
            }
        }
        let con_target = if const_keys.is_empty() {
            make_target(var_only.clone(), &mut blocks)
        } else {
            let mut table = Vec::new();
            for key in const_keys {
                let cands: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| {
                        matches!(kinds[i], FirstArg::Variable) || kinds[i] == FirstArg::Constant(key)
                    })
                    .collect();
                table.push((key, make_target(cands, &mut blocks)));
            }
            let default = make_target(var_only.clone(), &mut blocks);
            blocks.push(Block::SwitchConst { table, default });
            Target::Block(blocks.len() - 1)
        };

        // lists
        let list_cands: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| matches!(kinds[i], FirstArg::Variable | FirstArg::List))
            .collect();
        let lis_target = make_target(list_cands, &mut blocks);

        // structures
        let mut struct_keys: Vec<(Atom, u8)> = Vec::new();
        for k in &kinds {
            if let FirstArg::Structure(f, n) = k {
                if !struct_keys.contains(&(*f, *n)) {
                    struct_keys.push((*f, *n));
                }
            }
        }
        let stru_target = if struct_keys.is_empty() {
            make_target(var_only.clone(), &mut blocks)
        } else {
            let mut table = Vec::new();
            for key in struct_keys {
                let cands: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| {
                        matches!(kinds[i], FirstArg::Variable)
                            || kinds[i] == FirstArg::Structure(key.0, key.1)
                    })
                    .collect();
                table.push((key, make_target(cands, &mut blocks)));
            }
            let default = make_target(var_only.clone(), &mut blocks);
            blocks.push(Block::SwitchStruct { table, default });
            Target::Block(blocks.len() - 1)
        };

        blocks[0] =
            Block::SwitchTerm { var: var_target, con: con_target, lis: lis_target, stru: stru_target };
    }

    // ----- layout -----
    let mut block_offsets = Vec::with_capacity(blocks.len());
    let mut off = 0usize;
    for b in &blocks {
        block_offsets.push(off as CodeAddr);
        off += b.len();
    }
    let mut clause_offsets = Vec::with_capacity(clause_chunks.len());
    for c in &clause_chunks {
        clause_offsets.push(off as CodeAddr);
        off += c.code.len();
    }

    let resolve = |t: Target| -> CodeAddr {
        match t {
            Target::Fail => FAIL_SENTINEL,
            Target::Clause(i) => clause_offsets[i],
            Target::Block(i) => block_offsets[i],
        }
    };

    // ----- emission -----
    let mut out = ChunkBuilder::new();
    for b in &blocks {
        match b {
            Block::SwitchTerm { var, con, lis, stru } => {
                out.emit(Instr::SwitchOnTerm {
                    var: resolve(*var),
                    con: resolve(*con),
                    lis: resolve(*lis),
                    stru: resolve(*stru),
                });
            }
            Block::SwitchConst { table, default } => {
                out.emit(Instr::SwitchOnConstant {
                    table: table.iter().map(|(k, t)| (*k, resolve(*t))).collect(),
                    default: resolve(*default),
                });
            }
            Block::SwitchStruct { table, default } => {
                out.emit(Instr::SwitchOnStructure {
                    table: table.iter().map(|(k, t)| (*k, resolve(*t))).collect(),
                    default: resolve(*default),
                });
            }
            Block::Chain(cands) => {
                let last = cands.len() - 1;
                for (j, &ci) in cands.iter().enumerate() {
                    let addr = clause_offsets[ci];
                    let instr = if j == 0 {
                        Instr::Try { addr }
                    } else if j == last {
                        Instr::Trust { addr }
                    } else {
                        Instr::Retry { addr }
                    };
                    out.emit(instr);
                }
            }
        }
    }
    for (chunk, &base) in clause_chunks.iter().zip(&clause_offsets) {
        for instr in &chunk.code {
            let mut i = instr.clone();
            i.relocate(base);
            out.emit(i);
        }
    }
    debug_assert_eq!(out.code.len(), off);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwam_front::parse_program;

    fn compile_pred(src: &str, name: &str, arity: usize) -> (Vec<Instr>, SymbolTable) {
        let mut syms = SymbolTable::new();
        let p = parse_program(src, &mut syms).unwrap();
        let mut lifter = crate::lift::Lifter::new();
        let p = lifter.lift_program(&p, &mut syms);
        let atom = syms.intern(name);
        let clauses = p.clauses_for(atom, arity);
        let chunk = compile_predicate(&clauses, &syms, CompileOptions::default()).unwrap();
        (chunk.code, syms)
    }

    fn count_matching(code: &[Instr], f: impl Fn(&Instr) -> bool) -> usize {
        code.iter().filter(|i| f(i)).count()
    }

    #[test]
    fn single_clause_predicate_has_no_choice_instructions() {
        let (code, _) = compile_pred("p(a).", "p", 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Try { .. } | Instr::SwitchOnTerm { .. })), 0);
    }

    #[test]
    fn two_clause_list_predicate_gets_switch_and_chain() {
        let (code, _) = compile_pred("app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).", "app", 3);
        assert!(matches!(code[0], Instr::SwitchOnTerm { .. }));
        // var chain over both clauses
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Try { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Trust { .. })), 1);
        // list dispatch should go straight to clause 2, constants to clause 1
        if let Instr::SwitchOnTerm { lis, con, .. } = &code[0] {
            assert_ne!(*lis, FAIL_SENTINEL);
            assert_ne!(*con, FAIL_SENTINEL);
        }
    }

    #[test]
    fn constant_dispatch_builds_a_table() {
        let (code, _) = compile_pred("color(red).\ncolor(green).\ncolor(blue).", "color", 1);
        let tables = count_matching(&code, |i| matches!(i, Instr::SwitchOnConstant { .. }));
        assert_eq!(tables, 1);
        if let Some(Instr::SwitchOnConstant { table, default }) =
            code.iter().find(|i| matches!(i, Instr::SwitchOnConstant { .. }))
        {
            assert_eq!(table.len(), 3);
            assert_eq!(*default, FAIL_SENTINEL);
        }
    }

    #[test]
    fn structure_dispatch_discriminates_functors() {
        let src = "d(x, 1).\nd(plus(A,B), s(A,B)).\nd(times(A,B), t(A,B)).";
        let (code, _) = compile_pred(src, "d", 2);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::SwitchOnStructure { .. })), 1);
        if let Some(Instr::SwitchOnStructure { table, default }) =
            code.iter().find(|i| matches!(i, Instr::SwitchOnStructure { .. }))
        {
            assert_eq!(table.len(), 2);
            assert_eq!(*default, FAIL_SENTINEL);
        }
    }

    #[test]
    fn variable_first_arg_clause_appears_in_every_category() {
        let src = "m(0, zero).\nm(X, other) :- integer(X).";
        let (code, _) = compile_pred(src, "m", 2);
        // The default of switch_on_constant must not be FAIL because the
        // second clause has a variable first argument.
        if let Some(Instr::SwitchOnConstant { default, .. }) =
            code.iter().find(|i| matches!(i, Instr::SwitchOnConstant { .. }))
        {
            assert_ne!(*default, FAIL_SENTINEL);
        } else {
            panic!("expected a constant switch");
        }
    }

    #[test]
    fn arity_zero_predicates_use_a_plain_chain() {
        let (code, _) = compile_pred("p :- a.\np :- b.", "p", 0);
        assert!(matches!(code[0], Instr::Try { .. }));
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::SwitchOnTerm { .. })), 0);
    }

    #[test]
    fn three_clause_chain_has_try_retry_trust() {
        let (code, _) = compile_pred("f(a).\nf(b).\nf(c).", "f", 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Try { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Retry { .. })), 1);
        assert_eq!(count_matching(&code, |i| matches!(i, Instr::Trust { .. })), 1);
    }
}
