//! The WAM / RAP-WAM instruction set.
//!
//! The sequential subset follows Warren's abstract machine (put/get/unify
//! instruction families, environment and choice-point control, clause
//! indexing).  The parallel extensions are the ones the ICPP'88 paper
//! describes: run-time independence checks (`check_ground`, `check_indep`),
//! Parcall-Frame allocation, Goal-Frame pushing onto the Goal Stack, and the
//! wait/scheduling point (`pcall_wait`).
//!
//! Code addresses inside a compiled predicate chunk are *chunk-relative*
//! until the loader relocates them (see [`Instr::relocate`] and
//! `crate::loader`).

use pwam_front::Atom;
use serde::{Deserialize, Serialize};

/// Absolute (after loading) or chunk-relative (before loading) code address.
pub type CodeAddr = u32;

/// A WAM register operand: argument/temporary (`X`) or permanent (`Y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Reg {
    /// Argument / temporary register `Xn` (1-based, as in the WAM papers).
    X(u16),
    /// Permanent variable `Yn` in the current environment (1-based).
    Y(u16),
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reg::X(n) => write!(f, "X{n}"),
            Reg::Y(n) => write!(f, "Y{n}"),
        }
    }
}

/// Key for `switch_on_constant` dispatch tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstKey {
    Atom(Atom),
    Int(i64),
}

/// A reference to a predicate, resolved by the loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredRef {
    pub(crate) name: Atom,
    pub(crate) arity: u8,
}

/// The target of a `call`/`execute`/`pcall_goal`, after loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallTarget {
    /// Not yet resolved (compiler output, before loading).
    Unresolved(PredRef),
    /// Entry point of a user-defined predicate in the code area.
    Code(CodeAddr),
    /// An escape to a built-in predicate.
    Builtin(Builtin),
    /// A host predicate registered on the session: the index into the
    /// compiled program's host registry ([`crate::CompiledProgram::hosts`]).
    /// The engine calls the session's closure for it on the executing PE.
    Host(u32),
}

/// Built-in (escape) predicates.  They operate on the argument registers
/// `A1..An` like ordinary calls but are executed inline by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Builtin {
    /// `true/0`
    True,
    /// `fail/0`
    Fail,
    /// `is/2` — arithmetic evaluation: unify A1 with eval(A2).
    Is,
    /// `=:=/2`
    ArithEq,
    /// `=\=/2`
    ArithNeq,
    /// `</2`
    Lt,
    /// `=</2`
    Le,
    /// `>/2`
    Gt,
    /// `>=/2`
    Ge,
    /// `=/2` — full unification.
    Unify,
    /// `==/2` — structural equality without binding.
    StructEq,
    /// `\==/2`
    StructNeq,
    /// `ground/1`
    Ground,
    /// `var/1`
    Var,
    /// `nonvar/1`
    NonVar,
    /// `integer/1`
    Integer,
    /// `atom/1`
    AtomP,
    /// `atomic/1`
    Atomic,
    /// `indep/2` — run-time independence check (also usable as a goal).
    Indep,
    /// `halt/0` — stop the query successfully (used by the query stub).
    Halt,
}

impl Builtin {
    /// Map a predicate name/arity onto a builtin, if it is one.
    pub(crate) fn lookup(name: &str, arity: usize) -> Option<Builtin> {
        Some(match (name, arity) {
            ("true", 0) => Builtin::True,
            ("fail", 0) | ("false", 0) => Builtin::Fail,
            ("is", 2) => Builtin::Is,
            ("=:=", 2) => Builtin::ArithEq,
            ("=\\=", 2) => Builtin::ArithNeq,
            ("<", 2) => Builtin::Lt,
            ("=<", 2) => Builtin::Le,
            (">", 2) => Builtin::Gt,
            (">=", 2) => Builtin::Ge,
            ("=", 2) => Builtin::Unify,
            ("==", 2) => Builtin::StructEq,
            ("\\==", 2) => Builtin::StructNeq,
            ("ground", 1) => Builtin::Ground,
            ("var", 1) => Builtin::Var,
            ("nonvar", 1) => Builtin::NonVar,
            ("integer", 1) => Builtin::Integer,
            ("atom", 1) => Builtin::AtomP,
            ("atomic", 1) => Builtin::Atomic,
            ("indep", 2) => Builtin::Indep,
            ("halt", 0) => Builtin::Halt,
            _ => return None,
        })
    }
}

/// A single abstract-machine instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    // ----- put instructions (build a goal argument in register A_i) -----
    PutVariable {
        v: Reg,
        a: u16,
    },
    PutValue {
        v: Reg,
        a: u16,
    },
    PutUnsafeValue {
        y: u16,
        a: u16,
    },
    PutConstant {
        c: Atom,
        a: u16,
    },
    PutInteger {
        i: i64,
        a: u16,
    },
    PutNil {
        a: u16,
    },
    PutStructure {
        f: Atom,
        n: u8,
        a: u16,
    },
    PutList {
        a: u16,
    },

    // ----- get instructions (head argument unification) -----
    GetVariable {
        v: Reg,
        a: u16,
    },
    GetValue {
        v: Reg,
        a: u16,
    },
    GetConstant {
        c: Atom,
        a: u16,
    },
    GetInteger {
        i: i64,
        a: u16,
    },
    GetNil {
        a: u16,
    },
    GetStructure {
        f: Atom,
        n: u8,
        a: u16,
    },
    GetList {
        a: u16,
    },

    // ----- unify instructions (structure arguments, read/write mode) -----
    UnifyVariable {
        v: Reg,
    },
    UnifyValue {
        v: Reg,
    },
    UnifyLocalValue {
        v: Reg,
    },
    UnifyConstant {
        c: Atom,
    },
    UnifyInteger {
        i: i64,
    },
    UnifyNil,
    UnifyVoid {
        n: u8,
    },

    // ----- control -----
    Allocate {
        n: u16,
    },
    Deallocate,
    Call {
        target: CallTarget,
        arity: u8,
    },
    Execute {
        target: CallTarget,
        arity: u8,
    },
    Proceed,

    // ----- choice points & indexing -----
    TryMeElse {
        else_: CodeAddr,
    },
    RetryMeElse {
        else_: CodeAddr,
    },
    TrustMe,
    Try {
        addr: CodeAddr,
    },
    Retry {
        addr: CodeAddr,
    },
    Trust {
        addr: CodeAddr,
    },
    SwitchOnTerm {
        var: CodeAddr,
        con: CodeAddr,
        lis: CodeAddr,
        stru: CodeAddr,
    },
    SwitchOnConstant {
        table: Vec<(ConstKey, CodeAddr)>,
        default: CodeAddr,
    },
    SwitchOnStructure {
        table: Vec<((Atom, u8), CodeAddr)>,
        default: CodeAddr,
    },

    // ----- cut -----
    NeckCut,
    GetLevel {
        y: u16,
    },
    CutTo {
        y: u16,
    },

    // ----- builtins -----
    CallBuiltin {
        b: Builtin,
    },

    // ----- RAP-WAM parallel extensions -----
    /// Run-time groundness check on the dereferenced value of `v`;
    /// jump to `else_` (the sequential fallback code) if it fails.
    CheckGround {
        v: Reg,
        else_: CodeAddr,
    },
    /// Run-time independence check between the values of `v1` and `v2`;
    /// jump to `else_` if they share an unbound variable.
    CheckIndep {
        v1: Reg,
        v2: Reg,
        else_: CodeAddr,
    },
    /// Allocate a Parcall Frame with `n` goal slots on the local stack.
    PcallAlloc {
        n: u8,
    },
    /// Push a Goal Frame for `target` (arity `arity`, parcall slot `slot`)
    /// onto the worker's Goal Stack; arguments are taken from `A1..Aarity`.
    PcallGoal {
        target: CallTarget,
        arity: u8,
        slot: u8,
    },
    /// Scheduling/wait point: execute or steal goals until every slot of the
    /// current Parcall Frame has completed, then fall through.
    PcallWait,
    /// Internal stub executed when a parallel goal's continuation returns:
    /// records completion in the Parcall Frame and re-enters the scheduler.
    GoalSuccess,

    // ----- misc -----
    /// Unconditional jump (used to skip fallback code blocks).
    Jump {
        addr: CodeAddr,
    },
    /// Explicit failure (backtrack).
    FailInstr,
    /// Successful end of the query.
    Halt,
    /// No operation (alignment / patched-out slots).
    NoOp,
}

impl Instr {
    /// Apply `f` to every chunk-relative code address operand.  Used by the
    /// loader to relocate a predicate chunk to its absolute base address.
    pub(crate) fn map_addrs(&mut self, f: &mut dyn FnMut(CodeAddr) -> CodeAddr) {
        match self {
            Instr::TryMeElse { else_ } | Instr::RetryMeElse { else_ } => *else_ = f(*else_),
            Instr::Try { addr } | Instr::Retry { addr } | Instr::Trust { addr } | Instr::Jump { addr } => {
                *addr = f(*addr)
            }
            Instr::SwitchOnTerm { var, con, lis, stru } => {
                *var = f(*var);
                *con = f(*con);
                *lis = f(*lis);
                *stru = f(*stru);
            }
            Instr::SwitchOnConstant { table, default } => {
                for (_, a) in table.iter_mut() {
                    *a = f(*a);
                }
                *default = f(*default);
            }
            Instr::SwitchOnStructure { table, default } => {
                for (_, a) in table.iter_mut() {
                    *a = f(*a);
                }
                *default = f(*default);
            }
            Instr::CheckGround { else_, .. } => *else_ = f(*else_),
            Instr::CheckIndep { else_, .. } => *else_ = f(*else_),
            _ => {}
        }
    }

    /// Relocate chunk-relative addresses by adding `base`.
    pub(crate) fn relocate(&mut self, base: CodeAddr) {
        self.map_addrs(&mut |a| {
            if a == FAIL_SENTINEL {
                a // the shared failure address is already absolute
            } else {
                a + base
            }
        });
    }

    /// Apply `f` to every unresolved predicate reference (call targets).
    pub(crate) fn map_targets(&mut self, f: &mut dyn FnMut(&CallTarget) -> CallTarget) {
        match self {
            Instr::Call { target, .. } | Instr::Execute { target, .. } | Instr::PcallGoal { target, .. } => {
                *target = f(target)
            }
            _ => {}
        }
    }
}

/// Sentinel used as a "branch to failure" address before loading; the loader
/// replaces it with the address of a shared `FailInstr` stub.
pub(crate) const FAIL_SENTINEL: CodeAddr = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup() {
        assert_eq!(Builtin::lookup("is", 2), Some(Builtin::Is));
        assert_eq!(Builtin::lookup("=<", 2), Some(Builtin::Le));
        assert_eq!(Builtin::lookup("is", 3), None);
        assert_eq!(Builtin::lookup("frobnicate", 2), None);
    }

    #[test]
    fn relocation_adds_base_but_keeps_fail_sentinel() {
        let mut i = Instr::TryMeElse { else_: 10 };
        i.relocate(100);
        assert_eq!(i, Instr::TryMeElse { else_: 110 });

        let mut j = Instr::SwitchOnTerm { var: 0, con: 1, lis: FAIL_SENTINEL, stru: 3 };
        j.relocate(50);
        assert_eq!(j, Instr::SwitchOnTerm { var: 50, con: 51, lis: FAIL_SENTINEL, stru: 53 });
    }

    #[test]
    fn map_targets_visits_calls() {
        let pr = PredRef { name: Atom(3), arity: 2 };
        let mut i = Instr::Call { target: CallTarget::Unresolved(pr), arity: 2 };
        i.map_targets(&mut |_| CallTarget::Code(7));
        assert_eq!(i, Instr::Call { target: CallTarget::Code(7), arity: 2 });
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg::X(3).to_string(), "X3");
        assert_eq!(Reg::Y(1).to_string(), "Y1");
    }
}
