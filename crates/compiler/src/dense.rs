//! Pre-decoded instruction stream: the executor's fetch representation.
//!
//! [`crate::instr::Instr`] is the compiler's working representation — an
//! enum whose variants carry their natural operand types, including heap
//! allocations (switch tables).  That shape is right for code generation
//! and linking but wrong for the dispatch loop: fetching one instruction
//! means indexing a large non-`Copy` enum, and each operand access
//! re-discriminates the variant.
//!
//! The loader therefore pre-decodes the linked code area into a dense
//! stream of fixed-width 12-byte [`DenseInstr`] words, one per `Instr`, in
//! the same order — **index `i` of [`DenseCode::code`] is instruction
//! address `i`**, so every `CodeAddr` in the program (entry points, saved
//! continuation pointers, choice-point alternatives, the fail and
//! goal-success stubs) is valid in both representations and nothing in the
//! engine needs address translation.  Variable-width operands (big
//! integers, switch tables, the four-way `switch_on_term` targets) move
//! into side pools indexed by the instruction's `u32` fields.
//!
//! Register operands are packed into 16 bits with the high bit
//! distinguishing permanent (`Y`) from argument (`X`) registers — see
//! [`encode_reg`] / [`decode_reg`].
//!
//! Operand packing per opcode (unlisted fields are zero):
//!
//! | op | `a: u8` | `b: u16` | `c: u32` | `d: u32` |
//! |---|---|---|---|---|
//! | `PutVariable`/`PutValue`/`GetVariable`/`GetValue` | | reg `v` | arg `a` | |
//! | `PutUnsafeValue` | | `y` | arg `a` | |
//! | `PutConstant`/`GetConstant` | | arg `a` | atom | |
//! | `PutInteger`/`GetInteger` | | arg `a` | int-pool index | |
//! | `PutNil`/`GetNil`/`PutList`/`GetList` | | arg `a` | | |
//! | `PutStructure`/`GetStructure` | `n` | arg `a` | functor atom | |
//! | `UnifyVariable`/`UnifyValue` | | reg `v` | | |
//! | `UnifyConstant` | | | atom | |
//! | `UnifyInteger` | | | int-pool index | |
//! | `UnifyVoid` | `n` | | | |
//! | `Allocate` | | `n` | | |
//! | `CallCode`/`ExecuteCode` | arity | | entry addr | |
//! | `CallBuiltin`/`ExecuteBuiltin` | | | builtin-pool index | |
//! | `CallHost`/`ExecuteHost` | arity | | host-registry index | |
//! | `TryMeElse`/`RetryMeElse`/`Try`/`Retry`/`Trust`/`Jump` | | | code addr | |
//! | `SwitchOnTerm` | | | quad-pool index | |
//! | `SwitchOnConstant`/`SwitchOnStructure` | | | table-pool index | default addr |
//! | `GetLevel`/`CutTo` | | `y` | | |
//! | `CheckGround` | | reg `v` | else addr | |
//! | `CheckIndep` | | reg `v1` | reg `v2` | else addr |
//! | `PcallAlloc` | `n` | | | |
//! | `PcallGoal` | arity | slot | entry addr | |

use crate::instr::{Builtin, CallTarget, CodeAddr, ConstKey, Instr, Reg};
use pwam_front::Atom;

/// Opcode of a pre-decoded instruction.
///
/// Mostly 1:1 with [`Instr`], with the differences that make dispatch flat:
/// call/execute split per resolved target kind (so the hot code-call path
/// carries no `CallTarget` discrimination), `Instr::Call`-of-a-builtin and
/// `Instr::CallBuiltin` collapse into one opcode (their semantics are
/// identical), and `UnifyLocalValue` collapses into `UnifyValue` (the
/// executor treats them the same).  Ill-formed operands that are reported
/// at run time (`Unresolved` targets, builtin `pcall_goal` targets) keep
/// dedicated opcodes that raise `BadInstruction` with the offending address.
/// `NeckCut` executes for real: it commits to the clause by cutting the
/// choice-point stack back to the level captured at call time (`wk.b0`),
/// with a regression test pinning its answers and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DenseOp {
    PutVariable,
    PutValue,
    PutUnsafeValue,
    PutConstant,
    PutInteger,
    PutNil,
    PutStructure,
    PutList,
    GetVariable,
    GetValue,
    GetConstant,
    GetInteger,
    GetNil,
    GetStructure,
    GetList,
    UnifyVariable,
    UnifyValue,
    UnifyConstant,
    UnifyInteger,
    UnifyNil,
    UnifyVoid,
    Allocate,
    Deallocate,
    CallCode,
    CallBuiltin,
    CallHost,
    CallUnresolved,
    ExecuteCode,
    ExecuteBuiltin,
    ExecuteHost,
    ExecuteUnresolved,
    Proceed,
    TryMeElse,
    RetryMeElse,
    TrustMe,
    Try,
    Retry,
    Trust,
    SwitchOnTerm,
    SwitchOnConstant,
    SwitchOnStructure,
    NeckCut,
    GetLevel,
    CutTo,
    CheckGround,
    CheckIndep,
    PcallAlloc,
    PcallGoal,
    PcallGoalBad,
    PcallWait,
    GoalSuccess,
    Jump,
    FailInstr,
    Halt,
    NoOp,
}

/// High bit of a packed register operand: set for `Y`, clear for `X`.
pub(crate) const Y_FLAG: u16 = 0x8000;

/// Pack a register operand into 16 bits.
#[inline(always)]
pub(crate) fn encode_reg(r: Reg) -> u16 {
    match r {
        Reg::X(n) => {
            debug_assert!(n < Y_FLAG, "X register index overflows the dense encoding");
            n
        }
        Reg::Y(n) => {
            debug_assert!(n < Y_FLAG, "Y register index overflows the dense encoding");
            n | Y_FLAG
        }
    }
}

/// Unpack a 16-bit register operand.
#[inline(always)]
pub fn decode_reg(enc: u16) -> Reg {
    if enc & Y_FLAG != 0 {
        Reg::Y(enc & !Y_FLAG)
    } else {
        Reg::X(enc)
    }
}

/// One pre-decoded instruction: opcode plus three fixed operand fields.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct DenseInstr {
    pub op: DenseOp,
    pub a: u8,
    pub b: u16,
    pub c: u32,
    pub d: u32,
}

// The whole point of the dense stream is a small, fixed, power-of-two-ish
// fetch granule; catch accidental growth at compile time.
const _: () = assert!(std::mem::size_of::<DenseInstr>() == 12);

impl DenseInstr {
    fn op(op: DenseOp) -> Self {
        DenseInstr { op, a: 0, b: 0, c: 0, d: 0 }
    }
}

/// The pre-decoded code area: the dense stream plus its operand pools.
#[derive(Debug, Clone, Default)]
pub struct DenseCode {
    /// One [`DenseInstr`] per [`Instr`], at the same index.
    pub code: Vec<DenseInstr>,
    /// Integer operands of `put_integer` / `get_integer` / `unify_integer`.
    pub ints: Vec<i64>,
    /// Builtin operands of `CallBuiltin` / `ExecuteBuiltin`.
    pub builtins: Vec<Builtin>,
    /// The four targets of each `switch_on_term`: `[var, con, lis, stru]`.
    pub term_quads: Vec<[CodeAddr; 4]>,
    /// `switch_on_constant` dispatch tables.
    pub const_tables: Vec<Vec<(ConstKey, CodeAddr)>>,
    /// `switch_on_structure` dispatch tables.
    pub struct_tables: Vec<Vec<((Atom, u8), CodeAddr)>>,
}

impl DenseCode {
    /// Pre-decode a linked code area.  Call targets must already be
    /// resolved; `Unresolved` targets are encoded as error opcodes that
    /// raise the run-time diagnostic.
    pub fn build(code: &[Instr]) -> DenseCode {
        assert!(code.len() <= u32::MAX as usize, "code area exceeds the dense address space");
        let mut d = DenseCode::default();
        d.code.reserve_exact(code.len());
        for instr in code {
            let di = d.decode_one(instr);
            d.code.push(di);
        }
        d
    }

    fn int(&mut self, i: i64) -> u32 {
        // Integer literals repeat heavily (0, 1, small constants); dedup
        // keeps the pool cache-resident.
        if let Some(pos) = self.ints.iter().position(|&v| v == i) {
            return pos as u32;
        }
        self.ints.push(i);
        (self.ints.len() - 1) as u32
    }

    fn builtin(&mut self, b: Builtin) -> u32 {
        if let Some(pos) = self.builtins.iter().position(|&v| v == b) {
            return pos as u32;
        }
        self.builtins.push(b);
        (self.builtins.len() - 1) as u32
    }

    fn decode_one(&mut self, instr: &Instr) -> DenseInstr {
        use DenseOp as O;
        match instr {
            Instr::PutVariable { v, a } => {
                DenseInstr { b: encode_reg(*v), c: *a as u32, ..DenseInstr::op(O::PutVariable) }
            }
            Instr::PutValue { v, a } => {
                DenseInstr { b: encode_reg(*v), c: *a as u32, ..DenseInstr::op(O::PutValue) }
            }
            Instr::PutUnsafeValue { y, a } => {
                DenseInstr { b: *y, c: *a as u32, ..DenseInstr::op(O::PutUnsafeValue) }
            }
            Instr::PutConstant { c, a } => DenseInstr { b: *a, c: c.0, ..DenseInstr::op(O::PutConstant) },
            Instr::PutInteger { i, a } => {
                DenseInstr { b: *a, c: self.int(*i), ..DenseInstr::op(O::PutInteger) }
            }
            Instr::PutNil { a } => DenseInstr { b: *a, ..DenseInstr::op(O::PutNil) },
            Instr::PutStructure { f, n, a } => {
                DenseInstr { a: *n, b: *a, c: f.0, ..DenseInstr::op(O::PutStructure) }
            }
            Instr::PutList { a } => DenseInstr { b: *a, ..DenseInstr::op(O::PutList) },
            Instr::GetVariable { v, a } => {
                DenseInstr { b: encode_reg(*v), c: *a as u32, ..DenseInstr::op(O::GetVariable) }
            }
            Instr::GetValue { v, a } => {
                DenseInstr { b: encode_reg(*v), c: *a as u32, ..DenseInstr::op(O::GetValue) }
            }
            Instr::GetConstant { c, a } => DenseInstr { b: *a, c: c.0, ..DenseInstr::op(O::GetConstant) },
            Instr::GetInteger { i, a } => {
                DenseInstr { b: *a, c: self.int(*i), ..DenseInstr::op(O::GetInteger) }
            }
            Instr::GetNil { a } => DenseInstr { b: *a, ..DenseInstr::op(O::GetNil) },
            Instr::GetStructure { f, n, a } => {
                DenseInstr { a: *n, b: *a, c: f.0, ..DenseInstr::op(O::GetStructure) }
            }
            Instr::GetList { a } => DenseInstr { b: *a, ..DenseInstr::op(O::GetList) },
            Instr::UnifyVariable { v } => {
                DenseInstr { b: encode_reg(*v), ..DenseInstr::op(O::UnifyVariable) }
            }
            Instr::UnifyValue { v } | Instr::UnifyLocalValue { v } => {
                DenseInstr { b: encode_reg(*v), ..DenseInstr::op(O::UnifyValue) }
            }
            Instr::UnifyConstant { c } => DenseInstr { c: c.0, ..DenseInstr::op(O::UnifyConstant) },
            Instr::UnifyInteger { i } => DenseInstr { c: self.int(*i), ..DenseInstr::op(O::UnifyInteger) },
            Instr::UnifyNil => DenseInstr::op(O::UnifyNil),
            Instr::UnifyVoid { n } => DenseInstr { a: *n, ..DenseInstr::op(O::UnifyVoid) },
            Instr::Allocate { n } => DenseInstr { b: *n, ..DenseInstr::op(O::Allocate) },
            Instr::Deallocate => DenseInstr::op(O::Deallocate),
            Instr::Call { target, arity } => match target {
                CallTarget::Code(addr) => DenseInstr { a: *arity, c: *addr, ..DenseInstr::op(O::CallCode) },
                CallTarget::Builtin(b) => {
                    DenseInstr { c: self.builtin(*b), ..DenseInstr::op(O::CallBuiltin) }
                }
                CallTarget::Host(h) => DenseInstr { a: *arity, c: *h, ..DenseInstr::op(O::CallHost) },
                CallTarget::Unresolved(_) => DenseInstr::op(O::CallUnresolved),
            },
            Instr::Execute { target, arity } => match target {
                CallTarget::Code(addr) => {
                    DenseInstr { a: *arity, c: *addr, ..DenseInstr::op(O::ExecuteCode) }
                }
                CallTarget::Builtin(b) => {
                    DenseInstr { c: self.builtin(*b), ..DenseInstr::op(O::ExecuteBuiltin) }
                }
                CallTarget::Host(h) => DenseInstr { a: *arity, c: *h, ..DenseInstr::op(O::ExecuteHost) },
                CallTarget::Unresolved(_) => DenseInstr::op(O::ExecuteUnresolved),
            },
            Instr::Proceed => DenseInstr::op(O::Proceed),
            Instr::CallBuiltin { b } => DenseInstr { c: self.builtin(*b), ..DenseInstr::op(O::CallBuiltin) },
            Instr::TryMeElse { else_ } => DenseInstr { c: *else_, ..DenseInstr::op(O::TryMeElse) },
            Instr::RetryMeElse { else_ } => DenseInstr { c: *else_, ..DenseInstr::op(O::RetryMeElse) },
            Instr::TrustMe => DenseInstr::op(O::TrustMe),
            Instr::Try { addr } => DenseInstr { c: *addr, ..DenseInstr::op(O::Try) },
            Instr::Retry { addr } => DenseInstr { c: *addr, ..DenseInstr::op(O::Retry) },
            Instr::Trust { addr } => DenseInstr { c: *addr, ..DenseInstr::op(O::Trust) },
            Instr::SwitchOnTerm { var, con, lis, stru } => {
                self.term_quads.push([*var, *con, *lis, *stru]);
                DenseInstr { c: (self.term_quads.len() - 1) as u32, ..DenseInstr::op(O::SwitchOnTerm) }
            }
            Instr::SwitchOnConstant { table, default } => {
                self.const_tables.push(table.clone());
                DenseInstr {
                    c: (self.const_tables.len() - 1) as u32,
                    d: *default,
                    ..DenseInstr::op(O::SwitchOnConstant)
                }
            }
            Instr::SwitchOnStructure { table, default } => {
                self.struct_tables.push(table.clone());
                DenseInstr {
                    c: (self.struct_tables.len() - 1) as u32,
                    d: *default,
                    ..DenseInstr::op(O::SwitchOnStructure)
                }
            }
            Instr::NeckCut => DenseInstr::op(O::NeckCut),
            Instr::GetLevel { y } => DenseInstr { b: *y, ..DenseInstr::op(O::GetLevel) },
            Instr::CutTo { y } => DenseInstr { b: *y, ..DenseInstr::op(O::CutTo) },
            Instr::CheckGround { v, else_ } => {
                DenseInstr { b: encode_reg(*v), c: *else_, ..DenseInstr::op(O::CheckGround) }
            }
            Instr::CheckIndep { v1, v2, else_ } => DenseInstr {
                b: encode_reg(*v1),
                c: encode_reg(*v2) as u32,
                d: *else_,
                ..DenseInstr::op(O::CheckIndep)
            },
            Instr::PcallAlloc { n } => DenseInstr { a: *n, ..DenseInstr::op(O::PcallAlloc) },
            Instr::PcallGoal { target, arity, slot } => match target {
                CallTarget::Code(addr) => {
                    DenseInstr { a: *arity, b: *slot as u16, c: *addr, ..DenseInstr::op(O::PcallGoal) }
                }
                _ => DenseInstr::op(O::PcallGoalBad),
            },
            Instr::PcallWait => DenseInstr::op(O::PcallWait),
            Instr::GoalSuccess => DenseInstr::op(O::GoalSuccess),
            Instr::Jump { addr } => DenseInstr { c: *addr, ..DenseInstr::op(O::Jump) },
            Instr::FailInstr => DenseInstr::op(O::FailInstr),
            Instr::Halt => DenseInstr::op(O::Halt),
            Instr::NoOp => DenseInstr::op(O::NoOp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::PredRef;

    #[test]
    fn dense_instr_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<DenseInstr>(), 12);
    }

    #[test]
    fn reg_encoding_round_trips() {
        for r in [Reg::X(0), Reg::X(1), Reg::X(255), Reg::Y(1), Reg::Y(0x7fff)] {
            assert_eq!(decode_reg(encode_reg(r)), r);
        }
    }

    #[test]
    fn build_preserves_addresses_one_to_one() {
        let code = vec![
            Instr::PutInteger { i: 42, a: 1 },
            Instr::PutInteger { i: 42, a: 2 },
            Instr::Call { target: CallTarget::Code(7), arity: 2 },
            Instr::Call { target: CallTarget::Builtin(Builtin::True), arity: 0 },
            Instr::CallBuiltin { b: Builtin::True },
            Instr::UnifyLocalValue { v: Reg::Y(3) },
            Instr::SwitchOnTerm { var: 1, con: 2, lis: 3, stru: 4 },
            Instr::Halt,
        ];
        let d = DenseCode::build(&code);
        assert_eq!(d.code.len(), code.len());
        assert_eq!(d.code[0].op, DenseOp::PutInteger);
        // Repeated literals share one pool slot.
        assert_eq!(d.code[0].c, d.code[1].c);
        assert_eq!(d.ints, vec![42]);
        assert_eq!(d.code[2].op, DenseOp::CallCode);
        assert_eq!((d.code[2].a, d.code[2].c), (2, 7));
        // Call-of-builtin and call_builtin share one opcode and pool slot.
        assert_eq!(d.code[3].op, DenseOp::CallBuiltin);
        assert_eq!(d.code[4].op, DenseOp::CallBuiltin);
        assert_eq!(d.code[3].c, d.code[4].c);
        assert_eq!(d.builtins, vec![Builtin::True]);
        assert_eq!(d.code[5].op, DenseOp::UnifyValue);
        assert_eq!(decode_reg(d.code[5].b), Reg::Y(3));
        assert_eq!(d.term_quads[d.code[6].c as usize], [1, 2, 3, 4]);
        assert_eq!(d.code[7].op, DenseOp::Halt);
    }

    #[test]
    fn unresolved_targets_become_error_opcodes() {
        let pr = PredRef { name: Atom(9), arity: 1 };
        let code = vec![
            Instr::Call { target: CallTarget::Unresolved(pr), arity: 1 },
            Instr::Execute { target: CallTarget::Unresolved(pr), arity: 1 },
            Instr::PcallGoal { target: CallTarget::Builtin(Builtin::True), arity: 0, slot: 0 },
        ];
        let d = DenseCode::build(&code);
        assert_eq!(d.code[0].op, DenseOp::CallUnresolved);
        assert_eq!(d.code[1].op, DenseOp::ExecuteUnresolved);
        assert_eq!(d.code[2].op, DenseOp::PcallGoalBad);
    }
}
