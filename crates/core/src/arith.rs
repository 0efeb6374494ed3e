//! Arithmetic evaluation for `is/2` and the comparison builtins.

use crate::cell::Cell;
use crate::engine::Step;
use crate::error::{EngineError, EngineResult};
use crate::known;
use crate::layout::ObjectKind;
use pwam_front::{INT_MAX, INT_MIN};

/// `v` if the machine can hold it; `None` (the host's own `i64` overflowed)
/// and anything outside `INT_MIN..=INT_MAX` are an overflow, never a wrap.
pub(crate) fn in_range(v: Option<i64>) -> EngineResult<i64> {
    v.filter(|v| (INT_MIN..=INT_MAX).contains(v)).ok_or(EngineError::IntegerOverflow)
}

impl<'a, 'p> Step<'a, 'p> {
    /// Evaluate an arithmetic expression term.
    ///
    /// Supported functors: integers, `+/2`, `-/2`, `*/2`, `///2` (integer
    /// division), `mod/2`, `//2` (also integer division, as is conventional
    /// for integer-only Prolog arithmetic), and unary `-/1` / `+/1`.  Every
    /// result, intermediate or final, lies in `INT_MIN..=INT_MAX`; one that
    /// would not is [`EngineError::IntegerOverflow`].
    pub(crate) fn eval_arith(&mut self, cell: Cell) -> EngineResult<i64> {
        match self.deref(cell) {
            Cell::Int(v) => Ok(v),
            Cell::Ref(_) => Err(EngineError::Instantiation { context: "arithmetic expression" }),
            Cell::Con(a) => Err(EngineError::ArithmeticType {
                context: format!("atom {a:?} is not an arithmetic expression"),
            }),
            Cell::Str(p) => {
                let f = self.mem_read(p, ObjectKind::HeapTerm);
                let (name, arity) = match f {
                    Cell::Fun(name, arity) => (name, arity),
                    other => {
                        return Err(EngineError::Internal(format!(
                            "structure pointer does not reference a functor cell: {other:?}"
                        )))
                    }
                };
                match arity {
                    1 => {
                        let a = self.mem_read(p + 1, ObjectKind::HeapTerm);
                        let v = self.eval_arith(a)?;
                        match name {
                            n if n == known::MINUS => in_range(v.checked_neg()),
                            n if n == known::PLUS => Ok(v),
                            _ => Err(EngineError::ArithmeticType {
                                context: format!("unknown unary arithmetic functor {name:?}"),
                            }),
                        }
                    }
                    2 => {
                        let a = self.mem_read(p + 1, ObjectKind::HeapTerm);
                        let b = self.mem_read(p + 2, ObjectKind::HeapTerm);
                        let x = self.eval_arith(a)?;
                        let y = self.eval_arith(b)?;
                        match name {
                            n if n == known::PLUS => in_range(x.checked_add(y)),
                            n if n == known::MINUS => in_range(x.checked_sub(y)),
                            n if n == known::STAR => in_range(x.checked_mul(y)),
                            n if (n == known::SLASH || n == known::INT_DIV || n == known::MOD) && y == 0 => {
                                Err(EngineError::DivisionByZero)
                            }
                            n if n == known::SLASH || n == known::INT_DIV => in_range(x.checked_div(y)),
                            n if n == known::MOD => in_range(x.checked_rem_euclid(y)),
                            _ => Err(EngineError::ArithmeticType {
                                context: format!("unknown arithmetic functor {name:?}/2"),
                            }),
                        }
                    }
                    _ => Err(EngineError::ArithmeticType {
                        context: format!("arithmetic functor of arity {arity} is not supported"),
                    }),
                }
            }
            other => Err(EngineError::ArithmeticType { context: format!("cannot evaluate {other:?}") }),
        }
    }
}
