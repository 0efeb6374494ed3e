//! Engine error type.

use crate::layout::Area;
use std::fmt;
use std::time::Duration;

/// A fatal error raised by the abstract machine.
///
/// Ordinary goal failure is *not* an error (it triggers backtracking);
/// these are conditions that abort the run, such as area overflow or an
/// arithmetic type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A data area of some worker overflowed.
    OutOfMemory { worker: usize, area: Area },
    /// The step budget was exhausted before the query finished.
    StepLimitExceeded { limit: u64 },
    /// The wall-clock budget was exhausted before the query finished
    /// (per-request deadlines of the serving layer).
    DeadlineExceeded { budget: Duration },
    /// The deterministic instruction-fuel budget was exhausted before the
    /// query finished (preemptive scheduling of the serving layer).
    FuelExhausted { fuel: u64 },
    /// `is/2` or a comparison was applied to an unbound variable.
    Instantiation { context: &'static str },
    /// An arithmetic expression contained a non-numeric term.
    ArithmeticType { context: String },
    /// Division (or mod) by zero.
    DivisionByZero,
    /// An integer outside `pwam_front::INT_MIN..=INT_MAX`: an arithmetic
    /// result, or one a host predicate replied with.
    IntegerOverflow,
    /// The engine reached an instruction it cannot execute in this context.
    BadInstruction { addr: u32, what: String },
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::OutOfMemory { worker, area } => {
                write!(f, "worker {worker}: out of memory in {}", area.name())
            }
            EngineError::StepLimitExceeded { limit } => {
                write!(f, "step limit of {limit} instructions exceeded")
            }
            EngineError::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded: query ran past its time budget of {budget:?}")
            }
            EngineError::FuelExhausted { fuel } => {
                write!(f, "fuel exhausted: query ran past its instruction budget of {fuel}")
            }
            EngineError::Instantiation { context } => {
                write!(f, "arguments insufficiently instantiated in {context}")
            }
            EngineError::ArithmeticType { context } => {
                write!(f, "type error in arithmetic: {context}")
            }
            EngineError::DivisionByZero => write!(f, "division by zero"),
            EngineError::IntegerOverflow => write!(f, "integer overflow: the value does not fit in 63 bits"),
            EngineError::BadInstruction { addr, what } => {
                write!(f, "cannot execute instruction at {addr}: {what}")
            }
            EngineError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub(crate) type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EngineError::OutOfMemory { worker: 3, area: Area::Heap };
        assert_eq!(e.to_string(), "worker 3: out of memory in heap");
        assert!(EngineError::DivisionByZero.to_string().contains("zero"));
        assert!(EngineError::StepLimitExceeded { limit: 10 }.to_string().contains("10"));
    }
}
