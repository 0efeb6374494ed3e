//! Error type shared by the lexer and parser.

use std::fmt;

/// Result alias used throughout the front-end.
pub(crate) type FrontResult<T> = Result<T, FrontError>;

/// A front-end (read-time) error with positional information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontError {
    /// Human readable description of the problem.
    pub(crate) message: String,
    /// 1-based line on which the error was detected.
    pub(crate) line: usize,
    /// 1-based column on which the error was detected.
    pub(crate) column: usize,
}

impl FrontError {
    /// Create a new error at the given position.
    pub(crate) fn new(message: impl Into<String>, line: usize, column: usize) -> Self {
        FrontError { message: message.into(), line, column }
    }

    /// Create an error without a meaningful position (e.g. end of input).
    pub(crate) fn unpositioned(message: impl Into<String>) -> Self {
        FrontError { message: message.into(), line: 0, column: 0 }
    }
}

impl fmt::Display for FrontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "syntax error: {}", self.message)
        } else {
            write!(f, "syntax error at {}:{}: {}", self.line, self.column, self.message)
        }
    }
}

impl std::error::Error for FrontError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_position() {
        let e = FrontError::new("unexpected token", 3, 7);
        assert_eq!(e.to_string(), "syntax error at 3:7: unexpected token");
    }

    #[test]
    fn display_without_position() {
        let e = FrontError::unpositioned("unexpected end of input");
        assert_eq!(e.to_string(), "syntax error: unexpected end of input");
    }
}
