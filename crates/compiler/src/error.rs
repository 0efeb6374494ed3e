//! Compiler error type.

use std::fmt;

/// Result alias used throughout the compiler.
pub(crate) type CompileResult<T> = Result<T, CompileError>;

/// An error raised during clause compilation or program loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    pub(crate) message: String,
}

impl CompileError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CompileError { message: message.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(CompileError::new("boom").to_string(), "compile error: boom");
    }
}
