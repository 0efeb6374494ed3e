//! # pwam-compiler — WAM / RAP-WAM compiler
//!
//! Compiles the source-level programs produced by `pwam-front` into code for
//! the RAP-WAM abstract machine implemented in the `rapwam` crate.
//!
//! The pipeline is:
//!
//! 1. **Lifting** (`lift.rs`) — every CGE branch becomes a single call to a
//!    user predicate (auxiliary `'$par_n'` predicates are synthesised where
//!    needed).
//! 2. **Classification** (`classify.rs`) — chunk decomposition, permanent /
//!    temporary variable classification, register assignment.
//! 3. **Code generation** (`codegen.rs`) — put/get/unify sequences, last-call
//!    optimisation, cut, builtins, and the RAP-WAM `check_*` / `pcall_*`
//!    parallel instructions.
//! 4. **Indexing** (`index.rs`) — per-predicate `switch_on_term`,
//!    `switch_on_constant`, `switch_on_structure` and try/retry/trust chains.
//! 5. **Loading** (`loader.rs`) — single code area, resolved call targets.
//!
//! ## Example
//!
//! ```
//! use pwam_front::{parse_program, parse_query, SymbolTable};
//! use pwam_compiler::{compile_program_and_query, CompileOptions};
//!
//! let mut syms = SymbolTable::new();
//! let program = parse_program(
//!     "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).",
//!     &mut syms,
//! ).unwrap();
//! let query = parse_query("app([1,2],[3],X)", &mut syms).unwrap();
//! let compiled = compile_program_and_query(&program, &query, &mut syms,
//!                                           CompileOptions::default()).unwrap();
//! assert!(compiled.code_len() > 0);
//! ```

#![warn(unreachable_pub)]

mod classify;
mod codegen;
mod dense;
mod error;
mod index;
mod instr;
mod lift;
mod loader;
mod program;

pub use codegen::CompileOptions;
pub use dense::{decode_reg, DenseCode, DenseInstr, DenseOp};
pub use error::CompileError;
pub use instr::{Builtin, CallTarget, CodeAddr, ConstKey, Instr, PredRef, Reg};
pub use loader::{compile_program_and_query, compile_program_and_query_with_hosts};
pub use program::CompiledProgram;

/// Maximum number of X registers a worker provides (arguments + temporaries
/// + structure-building scratch).
pub const MAX_X_REGS: usize = 256;
