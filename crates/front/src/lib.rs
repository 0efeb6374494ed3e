//! # pwam-front — Prolog front-end for the RAP-WAM reproduction
//!
//! This crate implements the source-language layer that the ICPP'88 paper assumes:
//! a Prolog reader (tokenizer + operator-precedence parser), interned atoms,
//! a source-level term representation, and the **Conditional Graph Expression**
//! (CGE) syntax used to annotate goal-independence AND-parallelism:
//!
//! ```prolog
//! f(X,Y,Z) :- ( indep(X,Z), ground(Y) | g(X,Y) & h(Y,Z) ).
//! ```
//!
//! The output of this crate is a [`clause::Program`]: a list of clauses whose
//! bodies are sequences of goals, cuts, and CGEs, ready for compilation to
//! WAM / RAP-WAM code by `pwam-compiler`.
//!
//! ## Quick example
//!
//! ```
//! use pwam_front::{parse_program, SymbolTable};
//!
//! let mut syms = SymbolTable::new();
//! let program = parse_program(
//!     "app([],L,L).\n\
//!      app([H|T],L,[H|R]) :- app(T,L,R).",
//!     &mut syms,
//! ).unwrap();
//! assert_eq!(program.clauses.len(), 2);
//! ```

#![warn(unreachable_pub)]

mod atoms;
pub mod clause;
mod error;
pub mod lexer;
mod parser;
pub mod pretty;
mod term;

pub use atoms::{Atom, SymbolTable};
pub use clause::{Body, Cge, CgeCondition, Clause, Program};
pub use error::FrontError;
pub use parser::{parse_program, parse_query, parse_term};
pub use term::{Term, INT_MAX, INT_MIN};
