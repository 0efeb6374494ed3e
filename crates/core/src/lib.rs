//! # rapwam — the RAP-WAM AND-parallel Prolog abstract machine
//!
//! This crate implements the execution model evaluated in *"Memory
//! Performance of AND-parallel Prolog on Shared-Memory Architectures"*
//! (Hermenegildo & Tick, ICPP 1988): a collection of WAM-like workers, each
//! with a complete Stack Set (Heap, Local stack, Control stack, Trail, PDL,
//! Goal Stack, Message Buffer), that cooperate on the execution of a Prolog
//! program annotated with Conditional Graph Expressions.
//!
//! Each worker's Stack Set is its own memory arena, and an engine runs on
//! the backend its [`EngineConfig`] names: the default
//! ([`SchedulerKind::Interleaved`], or any [`DeterminismMode::Strict`] run)
//! is a deterministic, software-interleaved emulator — the same methodology
//! the paper used — while [`SchedulerKind::Threaded`] under
//! [`DeterminismMode::Relaxed`] free-runs one OS thread per PE (same
//! answers, racy steal placement, real speedup).
//! Every run produces:
//!
//! * the query's answer substitution,
//! * aggregate statistics (instructions, references per area/object,
//!   parallel goals, storage high-water marks, elapsed cycles), and
//! * optionally the full per-reference trace (PE, address, read/write,
//!   area/object/locality tags) consumed by the `pwam-cachesim` crate.
//!
//! ## Quick start
//!
//! ```
//! use rapwam::session::{QueryOptions, Session};
//!
//! let mut session = Session::new(
//!     "fib(0, 0).\n\
//!      fib(1, 1).\n\
//!      fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
//!                   (ground(N1), ground(N2) | fib(N1, F1) & fib(N2, F2)),\n\
//!                   F is F1 + F2.",
//! ).unwrap();
//! let result = session.run("fib(10, F)", &QueryOptions::parallel(4)).unwrap();
//! let f = result.outcome.binding("F").unwrap();
//! assert_eq!(session.render(f), "55");
//! ```

#![warn(unreachable_pub)]

mod answer;
mod arith;
mod builtins;
mod cell;
mod engine;
mod error;
mod exec;
mod frames;
mod known;
mod layout;
mod mem;
#[cfg(test)]
mod model;
mod parked;
mod sched;
pub mod session;
mod stats;
pub mod trace;
mod unify;
mod worker;

pub use engine::{Engine, EngineConfig, Outcome, RunOutcome, RunResult, SuspendReason};
pub use error::EngineError;
pub use layout::{Area, Locality, MemoryConfig, ObjectKind};
pub use mem::Memory;
pub use pwam_front::Term;
pub use sched::{DeterminismMode, SchedulerKind};
pub use session::{CursorStep, QueryCursor, QueryOptions, Session, SessionError};
pub use stats::{RunStats, WorkerStats};
pub use trace::{AreaStats, MemRef};
