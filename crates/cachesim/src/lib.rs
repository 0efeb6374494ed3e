//! # pwam-cachesim — multiprocessor coherent-cache simulator
//!
//! Reimplementation of the cache-simulation methodology of the ICPP'88 paper
//! (originally Tick's parameterised multiprocessor cache simulator): each PE
//! has a **fully associative cache with perfect LRU replacement**, caches are
//! kept coherent over a shared bus, and the figure of merit is the **traffic
//! ratio** — words moved over the bus divided by words referenced by the
//! processors.
//!
//! Supported coherency schemes (Section 3.1 of the paper):
//!
//! * [`Protocol::WriteThrough`] — the conventional write-through /
//!   invalidate scheme of early coherent caches,
//! * [`Protocol::WriteInBroadcast`] — write-back broadcast cache that
//!   *invalidates* remote copies on a write ("write-in"),
//! * [`Protocol::WriteThroughBroadcast`] — broadcast cache that *updates*
//!   remote copies on a write,
//! * [`Protocol::Hybrid`] — the paper's firmware-controlled scheme: data
//!   tagged *global* (potentially shared, per Table 1) is written through,
//!   data tagged *local* is copied back.
//!
//! The input is the memory-reference trace produced by the `rapwam` engine
//! ([`rapwam::MemRef`]), and the output is a [`SimResult`] per configuration.
//! [`sweep`] runs whole parameter sweeps across OS threads.

#![warn(unreachable_pub)]

mod config;
mod lru;
mod multisim;
mod queueing;
mod results;
pub mod sweep;

pub use config::{CacheConfig, Protocol, SimConfig};
pub use multisim::simulate;
pub use queueing::{BusModel, BusModelResult};
pub use results::SimResult;
pub use sweep::run_sweep;
