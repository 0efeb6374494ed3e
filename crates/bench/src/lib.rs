//! # pwam-bench — experiment harness
//!
//! Regenerates every table and figure of the ICPP'88 paper from the
//! reproduction stack (front-end → compiler → RAP-WAM engine → cache
//! simulator):
//!
//! | Paper artefact | Binary | Library entry point |
//! |---|---|---|
//! | Table 1 (storage objects) | `table1` | [`experiments::table1`] |
//! | Figure 2 (deriv overhead/speedup) | `figure2` | [`experiments::figure2`] |
//! | Table 2 (benchmark statistics, 8 PEs) | `table2` | [`experiments::table2`] |
//! | Table 3 (fit to large benchmarks) | `table3` | [`experiments::table3`] |
//! | Figure 4 (traffic of coherency schemes) | `figure4` | [`experiments::figure4`] |
//! | §3.3 back-of-the-envelope (2 MLIPS) | `mlips` | [`experiments::mlips`] |
//! | allocate-policy ablation | `ablation_alloc` | [`experiments::ablation_alloc`] |
//! | bus-contention model | `ablation_bus` | [`experiments::ablation_bus`] |
//!
//! Each entry point returns a serialisable result structure; the binaries
//! print a human-readable table (with the paper's published values alongside
//! where applicable) and optionally write the raw JSON next to it.

pub mod cli;
pub mod experiments;
pub mod history;
pub mod paper;
pub mod table;

pub use experiments::ExperimentScale;
