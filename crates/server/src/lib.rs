//! # pwam-server — the concurrent query-serving subsystem
//!
//! The RAP-WAM engine's per-PE Stack Sets are long-lived resources whose
//! locality is the paper's whole performance story — yet a naive service
//! would re-parse, re-compile and re-allocate them for every query.  This
//! crate keeps all three warm:
//!
//! * a **program cache** ([`cache::ProgramCache`]) holds one
//!   [`rapwam::Session`] per distinct program, with its compiled queries,
//!   so repeated requests skip the front end and the compiler entirely;
//! * a **warm engine pool** ([`pool::EnginePool`]) bounds concurrency,
//!   recycles each slot's arenas across runs ([`rapwam::Engine::
//!   with_recycled_memory`]) and doubles as the admission controller
//!   (bounded queueing, per-request deadlines, load shedding);
//! * a **length-prefixed text protocol** ([`protocol`]) served over
//!   `std::net::TcpListener` by a readiness-driven event loop
//!   (`event_loop.rs`) that multiplexes every connection through one poller
//!   thread with pipelined, order-preserving responses, plus a small
//!   blocking [`Client`];
//! * **admission and preemption controls**: per-tenant concurrency quotas
//!   (`tenant.rs`) and deterministic instruction fuel (the
//!   `fuel` header) so one client can neither hog the pool nor wedge an
//!   engine;
//! * an **observability plane** (`metrics.rs`): a lock-free metric
//!   registry spanning every layer — request-latency histograms, per-PE
//!   scheduler telemetry, per-predicate instruction profiles, pool and
//!   cursor gauges — scraped through the `metrics` verb, and a bounded
//!   flight recorder of query lifecycle events behind `events`.
//!
//! Start a server in-process:
//!
//! ```
//! use pwam_server::{Client, QueryRequest, Response, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let response = client
//!     .query(QueryRequest {
//!         program: "p(1).\np(2).".to_string(),
//!         query: "p(X)".to_string(),
//!         ..QueryRequest::default()
//!     })
//!     .unwrap();
//! match response {
//!     Response::Answer(a) => assert_eq!(a.bindings, vec![("X".to_string(), "1".to_string())]),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! server.shutdown();
//! ```

#![warn(unreachable_pub)]

mod cache;
mod client;
mod event_loop;
mod metrics;
mod pool;
pub mod protocol;
mod server;
mod tenant;

pub use cache::ProgramCache;
pub use client::Client;
pub use pool::{AcquireError, EnginePool, PoolConfig};
pub use protocol::{AnswerResponse, ErrorKind, QueryRequest, Request, Response};
pub use server::{Server, ServerConfig};
