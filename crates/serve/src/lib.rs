//! `ppatc-serve`: a fault-tolerant, dependency-free TCP query service
//! over the deterministic PPAtC evaluation core.
//!
//! The paper's tCDP framework becomes a design-exploration *service*
//! here: many concurrent clients submit design-point queries (process
//! comparison at a clock, eDRAM capacity, carbon intensity, workload,
//! Monte-Carlo sweeps) and get byte-identical answers at any concurrency,
//! because every query is a pure function of its parameters and the
//! engine underneath merges parallel work in index order.
//!
//! The robustness architecture (see `DESIGN.md` §11):
//!
//! - [`protocol`] — length-prefixed `PPQ1` framing; every malformed input
//!   is a typed [`protocol::WireError`], never a panic.
//! - [`query`] — the request grammar, range validation, canonical cache
//!   keys, and evaluation under a [`ppatc::RunBudget`] deadline.
//! - [`admission`] — the bounded queue: admit, shed (`overloaded` with a
//!   retry-after hint), or refuse (`draining`). Never unbounded.
//! - [`cache`] — a sharded, bounded response cache generalizing the eDRAM
//!   characterization memo cache, with an optional crash-safe append-only
//!   journal so a restarted server comes back warm.
//! - [`health`] — the counter block behind the `health` query and the
//!   final drain report.
//! - [`server`] — accept loop, per-connection and per-request
//!   `catch_unwind` isolation rings, the worker pool, and graceful drain.
//! - [`signal`] — SIGTERM/SIGINT → drain-token bridging.
//! - [`client`] — a minimal blocking client for tests and the benchmark.
//! - [`resilient`] — the recovery half of the client: seeded backoff with
//!   jitter honoring `retry_after_ms`, reconnect-and-replay, a circuit
//!   breaker, and a retry budget (see `DESIGN.md` §13).
//! - [`fault`] — deterministic seeded transport fault injection for the
//!   chaos tests.
//! - [`cli`] — flag parsers shared with `ppatc-bench`'s `paper` binary so
//!   the front ends cannot drift.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod cli;
pub mod client;
pub mod fault;
pub mod health;
pub mod protocol;
pub mod query;
pub mod resilient;
pub mod server;
pub mod signal;

pub use client::ServeClient;
pub use fault::{FaultAction, FaultCounts, FaultPlan, FaultSpec};
pub use health::{HealthSnapshot, ServerHealth};
pub use protocol::{ParsedResponse, WireError};
pub use query::{EvalParams, Query, QueryError, Request};
pub use resilient::{ResilientClient, ResilientError, RetryPolicy, RetryStats};
pub use server::{try_spawn, ServerConfig, ServerHandle};
