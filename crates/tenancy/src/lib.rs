//! Multi-tenant serving layer in front of the stream memory controller.
//!
//! The paper's SMC assumes a single kernel owns the controller; this crate
//! is the production-shaped layer that multiplexes *many* clients onto
//! that serially-owned resource without letting any of them hang, starve,
//! or silently blow through a bandwidth budget:
//!
//! - [`tenant`] — tenant registry: latency-sensitive (`ls`) vs
//!   bandwidth-hungry (`bh`) classes and the compact mix grammar shared by
//!   the CLI and the campaign axes;
//! - [`queue`] — bounded admission queues with explicit backpressure
//!   (`Admitted` / `Rejected { retry_after }`, never unbounded growth,
//!   never a panic);
//! - [`regulator`] — integer-cycle token buckets enforcing per-tenant and
//!   per-bank bandwidth budgets, with an auditable dispatch trail;
//! - [`ladder`] — the graceful-degradation ladder: overload and fault
//!   storms throttle, then shed, bandwidth-hungry tenants strictly before
//!   latency-sensitive ones;
//! - [`arbiter`] — pluggable arbitration policies (FCFS, round-robin,
//!   bank-aware, regulated) behind one trait, orthogonal to the MSU's
//!   intra-request access ordering;
//! - [`retry`] — closed-loop clients: a seeded, integer-only exponential
//!   backoff-with-jitter policy that resubmits rejected requests (never
//!   earlier than the server's `retry_after` hint), with per-request retry
//!   budgets and an auditable resubmission trail;
//! - [`server`] — the deterministic virtual-time serve loop with
//!   per-request deadlines, miss accounting, and a per-tenant
//!   forward-progress watchdog emitting structured starvation reports;
//! - [`trace`] — request-lifecycle tracing: one integer-cycle span per
//!   request (admit → queue → dispatch → execute → outcome) plus
//!   starvation/executor-failure incidents, with exact nearest-rank
//!   latency and deadline-slack percentile queries. Recording is opt-in
//!   via [`server::serve_traced`] and provably inert when off.
//!
//! The crate is simulator-agnostic: the serve loop drives an
//! [`server::Executor`] callback, and `sim::serve` binds that callback to
//! the real kernel runner. Everything here is integer-cycle arithmetic,
//! free of unsafe code, and panic-free on non-test paths — the same
//! declared lints (README, "Static analysis") as the other hot-path
//! crates.

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

pub mod arbiter;
pub mod ladder;
pub mod queue;
pub mod regulator;
pub mod retry;
pub mod server;
pub mod tenant;
pub mod trace;

pub use arbiter::{policy_by_name, ArbitrationPolicy};
pub use ladder::{DegradeLevel, LadderConfig};
pub use queue::{Admission, Request};
pub use regulator::{BucketConfig, RegulatorConfig};
pub use retry::{RetryAudit, RetryPolicy};
pub use server::{
    serve_traced, Executor, ServeConfig, ServeError, ServeReport, ServiceReport, StarvationReport,
    TenantServeStats,
};
pub use tenant::{Cycle, TenantClass, TenantMix, TenantSpec};
pub use trace::{
    IncidentKind, PercentileSummary, RequestOutcome, RequestSpan, ServeTrace, TraceIncident,
};
