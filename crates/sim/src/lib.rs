//! Cycle-based functional simulation of streaming computations on a Direct
//! RDRAM memory system, plus the experiment harness that regenerates every
//! table and figure of the paper.
//!
//! The crate glues the substrates together:
//!
//! * [`SystemConfig`] describes a complete system — memory organization
//!   (CLI or PI, via [`MemorySystem`]), access ordering
//!   ([`AccessOrder::NaturalOrder`] or [`AccessOrder::Smc`]), vector
//!   placement ([`Alignment`]), and MSU options;
//! * [`run_kernel`] executes a [`kernels::Kernel`] on that system with a
//!   matched-bandwidth processor model (Section 4.1's assumptions: the CPU
//!   consumes one element per 2 cycles, computation is free, non-stream
//!   accesses hit in cache) and returns a [`RunResult`] with effective
//!   bandwidth and device statistics. Every SMC run also moves real data
//!   and is checked bit-exactly against the kernel's scalar reference;
//! * [`experiments`] regenerates the paper's Figures 1–9 and the Section 6
//!   headline numbers (the root package's `repro` binary runs them).
//!
//! # Example
//!
//! ```
//! use kernels::Kernel;
//! use sim::{MemorySystem, SystemConfig};
//!
//! let smc = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 64);
//! let result = sim::run_kernel(Kernel::Copy, 1024, 1, &smc).expect("fault-free run");
//! assert!(result.percent_peak() > 90.0, "{}", result.percent_peak());
//!
//! let naive = SystemConfig::natural_order(MemorySystem::CacheLineInterleaved);
//! let base = sim::run_kernel(Kernel::Copy, 1024, 1, &naive).expect("fault-free run");
//! assert!(result.percent_peak() > 2.0 * base.percent_peak());
//! ```

pub mod cli;
mod config;
mod counters;
mod cpu;
mod error;
pub mod experiments;
mod layout;
pub mod metrics;
pub mod observe;
pub mod plot;
pub mod report;
mod runner;
pub mod serve;
pub mod sweep;

pub use config::{AccessOrder, Alignment, MemorySystem, SystemConfig};
pub use cpu::{StreamCpu, CYCLES_PER_ACCESS};
pub use error::SimError;
pub use layout::vector_bases;
pub use metrics::RunTelemetry;
pub use runner::{check_channels, percent_peak_of, run_kernel, RunResult, RunSummary};
