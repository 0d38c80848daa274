//! # rambus — streams on a Direct Rambus memory
//!
//! A full reproduction of Hong, McKee, Salinas, Klenke, Aylor & Wulf,
//! *"Access Order and Effective Bandwidth for Streams on a Direct Rambus
//! Memory"* (HPCA 1999), as a workspace of composable crates re-exported
//! here:
//!
//! * [`rdram`] — cycle-accurate Direct RDRAM device model (banks, packet
//!   buses, CLI/PI interleaving, page policies, packet traces).
//! * [`smc`] — the paper's contribution: a Stream Memory Controller with
//!   per-stream FIFOs and a dynamically reordering Memory Scheduling Unit.
//! * [`baseline`] — the comparator: a conventional controller issuing
//!   cacheline accesses in the computation's natural order.
//! * [`analytic`] — closed-form bandwidth bounds (the paper's Section 5).
//! * [`kernels`] — the benchmark kernels (copy, daxpy, hydro, vaxpy, …) with
//!   reference semantics.
//! * [`sim`] — the cycle-based simulation engine, experiment harness, and
//!   report generation for every figure and table in the paper.
//!
//! The package itself holds the table of [`studies`], [`ablations`] included,
//! that the `repro` binary writes into `results/`.
//!
//! ## Quickstart
//!
//! ```
//! use sim::{MemorySystem, SystemConfig};
//! use kernels::Kernel;
//!
//! // Daxpy over 1024-element vectors through the SMC on a cacheline-
//! // interleaved Direct RDRAM, with 64-deep FIFOs.
//! let cfg = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 64);
//! let result = sim::run_kernel(Kernel::Daxpy, 1024, 1, &cfg).expect("fault-free run");
//! assert!(result.percent_peak() > 80.0);
//!
//! // The same computation with natural-order cacheline accesses is far
//! // slower.
//! let naive = SystemConfig::natural_order(MemorySystem::CacheLineInterleaved);
//! let base = sim::run_kernel(Kernel::Daxpy, 1024, 1, &naive).expect("fault-free run");
//! assert!(result.percent_peak() > 1.15 * base.percent_peak());
//! ```

pub mod ablations;
pub mod studies;

pub use analytic;
pub use baseline;
pub use fpm;
pub use kernels;
pub use rdram;
pub use sim;
pub use smc;
