//! `smcbench`: the repository's benchmark.
//!
//! Five workloads (see [`catalog::Workload`]) run the simulator end to end
//! through its public crates. An untraced run times whole passes and
//! reports the end-to-end metrics of [`catalog::END_TO_END`]; a traced run
//! adds one pass with spans around every layer's public calls and reports
//! [`catalog::PER_LAYER`]. Every run also checks its outputs: see the
//! crate's README for the metric tables and the correctness gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod inputs;
pub mod layers;
pub mod pass;
pub mod replica;
pub mod spans;
pub mod stats;
