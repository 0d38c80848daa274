//! Timing-conformance checking for Direct RDRAM command streams.
//!
//! The paper's bandwidth results are only as trustworthy as the command
//! schedules the simulated controllers emit: a controller that issues a COL
//! packet one cycle before `tRCD` expires would report bandwidth no real
//! part can deliver. This crate closes that loop. It replays a recorded
//! command trace — every ACT, PRER, and COL RD/WR with its start cycle —
//! against an independent implementation of the constraints in the paper's
//! Figure 2 and Section 2/3 prose, and reports each violation as a
//! structured [`Violation`].
//!
//! The constraints live in a declarative [`RULE_TABLE`] (rule name, paper
//! provenance, governing cycle count); the replay engine in
//! [`conformance`] evaluates them over reconstructed bank and bus state;
//! [`TraceFile`] is the on-disk JSON format `smcsim --record-trace` writes
//! and `smcsim check` reads.

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

pub mod conformance;
pub mod rules;
pub mod trace_file;

pub use conformance::{check, report, Violation};
pub use rules::{RuleId, RuleInfo, RULE_TABLE};
pub use trace_file::{ParseError, TraceFile};
