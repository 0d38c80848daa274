//! Deterministic, seeded fault injection for the Rambus stream-memory
//! simulator.
//!
//! A [`FaultPlan`] describes *what* can go wrong — transient bank-busy
//! windows, channel-wide refresh storms, NACKed DATA packets that force
//! bounded retries, and injected controller stalls. A [`FaultInjector`]
//! binds a plan to a seed and answers, as a pure function of `(clause,
//! seed, cycle, bank)`, whether each fault fires. Because every decision is
//! derived by hashing rather than by mutating generator state, replaying a
//! `(plan, seed)` pair reproduces the exact same fault timeline every time.
//! One injector serves a whole run: the `memsys` crate's memory system
//! owns it, folds its busy windows into command timing, and lends it to
//! the controllers for stalls, NACKs and retry limits.
//!
//! # Spec grammar
//!
//! Plans parse from compact `;`-separated clause specs. These are the
//! device-level clauses of the CLI's `--faults` argument; the
//! channel-scoped ones ([`FaultClause::is_channel_scoped`]: `brownout`,
//! `outage`, `devfail`) make up its `--chaos` argument, and each flag
//! rejects the other's clauses:
//!
//! ```text
//! busy:<bank|*>:<period>:<len>   bank (or all banks) unavailable for the
//!                                first <len> cycles of every <period>
//! nack:<permille>:<retries>      each DATA packet NACKed with probability
//!                                permille/1000; at most <retries> retries
//!                                per access before the run errors out
//! storm:<period>:<len>           refresh storm: all banks busy for <len>
//!                                cycles of every <period>
//! stall:<period>:<len>           controller stalled (no command issue) for
//!                                <len> cycles of every <period>
//! ```
//!
//! ```
//! use faults::{FaultClause, FaultPlan};
//!
//! let plan = FaultPlan::parse("busy:3:128:16;nack:50:4").unwrap();
//! assert_eq!(plan.clauses.len(), 2);
//! assert_eq!(plan.to_spec(), "busy:3:128:16;nack:50:4");
//! assert!(matches!(plan.clauses[1],
//!     FaultClause::DataNack { permille: 50, max_retries: 4 }));
//! ```

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod injector;
mod plan;

pub use injector::FaultInjector;
pub use plan::{FaultClause, FaultPlan, FaultSpecError};
