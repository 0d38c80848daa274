//! Cycle-accurate timing model of a **Direct Rambus DRAM** (RDRAM) device.
//!
//! This crate is the memory substrate for the reproduction of Hong et al.,
//! *"Access Order and Effective Bandwidth for Streams on a Direct Rambus
//! Memory"* (HPCA 1999). It models a single Direct RDRAM chip at the
//! granularity of the 400 MHz interface clock:
//!
//! * eight (configurable) independent **banks**, each with its own sense-amp
//!   row buffer that can be opened (`ACT`), accessed (`COL RD`/`COL WR`), and
//!   precharged (`PRER`) independently;
//! * three packet **buses** — ROW commands, COL commands, and DATA — each
//!   carrying one 4-cycle packet at a time, with write-to-read turnaround
//!   enforced on the DATA bus;
//! * the full set of timing constraints from the paper's Figure 2
//!   (`tRCD`, `tRP`, `tCAC`, `tRAC`, `tRC`, `tRR`, `tRDLY`, `tRW`, `tCPOL`,
//!   `tRAS`), see [`Timing`];
//! * **CLI** (cacheline) and **PI** (page) address interleaving, see
//!   [`AddressMap`];
//! * open-page and closed-page policies via per-access auto-precharge;
//! * a byte-accurate [`MemoryImage`] so simulations can move real data, and
//! * the paper's Figure 1 catalogue of conventional DRAM timing parameters
//!   and the Rambus generations of its Section 2.2, in [`legacy`] (the
//!   `fpm` crate models the fast-page-mode memory itself).
//!
//! The device is driven by a memory controller (see the `baseline` and `smc`
//! crates) through a two-phase protocol: ask [`Rdram::earliest`] when a
//! command could legally start, then commit it with [`Rdram::issue_at`].
//!
//! # Example
//!
//! Read one DATA packet (16 bytes) from a closed bank: precharge is not
//! needed, but the row must be activated before the column access.
//!
//! ```
//! use rdram::{Command, DeviceConfig, Rdram};
//!
//! # fn main() -> Result<(), rdram::ProtocolError> {
//! let mut dev = Rdram::new(DeviceConfig::default());
//! let act = Command::activate(0, 3);
//! let t0 = dev.earliest(&act, 0);
//! dev.issue_at(&act, t0)?;
//!
//! let col = Command::read(0, 0);
//! let t1 = dev.earliest(&col, t0);
//! let outcome = dev.issue_at(&col, t1)?;
//! let data = outcome.data.expect("reads return a data interval");
//! // Page-miss read latency: tRAC (= tRCD + tCAC + 1) plus the round-trip
//! // bus delay tRDLY.
//! assert_eq!(data.start, t0 + dev.timing().t_rac + dev.timing().t_rdly);
//! # Ok(())
//! # }
//! ```

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod address;
mod bank;
mod bus;
mod config;
mod device;
mod error;
pub mod legacy;
mod packet;
pub mod refresh;
pub mod sink;
mod stats;
mod storage;
mod timing;

pub use address::{AddressMap, Interleave, Location};
pub use bank::{Bank, SenseAmps};
pub use bus::{Bus, DataBus};
pub use config::DeviceConfig;
pub use device::{AccessPlan, CommandPort, Outcome, Rdram};
pub use error::ProtocolError;
pub use packet::{ColOp, Command, Dir, Interval, RowOp};
pub use sink::CommandRecord;
pub use stats::DeviceStats;
pub use storage::MemoryImage;
pub use timing::{Timing, CYCLE_NS, ELEM_BYTES, PACKET_BYTES, WORDS_PER_PACKET};

/// A point in time, measured in 400 MHz interface-clock cycles (2.5 ns each).
pub type Cycle = u64;
