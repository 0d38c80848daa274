//! Multi-channel, multi-device memory system for the Direct RDRAM model.
//!
//! The paper models a single Direct Rambus channel with one device; this
//! crate generalizes that substrate to **N channels × M devices per
//! channel** without touching the per-channel timing model:
//!
//! * [`Topology`] — how many channels, how many ganged devices on each,
//!   and an optional per-channel ROW-latency offset that models NUMA-style
//!   asymmetry (a remote channel's row commands arrive late);
//! * [`SystemMap`] — an address-placement layer over
//!   [`rdram::AddressMap`] with three placements: channel-interleaved at
//!   block granularity, device-sequential, and asymmetric/NUMA (all
//!   traffic homed on one channel). Decoded [`rdram::Location`]s carry a
//!   *global* bank index (`channel × banks_per_channel + local bank`);
//! * [`MemorySystem`] — owns one [`rdram::Rdram`] instance (bank array +
//!   ROW/COL/DATA buses) per channel and routes globally-banked commands
//!   to the owning channel, aggregating [`rdram::DeviceStats`] with
//!   exact sums.
//!
//! A single-channel system is a transparent passthrough: every command,
//! statistic, and command record is bit-identical to driving the underlying
//! [`rdram::Rdram`] directly, which is what keeps the committed campaign
//! goldens stable when the topology axes sit at their defaults.
//!
//! # Example
//!
//! ```
//! use memsys::{MemorySystem, Placement, SystemMap, Topology};
//! use rdram::{AddressMap, Command, DeviceConfig, Interleave};
//!
//! # fn main() -> Result<(), rdram::ProtocolError> {
//! let cfg = DeviceConfig::default();
//! let topo = Topology { channels: 2, ..Topology::single() };
//! let map = SystemMap::new(
//!     AddressMap::new(Interleave::Page, &cfg).unwrap(),
//!     &cfg,
//!     &topo,
//!     Placement::default(),
//! )
//! .unwrap();
//! let mut sys = MemorySystem::new(cfg, topo);
//! // Page 0 lands on channel 0, page 4 (addr 4096) on channel 1: their
//! // ACTs ride independent ROW buses and may start on the same cycle.
//! let a = map.decode(0);
//! let b = map.decode(4096);
//! assert_ne!(sys.channel_of_bank(a.bank), sys.channel_of_bank(b.bank));
//! let act_a = Command::activate(a.bank, a.row);
//! let act_b = Command::activate(b.bank, b.row);
//! sys.issue_at(&act_a, sys.earliest(&act_a, 0))?;
//! sys.issue_at(&act_b, sys.earliest(&act_b, 0))?;
//! assert_eq!(sys.stats().activates, 2);
//! # Ok(())
//! # }
//! ```

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod map;
mod system;
mod topology;

pub use map::{Placement, SystemMap, DEFAULT_BLOCK_BYTES};
pub use system::{split_by_channel, ChannelFaultStats, MemorySystem};
pub use topology::Topology;
