//! The conventional comparator: **natural-order cacheline accesses**.
//!
//! A traditional memory controller treats stream references like any other
//! traffic: each miss fetches a whole cacheline, in exactly the order the
//! computation touches the data. This crate models that controller at the
//! level of the paper's Figures 5 and 6:
//!
//! * per-stream linefill buffers with **forwarding** — the processor can
//!   consume an element as soon as *its* DATA packet arrives, before the
//!   whole line is in (as in the PowerPC 604e the paper cites);
//! * a non-blocking front end with up to four line transfers in flight (the
//!   Direct RDRAM's outstanding-request limit), so consecutive line fetches
//!   pipeline at the `tRR` command rate;
//! * in-order issue with the paper's one data dependency: the store of
//!   iteration *i* cannot begin until the loads of iteration *i* have
//!   delivered their elements;
//! * closed-page (auto-precharge after each line burst) or open-page
//!   management, matching the CLI / PI organizations;
//! * no dirty-line writebacks and no cache-conflict misses — the same
//!   optimistic simplifications as the paper's analytic bounds.
//!
//! # Event stepping
//!
//! [`BaselineController::tick`] advances one cycle, but most cycles of a
//! natural-order run issue nothing. [`BaselineController::run_to_completion`]
//! therefore ticks only at cycles where a tick can change something: the
//! least earliest start of the in-flight ops' next commands, the cycle at
//! which the front op can be admitted (its store dependency, or the last
//! line fill for a blocking controller), the next injected stall cycle and
//! the watchdog's deadline. A tick that issues looks ahead one cycle from
//! the new state, so the next tick usually issues too. Every skipped cycle
//! counts as idle, as the per-cycle loop counted it.
//!
//! This is exact, not an approximation. `MemorySystem::earliest(cmd, t)`
//! is the first cycle at or after `t` at which the command can launch and
//! be accepted: device timing, remote ROW penalties, injected busy windows
//! and channel chaos (brownouts, outages and failed devices, searched
//! segment by segment) all keep that form. The answer changes only when a
//! command issues, chaos accounting is charged at issue, and bank state,
//! admission and the watchdog's progress key change only at a tick. So a
//! skipped cycle would have found nothing to issue or admit, and the
//! result, every arrival, the command stream and the telemetry events equal
//! those of the per-cycle loop. [`BaselineController::ticks`] counts the
//! ticks taken.
//!
//! # Example
//!
//! ```
//! use baseline::BaselineController;
//! use memsys::{MemorySystem, SystemMap};
//! use rdram::{AddressMap, DeviceConfig, Interleave};
//! use smc::StreamDescriptor;
//!
//! let cfg = DeviceConfig::default();
//! let map = SystemMap::single(
//!     AddressMap::new(Interleave::Cacheline { line_bytes: 32 }, &cfg).unwrap(),
//! );
//! let mut dev = MemorySystem::single(cfg);
//! let streams = vec![
//!     StreamDescriptor::read("x", 0, 1, 128),
//!     StreamDescriptor::write("y", 1 << 20, 1, 128),
//! ];
//! let mut ctl = BaselineController::new(streams, map, baseline::LinePolicy::ClosedPage, 32);
//! let result = ctl.run_to_completion(&mut dev).expect("fault-free run");
//! assert!(result.last_data_cycle > 0);
//! ```

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

pub mod cache;
mod controller;

pub use controller::{BaselineController, BaselineResult, LinePolicy, WritePolicy};
