//! The **Stream Memory Controller** (SMC): dynamic access ordering for
//! Direct Rambus memory systems.
//!
//! This crate implements the primary contribution of Hong et al., *"Access
//! Order and Effective Bandwidth for Streams on a Direct Rambus Memory"*
//! (HPCA 1999). The SMC augments a general-purpose processor with:
//!
//! * a **Stream Buffer Unit** ([`Sbu`]) of per-stream FIFOs — from the
//!   processor's point of view each stream is a memory-mapped FIFO head, so
//!   the CPU keeps issuing accesses in the *natural order* of the
//!   computation; and
//! * a **Memory Scheduling Unit** ([`Msu`]) that prefetches reads, buffers
//!   writes, and *reorders* the actual DRAM accesses to exploit the Direct
//!   RDRAM's page buffers, bank parallelism, and pipelined interface.
//!
//! The MSU's service order is a pluggable [`SchedulingPolicy`]. The paper's
//! policy is [`RoundRobin`]: consider each FIFO in turn and perform as many
//! accesses as possible for it before moving on. Two refinements the paper
//! points to are also provided: [`BankAware`] selection (avoid switching to
//! a FIFO whose bank is busy; Hong's thesis) and speculative activation of
//! the next page a stream will need (Section 6's suggested improvement),
//! enabled by [`MsuConfig::speculative_activate`].
//!
//! The controller moves real bytes through a [`rdram::MemoryImage`], so
//! end-to-end tests can prove that *reordering accesses never changes
//! results*.
//!
//! # Example
//!
//! Stream 1024 doubles through the SMC:
//!
//! ```
//! use memsys::{MemorySystem, SystemMap};
//! use rdram::{AddressMap, DeviceConfig, Interleave, MemoryImage};
//! use smc::{MsuConfig, SmcController, StreamDescriptor};
//!
//! let cfg = DeviceConfig::default();
//! let map = SystemMap::single(AddressMap::new(Interleave::Page, &cfg).unwrap());
//! let mut dev = MemorySystem::single(cfg);
//! let mut mem = MemoryImage::new();
//! for i in 0..1024 {
//!     mem.write_f64(i * 8, i as f64);
//! }
//!
//! let stream = StreamDescriptor::read("x", 0, 1, 1024);
//! let mut ctl = SmcController::new(vec![stream], map, MsuConfig::default());
//!
//! let mut got = Vec::new();
//! let mut now = 0;
//! while got.len() < 1024 {
//!     ctl.tick(now, &mut dev, &mut mem).expect("fault-free run");
//!     if let Some(bits) = ctl.cpu_read(0, now) {
//!         got.push(f64::from_bits(bits));
//!     }
//!     now += 1;
//! }
//! assert_eq!(got[1023], 1023.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod controller;
mod error;
mod fifo;
mod msu;
pub mod regs;
mod sbu;
mod scheduler;
mod stream;
mod watchdog;

pub use controller::SmcController;
pub use error::{LivelockReport, SmcError};
pub use fifo::{FifoState, StreamFifo};
pub use msu::{Msu, MsuConfig, MsuStats, PagePolicy};
pub use sbu::Sbu;
pub use scheduler::{BankAware, Policy, RoundRobin, SchedulingPolicy, ServiceView};
pub use stream::{PacketAccess, PacketIter, StreamDescriptor, StreamKind};
pub use watchdog::{Watchdog, DEFAULT_WATCHDOG_CYCLES};
