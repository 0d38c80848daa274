//! The predecessor system: an SMC on **fast-page-mode DRAM**.
//!
//! Before the Direct RDRAM study, the authors built two ASIC
//! proof-of-concept SMC systems around an Intel i860XP with "two banks of
//! 1 Mbit x 36 fast-page mode components with 1 Kbyte pages", and reported
//! that the SMC exploits "over 90% of the attainable bandwidth for
//! long-vector computations", with "speedups by factors of two to 13 over
//! normal caching and of up to 23 over non-caching accesses issued in the
//! natural order of the computation" (Section 3). The paper's simulation
//! methodology is validated against that hardware, so this crate rebuilds
//! the earlier system at the same level of abstraction:
//!
//! * [`FpmMemory`] — word-interleaved fast-page-mode DRAM banks timed in
//!   nanoseconds (page-mode hit `tPC`, page miss `tRC`, first-access
//!   latency `tRAC`), with per-bank page buffers that thrash when accesses
//!   alternate between vectors;
//! * [`FpmSmc`] — a stream memory controller that services per-stream
//!   FIFOs in round-robin bursts, restoring page locality;
//! * [`natural_order_ns`] — the two comparators: cacheline fills ("normal
//!   caching") and single-word accesses ("non-caching") in the
//!   computation's natural order.
//!
//! It also exposes the asymptotic contrast the paper's Section 5.2 draws:
//! the FPM SMC is limited by DRAM *page misses* per burst, while the Direct
//! RDRAM SMC is limited by bus *turnaround* — compare
//! [`FpmRunResult::attainable_fraction`] against
//! `analytic`'s `smc_asymptotic_bound`.
//!
//! # Example
//!
//! ```
//! use fpm::{FpmMemory, FpmSmc, SystemSpec};
//! use smc::StreamDescriptor;
//!
//! let spec = SystemSpec::default(); // 2 banks, 1 KB pages, word-interleaved
//! let streams = vec![
//!     StreamDescriptor::read("x", 0, 1, 1024),
//!     StreamDescriptor::write("y", 1 << 20, 1, 1024),
//! ];
//! let mut smc = FpmSmc::new(spec, streams, 64);
//! let result = smc.run();
//! assert!(result.attainable_fraction() > 0.9, "{}", result.attainable_fraction());
//! ```

mod memory;
mod natural;
mod smc_ctl;

pub use memory::{FpmMemory, SystemSpec};
pub use natural::{natural_order_ns, NaturalMode};
pub use smc_ctl::{FpmRunResult, FpmSmc};
