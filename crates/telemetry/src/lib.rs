//! Cycle-resolved telemetry for the Direct RDRAM simulator.
//!
//! The paper's argument is about *where cycles go* — page hits vs. misses,
//! bus turnarounds, precharge overlap, FIFO startup delay — yet aggregate
//! counters alone cannot attribute a bandwidth loss to its cause. This
//! crate adds the missing observability layer, designed around one rule:
//! **zero cost when disabled**. Nothing here sits on the simulator's hot
//! path; everything is derived from the [`rdram::CommandRecord`] stream the
//! memory system records, plus lightweight controller events.
//!
//! The pieces:
//!
//! * [`catalog`] — the static metric-id catalog: every metric the registry
//!   can hold, with kind, unit, and a help string.
//! * [`registry`] — an integer-only metrics [`Registry`]
//!   (counters, gauges, log2-bucketed histograms), consistent with the
//!   repository's integer-cycle lint. Serializes to JSONL.
//! * [`event`] — controller-side [`Event`]s (FIFO depth samples,
//!   scheduling decisions, fault-recovery and watchdog incidents), which
//!   each controller keeps and hands back after the run.
//! * [`timeline`] — replays a recorded command stream against the device's
//!   timing to reconstruct per-bank state residency
//!   (idle/activating/open/precharging) and ROW/COL/DATA bus occupancy
//!   windows, yielding [`DerivedCounts`] that must
//!   [`reconcile`] with the device's own
//!   [`rdram::DeviceStats`] — an end-to-end audit of the accounting.
//! * [`diagram`] — renders one channel's command record as an ASCII packet
//!   timing diagram (the paper's Figures 5 and 6), placing each packet
//!   with the same per-record replay step as [`timeline`].
//! * [`perfetto`] — exports a timeline as Chrome trace-event JSON loadable
//!   in `ui.perfetto.dev`, one track per bank, bus, and FIFO, plus a
//!   structural [`validate`](perfetto::validate) checker.
//! * [`attribution`] — classifies every cycle of a run into exclusive cost
//!   categories (data / retry / turnaround / row overhead / bank conflict
//!   / idle), per bank and globally, with an exact-partition invariant and
//!   a [`DeviceStats`](rdram::DeviceStats) cross-check.
//! * [`exposition`] — Prometheus text-format rendering of the registry,
//!   with a structural [`parse`](exposition::parse) validator for CI.

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

pub mod attribution;
pub mod catalog;
pub mod diagram;
pub mod event;
pub mod exposition;
pub mod perfetto;
pub mod registry;
pub mod timeline;

pub use attribution::{CategoryTotals, CycleAttribution, CycleCategory};
pub use catalog::{MetricDef, MetricId, MetricKind, CATALOG};
pub use event::Event;
pub use registry::{Log2Histogram, Registry};
pub use timeline::{reconcile, BankState, BusOp, BusSpan, DerivedCounts, Span, Timeline};
