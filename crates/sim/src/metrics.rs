//! Telemetry collection and rendering for simulated runs.
//!
//! When [`SystemConfig::telemetry`](crate::SystemConfig) is set,
//! [`run_kernel`](crate::run_kernel) has the memory system record every
//! issued command and the controller record its [`Event`]s, takes both back
//! after the run, and assembles a [`RunTelemetry`]: the populated metrics
//! [`Registry`], the replayed [`Timeline`], and the raw controller event
//! stream. The
//! reporting helpers here turn those into JSONL dumps, text tables, and
//! Perfetto traces; nothing in this module runs on the simulation hot path.

use rdram::DeviceConfig;
use smc::SmcError;
use telemetry::{BankState, CycleAttribution, DerivedCounts, Event, MetricId, Registry, Timeline};

use crate::counters::Sources;
use crate::report::Table;
use crate::{RunResult, SimError};

/// Everything the telemetry layer captured from one run.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The populated metrics registry (every catalog metric, integer-only).
    pub registry: Registry,
    /// Cycle-resolved bank/bus timelines replayed from the command stream,
    /// one per channel (single-channel runs have exactly one). Each
    /// channel replays against its own bus triple; flattening them would
    /// merge buses that never contend.
    pub timelines: Vec<Timeline>,
    /// Controller-side events (FIFO depth samples, scheduling decisions,
    /// fault recoveries) in cycle order.
    pub events: Vec<Event>,
    /// Exclusive per-cycle cost attribution of the run (data / retry /
    /// turnaround / row overhead / bank conflict / idle, per bank and
    /// globally). Sums exactly to `run.cycles` per channel — a
    /// `C`-channel run accounts for `C x cycles` interface cycles, with
    /// per-bank totals indexed by global bank.
    pub attribution: CycleAttribution,
}

impl RunTelemetry {
    /// Assemble the telemetry for a completed run: replay the recorded
    /// command stream into per-channel [`Timeline`]s and populate the full
    /// metric catalog from the run's counters, the timelines, and
    /// `events`. `device` describes one channel; `channels` scales the
    /// system.
    pub fn collect(
        device: &DeviceConfig,
        channels: usize,
        run: &RunResult,
        events: Vec<Event>,
    ) -> Self {
        let channels = channels.max(1);
        let banks_per_channel = device.total_banks();
        let timelines: Vec<Timeline> = if channels > 1 {
            memsys::split_by_channel(&run.commands, channels, banks_per_channel)
                .iter()
                .map(|local| Timeline::from_commands(device, local))
                .collect()
        } else {
            vec![Timeline::from_commands(device, &run.commands)]
        };
        // The scalar counters come from the binding table (see
        // `counters.rs`); bank residency, event counts and the
        // histograms are filled here.
        let mut registry = Registry::new();
        for timeline in &timelines {
            registry.add(
                MetricId::BankActivatingCycles,
                timeline.residency(BankState::Activating),
            );
            registry.add(
                MetricId::BankOpenCycles,
                timeline.residency(BankState::Open),
            );
            registry.add(
                MetricId::BankPrechargingCycles,
                timeline.residency(BankState::Precharging),
            );
            for len in timeline.open_span_lengths() {
                registry.observe(MetricId::OpenSpanCycles, len);
            }
            for gap in timeline.data_gaps() {
                registry.observe(MetricId::DataGapCycles, gap);
            }
        }
        for e in &events {
            match e {
                Event::Refresh { .. } => registry.inc(MetricId::RefreshesIssued),
                Event::WatchdogTrip { .. } => registry.inc(MetricId::WatchdogTrips),
                Event::FifoDepth { occupancy, .. } => {
                    registry.observe(MetricId::FifoOccupancy, *occupancy);
                }
                Event::FifoSwitch { .. }
                | Event::DataNack { .. }
                | Event::InjectedStall { .. }
                | Event::BankDegraded { .. }
                | Event::SpeculativeActivate { .. } => {}
            }
        }

        // Attribute each channel independently (its own DATA bus, its own
        // turnaround gaps) against the full run span, then merge: per-bank
        // totals concatenate into the global bank space and the merged
        // total is `channels x cycles`. Fault incidents naming a bank are
        // routed to its channel; incidents with no bank land on channel 0
        // so they are counted exactly once.
        let attribution = if channels > 1 {
            let parts: Vec<CycleAttribution> = timelines
                .iter()
                .enumerate()
                .map(|(ch, tl)| {
                    let local_events: Vec<Event> = events
                        .iter()
                        .filter_map(|e| match *e {
                            Event::InjectedStall { cycle } => {
                                (ch == 0).then_some(Event::InjectedStall { cycle })
                            }
                            Event::DataNack { cycle, bank } => match bank {
                                Some(b) if b / banks_per_channel == ch => Some(Event::DataNack {
                                    cycle,
                                    bank: Some(b % banks_per_channel),
                                }),
                                Some(_) => None,
                                None => (ch == 0).then_some(Event::DataNack { cycle, bank: None }),
                            },
                            Event::FifoDepth { .. }
                            | Event::FifoSwitch { .. }
                            | Event::BankDegraded { .. }
                            | Event::SpeculativeActivate { .. }
                            | Event::Refresh { .. }
                            | Event::WatchdogTrip { .. } => None,
                        })
                        .collect();
                    CycleAttribution::from_run(device, tl, &local_events, run.cycles)
                })
                .collect();
            CycleAttribution::merge(&parts)
        } else {
            CycleAttribution::from_run(device, &timelines[0], &events, run.cycles)
        };
        Sources {
            attribution: Some(*attribution.global()),
            ..Sources::run(run)
        }
        .record(&mut registry);

        RunTelemetry {
            registry,
            timelines,
            events,
            attribution,
        }
    }

    /// The first channel's timeline — the whole run for single-channel
    /// systems (backwards-compatible accessor for the common case).
    pub fn timeline(&self) -> &Timeline {
        &self.timelines[0]
    }

    /// Replay-derived counters summed across channels, field-for-field
    /// comparable with the channel-aggregated [`rdram::DeviceStats`].
    pub fn derived_counts(&self) -> DerivedCounts {
        let mut counts = DerivedCounts::default();
        for tl in &self.timelines {
            counts.absorb(tl.counts());
        }
        counts
    }

    /// Render the Chrome trace-event / Perfetto JSON for this run
    /// (channel 0's buses and banks on multi-channel systems).
    pub fn perfetto_json(&self) -> String {
        telemetry::perfetto::render(self.timeline(), &self.events)
    }
}

/// A registry for a run that *failed*: the livelock watchdog report and
/// recovery counters routed through the same catalog, so `--metrics-out`
/// still produces a dump when the run ends in a structured error.
pub fn failure_metrics(err: &SimError) -> Registry {
    let mut registry = Registry::new();
    if let SimError::Controller(SmcError::Livelock(report)) = err {
        registry.inc(MetricId::WatchdogTrips);
        registry.add(MetricId::RunCycles, report.now);
        registry.add(MetricId::LivelockStalledFor, report.stalled_for);
        registry.add(MetricId::LivelockInFlight, report.in_flight as u64);
        registry.add(MetricId::LivelockPending, report.pending as u64);
        registry.add(MetricId::LivelockOpenBanks, report.open_banks.len() as u64);
        for &occ in &report.fifo_occupancy {
            registry.observe(MetricId::FifoOccupancy, occ as u64);
        }
        registry.set(MetricId::FifoCount, report.fifo_occupancy.len() as u64);
    }
    registry
}

/// Render a registry as a column-aligned [`Table`]: one row per scalar
/// metric, then one summary row per histogram.
pub fn metrics_table(registry: &Registry) -> Table {
    let mut t = Table::new(vec![
        "metric".into(),
        "kind".into(),
        "value".into(),
        "unit".into(),
    ]);
    for (def, v) in registry.scalars() {
        t.row(vec![
            def.name.into(),
            def.kind.label().into(),
            v.to_string(),
            def.unit.into(),
        ]);
    }
    for (def, h) in registry.histograms() {
        let value = match (h.min(), h.max()) {
            (Some(min), Some(max)) => {
                format!("n={} sum={} min={min} max={max}", h.count(), h.sum())
            }
            _ => "n=0".into(),
        };
        t.row(vec![
            def.name.into(),
            def.kind.label().into(),
            value,
            def.unit.into(),
        ]);
    }
    t
}

/// Parse a metrics JSONL dump (as written by `smcsim --metrics-out`) back
/// into a [`Table`] — the `smcsim report --metrics` path.
///
/// # Errors
///
/// A human-readable message naming the first malformed line.
pub fn table_from_jsonl(text: &str) -> Result<Table, String> {
    let mut t = Table::new(vec![
        "metric".into(),
        "kind".into(),
        "value".into(),
        "unit".into(),
    ]);
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        let field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(|f| f.as_str())
                .map(String::from)
                .ok_or_else(|| format!("line {}: missing string field {key:?}", lineno + 1))
        };
        let metric = field("metric")?;
        let kind = field("kind")?;
        let unit = field("unit")?;
        let value = if let Some(val) = v.get("value").and_then(|n| n.as_u64()) {
            val.to_string()
        } else if let Some(count) = v.get("count").and_then(|n| n.as_u64()) {
            if count == 0 {
                "n=0".into()
            } else {
                format!(
                    "n={count} sum={} min={} max={}",
                    v.get("sum").and_then(|n| n.as_u64()).unwrap_or(0),
                    v.get("min").and_then(|n| n.as_u64()).unwrap_or(0),
                    v.get("max").and_then(|n| n.as_u64()).unwrap_or(0),
                )
            }
        } else {
            return Err(format!(
                "line {}: neither a scalar \"value\" nor a histogram \"count\"",
                lineno + 1
            ));
        };
        t.row(vec![metric, kind, value, unit]);
    }
    if t.is_empty() {
        return Err("metrics dump contains no metric lines".into());
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Kernel;
    use smc::LivelockReport;

    use crate::{run_kernel, MemorySystem, SystemConfig};

    #[test]
    fn collect_populates_the_catalog_from_a_real_run() {
        let cfg = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 16).with_telemetry();
        let r = run_kernel(Kernel::Copy, 64, 1, &cfg).expect("fault-free run");
        let tel = r.telemetry.as_ref().expect("telemetry requested");
        let reg = &tel.registry;
        assert_eq!(reg.value(MetricId::RunCycles), r.cycles);
        assert_eq!(reg.value(MetricId::Activates), r.device_stats.activates);
        assert_eq!(
            reg.value(MetricId::DataBusyCycles),
            r.device_stats.data_busy_cycles
        );
        assert_eq!(reg.value(MetricId::FifoCount), 2);
        assert!(reg.value(MetricId::BankCount) > 0);
        // The FIFO occupancy changed at least once over the run.
        let h = reg.histogram(MetricId::FifoOccupancy).expect("histogram");
        assert!(h.count() > 0);
        // Bank residency was reconstructed.
        assert!(reg.value(MetricId::BankOpenCycles) > 0);
    }

    #[test]
    fn attribution_partitions_the_run_and_reconciles() {
        for memory in [
            MemorySystem::CacheLineInterleaved,
            MemorySystem::PageInterleaved,
        ] {
            let cfg = SystemConfig::smc(memory, 64).with_telemetry();
            let r = run_kernel(Kernel::Vaxpy, 128, 1, &cfg).expect("fault-free, audited run");
            let tel = r.telemetry.as_ref().expect("telemetry requested");
            assert_eq!(tel.attribution.total(), r.cycles);
            // The registry mirrors the attribution globals.
            let g = tel.attribution.global();
            assert_eq!(tel.registry.value(MetricId::AttrDataCycles), g.data);
            assert_eq!(tel.registry.value(MetricId::AttrIdleCycles), g.idle);
            let sum = tel.registry.value(MetricId::AttrDataCycles)
                + tel.registry.value(MetricId::AttrRetryCycles)
                + tel.registry.value(MetricId::AttrTurnaroundCycles)
                + tel.registry.value(MetricId::AttrRowOverheadCycles)
                + tel.registry.value(MetricId::AttrBankConflictCycles)
                + tel.registry.value(MetricId::AttrIdleCycles);
            assert_eq!(sum, r.cycles, "{memory:?}: categories sum to the run");
            // vaxpy writes then reads: turnaround cycles must appear.
            assert!(g.turnaround > 0, "{memory:?}");
        }
    }

    #[test]
    fn failure_metrics_route_the_livelock_report() {
        let report = LivelockReport {
            now: 70_000,
            stalled_for: 50_000,
            last_command: None,
            last_command_cycle: 20_000,
            open_banks: vec![(1, 5), (3, 2)],
            fifo_occupancy: vec![7, 0, 3],
            in_flight: 2,
            pending: 4,
        };
        let err = SimError::Controller(SmcError::Livelock(Box::new(report)));
        let reg = failure_metrics(&err);
        assert_eq!(reg.value(MetricId::WatchdogTrips), 1);
        assert_eq!(reg.value(MetricId::LivelockStalledFor), 50_000);
        assert_eq!(reg.value(MetricId::LivelockInFlight), 2);
        assert_eq!(reg.value(MetricId::LivelockPending), 4);
        assert_eq!(reg.value(MetricId::LivelockOpenBanks), 2);
        assert_eq!(
            reg.histogram(MetricId::FifoOccupancy).map(|h| h.count()),
            Some(3)
        );
        // Non-livelock errors still produce a (zeroed) dump.
        let zeroed = failure_metrics(&SimError::Config("bad".into()));
        assert_eq!(zeroed.value(MetricId::WatchdogTrips), 0);
    }

    #[test]
    fn jsonl_round_trips_into_a_table() {
        let mut reg = Registry::new();
        reg.add(MetricId::RunCycles, 4242);
        reg.observe(MetricId::FifoOccupancy, 9);
        let table = table_from_jsonl(&reg.to_jsonl()).expect("valid dump");
        let text = table.render();
        assert!(text.contains("run.cycles"), "{text}");
        assert!(text.contains("4242"), "{text}");
        assert!(text.contains("n=1 sum=9 min=9 max=9"), "{text}");

        assert!(table_from_jsonl("").is_err());
        assert!(table_from_jsonl("{not json").is_err());
        assert!(table_from_jsonl("{\"metric\":\"x\"}").is_err());
    }

    #[test]
    fn metrics_table_covers_scalars_and_histograms() {
        let cfg = SystemConfig::natural_order(MemorySystem::PageInterleaved).with_telemetry();
        let r = run_kernel(Kernel::Daxpy, 32, 1, &cfg).expect("fault-free run");
        let tel = r.telemetry.as_ref().expect("telemetry requested");
        let text = metrics_table(&tel.registry).render();
        assert!(text.contains("device.activates"), "{text}");
        assert!(text.contains("baseline.line_transfers"), "{text}");
        assert!(text.contains("device.open_span_cycles"), "{text}");
    }
}
