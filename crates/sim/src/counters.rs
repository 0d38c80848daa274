//! The counter bindings: every counter a run or a serve reports, declared
//! once.
//!
//! A [`Binding`] row names the catalog metric it writes, the
//! [`campaign::STATS`] field it fills, or both, and reads its value from one
//! source: a [`RunResult`], the run's global attribution
//! ([`CategoryTotals`]), the memory system's degraded-mode accounting
//! ([`ChannelFaultStats`]) or a [`ServeReport`]. [`Sources`] holds whichever
//! of those one run or serve produced. One fold over [`BINDINGS`] builds the
//! [`RunStats`] a campaign records, and one record over it writes the scalar
//! metrics of a telemetry [`Registry`]. A new counter reaches campaign
//! records, `--metrics-out` and the Prometheus exposition through one
//! `STATS` row, one catalog row and one row here.
//!
//! Histograms, the timeline's bank residency, event counts and the livelock
//! dump are filled where their data lives ([`crate::metrics`] and
//! [`crate::serve`]).

// No-panic: this file feeds deterministic run records.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

use baseline::BaselineResult;
use campaign::{Group, RunPoint, RunStats, STATS};
use memsys::ChannelFaultStats;
use smc::MsuStats;
use telemetry::{CategoryTotals, MetricId, MetricKind, Registry};
use tenancy::ServeReport;

use crate::RunResult;

/// Where a [`Binding`] reads its value.
#[derive(Debug, Clone, Copy)]
pub enum Read {
    /// From a completed kernel run.
    Run(fn(&RunResult) -> u64),
    /// From the run's global cycle attribution.
    Attribution(fn(&CategoryTotals) -> u64),
    /// From the memory system's degraded-mode accounting.
    Chaos(fn(&ChannelFaultStats) -> u64),
    /// From a multi-tenant serve report.
    Serve(fn(&ServeReport) -> u64),
}

/// One counter: the catalog metric it writes, the `RunStats` field it
/// fills, and how to read it.
#[derive(Debug, Clone, Copy)]
pub struct Binding {
    /// The catalog metric written, if any.
    pub metric: Option<MetricId>,
    /// The [`campaign::STATS`] field filled, if any.
    pub stat: Option<&'static str>,
    /// How to read the value.
    pub read: Read,
}

impl Binding {
    /// The row's value, when `sources` holds what it reads.
    pub fn value(&self, sources: &Sources<'_>) -> Option<u64> {
        match self.read {
            Read::Run(f) => sources.run.map(f),
            Read::Attribution(f) => sources.attribution.as_ref().map(f),
            Read::Chaos(f) => sources.chaos.as_ref().map(f),
            Read::Serve(f) => sources.serve.map(f),
        }
    }
}

const fn row(metric: MetricId, stat: &'static str, read: Read) -> Binding {
    Binding {
        metric: Some(metric),
        stat: Some(stat),
        read,
    }
}

const fn metric(metric: MetricId, read: Read) -> Binding {
    Binding {
        metric: Some(metric),
        stat: None,
        read,
    }
}

const fn stat(stat: &'static str, read: Read) -> Binding {
    Binding {
        metric: None,
        stat: Some(stat),
        read,
    }
}

/// `f` of the SMC's MSU counters; 0 for a natural-order run.
fn msu(r: &RunResult, f: impl Fn(&MsuStats) -> u64) -> u64 {
    r.msu_stats.as_ref().map_or(0, f)
}

/// `f` of the natural-order controller's summary; 0 for an SMC run.
fn natural(r: &RunResult, f: impl Fn(&BaselineResult) -> u64) -> u64 {
    r.baseline.as_ref().map_or(0, f)
}

/// Every counter binding, by source. A `RunStats` field may be bound once
/// per source (a run and a serve both report `cycles`); a metric is bound
/// once.
#[rustfmt::skip]
pub const BINDINGS: &[Binding] = {
    use MetricId::*;
    use Read::*;
    &[
        // A kernel run: its device, the controller that ran, the system.
        row(RunCycles, "cycles", Run(|r| r.cycles)),
        stat("percent_peak_milli", Run(|r| (r.percent_peak() * 1000.0).round() as u64)),
        row(UsefulWords, "useful_words", Run(|r| r.useful_words)),
        row(Activates, "activates", Run(|r| r.device_stats.activates)),
        metric(Precharges, Run(|r| r.device_stats.precharges)),
        metric(AutoPrecharges, Run(|r| r.device_stats.auto_precharges)),
        metric(ReadHits, Run(|r| r.device_stats.read_hits)),
        metric(WriteHits, Run(|r| r.device_stats.write_hits)),
        row(ReadPackets, "read_packets", Run(|r| r.device_stats.read_packets)),
        row(WritePackets, "write_packets", Run(|r| r.device_stats.write_packets)),
        row(Turnarounds, "turnarounds", Run(|r| r.device_stats.turnarounds)),
        metric(DataBusyCycles, Run(|r| r.device_stats.data_busy_cycles)),
        row(FifoSwitches, "fifo_switches", Run(|r| msu(r, |m| m.fifo_switches))),
        row(MsuIdleCycles, "idle_cycles",
            Run(|r| msu(r, |m| m.idle_cycles) + natural(r, |b| b.idle_cycles))),
        metric(SpeculativeActivates, Run(|r| msu(r, |m| m.speculative_activates))),
        row(DataNacks, "data_nacks",
            Run(|r| msu(r, |m| m.data_nacks) + natural(r, |b| b.data_nacks))),
        row(InjectedStallCycles, "injected_stall_cycles",
            Run(|r| msu(r, |m| m.injected_stall_cycles))),
        row(DegradedBanks, "degraded_banks", Run(|r| msu(r, |m| m.degraded_banks))),
        metric(LineTransfers, Run(|r| natural(r, |b| b.line_transfers))),
        metric(FifoCount, Run(|r| msu(r, |_| r.kernel.total_streams()))),
        metric(BankCount, Run(|r| r.bank_data_cycles.len() as u64)),
        // The run's cycle attribution.
        row(AttrDataCycles, "attr_data_cycles", Attribution(|a| a.data)),
        row(AttrRetryCycles, "attr_retry_cycles", Attribution(|a| a.retry)),
        row(AttrTurnaroundCycles, "attr_turnaround_cycles", Attribution(|a| a.turnaround)),
        row(AttrRowOverheadCycles, "attr_row_overhead_cycles", Attribution(|a| a.row_overhead)),
        row(AttrBankConflictCycles, "attr_bank_conflict_cycles",
            Attribution(|a| a.bank_conflict)),
        row(AttrIdleCycles, "attr_idle_cycles", Attribution(|a| a.idle)),
        // Degraded-mode accounting under a chaos plan.
        row(FaultDegradedRequests, "chaos_degraded_commands", Chaos(|c| c.degraded_commands)),
        row(FaultDeferredRequests, "chaos_deferred_commands", Chaos(|c| c.deferred_commands)),
        row(FaultDeferredCycles, "chaos_deferred_cycles", Chaos(|c| c.deferred_cycles)),
        row(FaultBrownoutPenaltyCycles, "chaos_brownout_penalty_cycles",
            Chaos(|c| c.brownout_penalty_cycles)),
        row(FaultDevfailPenaltyCycles, "chaos_devfail_penalty_cycles",
            Chaos(|c| c.devfail_penalty_cycles)),
        row(RecoveryOutagesObserved, "chaos_outages_observed", Chaos(|c| c.outages_observed)),
        row(RecoveryMttrCycles, "chaos_mttr_cycles", Chaos(|c| c.mttr_cycles)),
        // A multi-tenant serve. Device counters stay per request.
        stat("cycles", Serve(|s| s.cycles)),
        metric(ServeSubmitted, Serve(|s| s.totals().0)),
        row(ServeCompleted, "serve_completed", Serve(|s| s.totals().1)),
        metric(ServeFailed, Serve(|s| s.totals().2)),
        row(ServeShed, "serve_shed", Serve(|s| s.totals().3)),
        row(ServeRejected, "serve_rejected", Serve(|s| s.totals().4)),
        row(ServeDeadlineMisses, "serve_deadline_misses", Serve(|s| s.totals().5)),
        row(ServeUsefulWords, "useful_words", Serve(|s| s.totals().6)),
        row(ServeStarvationReports, "serve_starvation", Serve(|s| s.starvation.len() as u64)),
        metric(ServeTenants, Serve(|s| s.tenants.len() as u64)),
        row(ServeFairnessMilli, "serve_fairness_milli", Serve(ServeReport::fairness_milli)),
        stat("serve_budget_violations", Serve(|s| s.budget_violations)),
        row(ServeRetries, "serve_retries", Serve(|s| s.tenants.iter().map(|t| t.retries).sum())),
        row(ServeRetryExhausted, "serve_retry_exhausted",
            Serve(|s| s.tenants.iter().map(|t| t.retry_exhausted).sum())),
    ]
};

/// What one run or serve produced. A binding whose source is absent reads
/// nothing.
#[derive(Default)]
pub struct Sources<'a> {
    /// A completed kernel run.
    pub run: Option<&'a RunResult>,
    /// The run's global cycle attribution.
    pub attribution: Option<CategoryTotals>,
    /// Degraded-mode accounting, summed over channels (and requests).
    pub chaos: Option<ChannelFaultStats>,
    /// A multi-tenant serve report.
    pub serve: Option<&'a ServeReport>,
}

impl<'a> Sources<'a> {
    /// A kernel run: its counters, its attribution when it collected
    /// telemetry, and its degraded-mode accounting.
    pub fn run(result: &'a RunResult) -> Self {
        Sources {
            run: Some(result),
            attribution: result.telemetry.as_ref().map(|t| *t.attribution.global()),
            chaos: Some(result.chaos_total()),
            serve: None,
        }
    }

    /// A serve: its report and, when given, the executor's degraded-mode
    /// accounting.
    pub fn serve(report: &'a ServeReport, chaos: Option<ChannelFaultStats>) -> Self {
        Sources {
            serve: Some(report),
            chaos,
            ..Sources::default()
        }
    }

    /// The campaign record of `point`: every bound `STATS` field, with the
    /// counters of each group `point` does not write (see
    /// [`Group::active`](campaign::Group::active)) left at zero.
    pub fn fold(&self, point: &RunPoint) -> RunStats {
        let mut stats = RunStats::default();
        for binding in BINDINGS {
            let stat = binding
                .stat
                .and_then(|name| STATS.iter().find(|s| s.name == name));
            if let (Some(stat), Some(value)) = (stat, binding.value(self)) {
                (stat.set)(&mut stats, value);
            }
        }
        for stat in STATS.iter().filter(|s| !s.group.active(point)) {
            (stat.set)(&mut stats, 0);
        }
        stats
    }

    /// The chaos block of a report: the value of every bound
    /// [`Group::Chaos`] counter whose source is present, in table order,
    /// keyed by its `STATS` name without the `chaos_` or `serve_` prefix.
    pub fn chaos_block(&self) -> Vec<(&'static str, u64)> {
        let chaos = |name: &str| {
            STATS
                .iter()
                .any(|s| s.name == name && s.group == Group::Chaos)
        };
        BINDINGS
            .iter()
            .filter_map(|binding| {
                let name = binding.stat.filter(|&name| chaos(name))?;
                let key = name
                    .strip_prefix("chaos_")
                    .or_else(|| name.strip_prefix("serve_"));
                Some((key.unwrap_or(name), binding.value(self)?))
            })
            .collect()
    }

    /// Write every bound metric into `registry`.
    pub fn record(&self, registry: &mut Registry) {
        for binding in BINDINGS {
            if let (Some(id), Some(value)) = (binding.metric, binding.value(self)) {
                write(registry, id, value);
            }
        }
    }
}

/// Write `value` to `id` as the catalog's kind says: add to a counter, set
/// a gauge. No binding names a histogram.
fn write(registry: &mut Registry, id: MetricId, value: u64) {
    match id.def().kind {
        MetricKind::Counter => registry.add(id, value),
        MetricKind::Gauge => registry.set(id, value),
        MetricKind::Histogram => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySystem, SystemConfig};
    use kernels::Kernel;
    use telemetry::CATALOG;

    /// The scalar catalog metrics no binding writes: the timeline's bank
    /// residency and the event counts (`RunTelemetry::collect`), and the
    /// livelock dump (`failure_metrics`).
    const FILLED_ELSEWHERE: &[MetricId] = &[
        MetricId::BankActivatingCycles,
        MetricId::BankOpenCycles,
        MetricId::BankPrechargingCycles,
        MetricId::RefreshesIssued,
        MetricId::WatchdogTrips,
        MetricId::LivelockStalledFor,
        MetricId::LivelockInFlight,
        MetricId::LivelockPending,
        MetricId::LivelockOpenBanks,
    ];

    #[test]
    fn every_stats_row_is_bound_and_every_binding_names_one() {
        for binding in BINDINGS {
            let Some(name) = binding.stat else { continue };
            assert!(
                STATS.iter().any(|s| s.name == name),
                "`{name}` is not a campaign::STATS row"
            );
        }
        for stat in STATS {
            assert!(
                BINDINGS.iter().any(|b| b.stat == Some(stat.name)),
                "STATS row `{}` has no binding",
                stat.name
            );
        }
        // A field bound twice reads a different source each time, so one
        // fold never writes it twice.
        for (i, a) in BINDINGS.iter().enumerate() {
            for b in &BINDINGS[i + 1..] {
                if a.stat.is_some() && a.stat == b.stat {
                    assert_ne!(
                        std::mem::discriminant(&a.read),
                        std::mem::discriminant(&b.read),
                        "{:?}",
                        a.stat
                    );
                }
            }
        }
    }

    #[test]
    fn every_scalar_metric_is_written_by_exactly_one_row_or_elsewhere() {
        for def in CATALOG {
            let rows = BINDINGS.iter().filter(|b| b.metric == Some(def.id)).count();
            let elsewhere = FILLED_ELSEWHERE.contains(&def.id);
            let expected = match def.kind {
                MetricKind::Histogram => 0,
                MetricKind::Counter | MetricKind::Gauge => usize::from(!elsewhere),
            };
            assert_eq!(rows, expected, "{} is bound by {rows} rows", def.name);
            if def.kind == MetricKind::Histogram {
                assert!(!elsewhere, "{} is a histogram", def.name);
            }
        }
    }

    #[test]
    fn fold_zeroes_the_groups_a_point_does_not_write() {
        let chaos = ChannelFaultStats {
            degraded_commands: 5,
            ..ChannelFaultStats::default()
        };
        let sources = Sources {
            chaos: Some(chaos),
            ..Sources::default()
        };
        let healthy = RunPoint::default();
        assert_eq!(sources.fold(&healthy).chaos_degraded_commands, 0);
        let chaotic = RunPoint {
            chaos: "outage:0:0:10".into(),
            ..healthy
        };
        assert_eq!(sources.fold(&chaotic).chaos_degraded_commands, 5);
    }

    #[test]
    fn every_row_writes_its_metric_with_the_catalog_kind() {
        // The registry ignores a write of the wrong kind, so a row whose
        // write lands proves the kinds agree.
        for binding in BINDINGS {
            let Some(id) = binding.metric else { continue };
            let mut registry = Registry::new();
            write(&mut registry, id, 7);
            write(&mut registry, id, 7);
            let expected = match id.def().kind {
                MetricKind::Counter => 14,
                MetricKind::Gauge => 7,
                MetricKind::Histogram => panic!("{} is a histogram", id.def().name),
            };
            assert_eq!(registry.value(id), expected, "{}", id.def().name);
        }
        // A telemetered run's registry carries every run, attribution and
        // chaos row's value; this chaos plan makes every chaos row nonzero.
        let plan = "brownout:0:100:1500:4;outage:1:400:600;devfail:1:0:2000:2";
        let cfg = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32)
            .with_channels(2)
            .with_placement(memsys::Placement::ChannelInterleaved { block_bytes: 1024 })
            .with_chaos(faults::FaultPlan::parse(plan).unwrap(), 0)
            .with_telemetry();
        let result = crate::run_kernel(Kernel::Copy, 1024, 1, &cfg).unwrap();
        let registry = &result.telemetry.as_ref().unwrap().registry;
        let sources = Sources::run(&result);
        for binding in BINDINGS {
            let Some(id) = binding.metric else { continue };
            let value = binding.value(&sources);
            match binding.read {
                Read::Serve(_) => continue,
                Read::Chaos(_) => assert!(value > Some(0), "{} is zero", id.def().name),
                Read::Run(_) | Read::Attribution(_) => {}
            }
            assert_eq!(Some(registry.value(id)), value, "{}", id.def().name);
        }
    }
}
