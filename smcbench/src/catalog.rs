//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `smcbench --list` prints them
//! and `BENCHMARK.json` must agree with them (the crate's tests check it).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The label used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric repeats exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated or counted: identical on every run of one seed.
    Exact,
    /// Measured on the host (time, memory): subject to host noise.
    Host,
}

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricInfo {
    /// Metric name as printed and stored.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for per-layer
    /// metrics, which carry no bound).
    pub bound: Option<f64>,
    /// Exact or host-measured.
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: Kind,
) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: Some(bound),
        kind,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: None,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// End-to-end metrics, reported by every untraced run.
///
/// The host-measured bounds are wide because, on a shared 2-core host, a
/// run's median pass time drifts by up to 28% over minutes (see the
/// README).
/// Exact metrics carry a small bound rather than none: the seed moves
/// every stream length, so they vary (by under 0.3%) from seed to seed,
/// never from run to run of one seed.
pub const END_TO_END: &[MetricInfo] = &[
    e2e("wall_s", "s", Lower, 0.25, Host),
    e2e("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25, Host),
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("peak_rss_mib", "MiB", Lower, 0.25, Host),
    e2e("sim_cycles", "cycles", Lower, 0.02, Exact),
    e2e("bw_permille", "permille", Higher, 0.01, Exact),
    e2e("served_permille", "permille", Higher, 0.01, Exact),
];

/// Per-layer metrics, reported by every traced run (zero where the
/// workload does not reach the layer).
#[rustfmt::skip]
pub const PER_LAYER: &[MetricInfo] = &[
    layer("cpu.tick_calls", "count", Lower, Exact),
    layer("cpu.tick_ns", "ns", Lower, Host),
    layer("cpu.ns_per_tick", "ns/tick", Lower, Host),
    layer("smc.tick_calls", "count", Lower, Exact),
    layer("smc.tick_ns", "ns", Lower, Host),
    layer("smc.ns_per_tick", "ns/tick", Lower, Host),
    layer("smc.idle_tick_permille", "permille", Lower, Exact),
    layer("smc.fifo_switches", "count", Lower, Exact),
    layer("smc.packets", "count", Lower, Exact),
    layer("smc.data_nacks", "count", Lower, Exact),
    layer("baseline.run_ns", "ns", Lower, Host),
    layer("baseline.ns_per_cycle", "ns/cycle", Lower, Host),
    layer("baseline.idle_cycle_permille", "permille", Lower, Exact),
    layer("baseline.line_transfers", "count", Lower, Exact),
    layer("memsys.commands", "count", Lower, Exact),
    layer("memsys.replay_ns", "ns", Lower, Host),
    layer("memsys.ns_per_command", "ns/command", Lower, Host),
    layer("memsys.channels", "count", Higher, Exact),
    layer("memsys.chaos_degraded_commands", "count", Lower, Exact),
    layer("memsys.chaos_deferred_cycles", "cycles", Lower, Exact),
    layer("memsys.outages_observed", "count", Lower, Exact),
    layer("rdram.activates", "count", Lower, Exact),
    layer("rdram.turnarounds", "count", Lower, Exact),
    layer("rdram.page_hit_permille", "permille", Higher, Exact),
    layer("rdram.data_busy_permille", "permille", Higher, Exact),
    layer("kernels.reference_ns", "ns", Lower, Host),
    layer("sim.verify_ns", "ns", Lower, Host),
    layer("sim.runner_other_ns", "ns", Lower, Host),
    layer("analytic.sim_over_bound_permille", "permille", Higher, Exact),
    layer("telemetry.collect_ns", "ns", Lower, Host),
    layer("telemetry.attr_data_permille", "permille", Higher, Exact),
    layer("telemetry.attr_turnaround_permille", "permille", Lower, Exact),
    layer("telemetry.attr_row_overhead_permille", "permille", Lower, Exact),
    layer("telemetry.attr_bank_conflict_permille", "permille", Lower, Exact),
    layer("telemetry.attr_retry_permille", "permille", Lower, Exact),
    layer("telemetry.attr_idle_permille", "permille", Lower, Exact),
    layer("checker.commands", "count", Lower, Exact),
    layer("checker.check_ns", "ns", Lower, Host),
    layer("checker.ns_per_command", "ns/command", Lower, Host),
    layer("checker.violations", "count", Lower, Exact),
    layer("faults.data_nacks", "count", Lower, Exact),
    layer("faults.stall_cycles", "cycles", Lower, Exact),
    layer("faults.degraded_banks", "count", Lower, Exact),
    layer("campaign.points", "count", Higher, Exact),
    layer("campaign.expand_ns", "ns", Lower, Host),
    layer("campaign.wall_ns_1w", "ns", Lower, Host),
    layer("campaign.wall_ns_2w", "ns", Lower, Host),
    layer("campaign.speedup_2w_milli", "milli", Higher, Host),
    layer("campaign.worker_util_permille", "permille", Higher, Host),
    layer("campaign.run_inflation_permille", "permille", Lower, Host),
    layer("campaign.store_ns", "ns", Lower, Host),
    layer("campaign.store_bytes", "bytes", Lower, Exact),
    layer("tenancy.requests", "count", Higher, Exact),
    layer("tenancy.dispatches", "count", Higher, Exact),
    layer("tenancy.retries", "count", Lower, Exact),
    layer("tenancy.shed", "count", Lower, Exact),
    layer("tenancy.rejected", "count", Lower, Exact),
    layer("tenancy.budget_violations", "count", Lower, Exact),
    layer("tenancy.ls_p99_cycles", "cycles", Lower, Exact),
    layer("tenancy.deadline_miss_permille", "permille", Lower, Exact),
    layer("tenancy.failed_permille", "permille", Lower, Exact),
    layer("tenancy.self_ns", "ns", Lower, Host),
    layer("tenancy.executor_ns", "ns", Lower, Host),
    layer("tenancy.ns_per_dispatch", "ns/dispatch", Lower, Host),
    layer("bench.trace_overhead_permille", "permille", Lower, Host),
];

/// Look a metric up by name in either table.
pub fn metric(name: &str) -> Option<&'static MetricInfo> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SMC on one channel: the paper's headline configuration, long.
    StreamSmc,
    /// The same unit-stride points in natural order.
    StreamNatural,
    /// SMC daxpy/vaxpy on 2, 4 and 8 channels and a NUMA pair.
    Multichannel,
    /// A 96-point campaign grid at two workers.
    Campaign,
    /// A multi-tenant serve through a brownout and an outage.
    ServeChaos,
}

impl Workload {
    /// Every workload, in table order.
    pub const ALL: [Workload; 5] = [
        Workload::StreamSmc,
        Workload::StreamNatural,
        Workload::Multichannel,
        Workload::Campaign,
        Workload::ServeChaos,
    ];

    /// Workload name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamSmc => "stream-smc",
            Workload::StreamNatural => "stream-natural",
            Workload::Multichannel => "multichannel",
            Workload::Campaign => "campaign",
            Workload::ServeChaos => "serve-chaos",
        }
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::StreamSmc => "paper headline: 4 kernels x CLI/PI on the SMC at n=65536 plus two stride-4 points; SMC tick cost dominates host time",
            Workload::StreamNatural => "same unit-stride traffic in natural order through baseline, memsys and rdram; never touches the SMC, so SMC-only changes must leave it unchanged",
            Workload::Multichannel => "SMC daxpy/vaxpy on 2, 4, 8 interleaved channels and a NUMA pair; exposes per-tick costs that grow with the channel count",
            Workload::Campaign => "96 short runs through campaign::run_points at 2 workers with fault plans and attribution; stresses per-run fixed costs and the executor",
            Workload::ServeChaos => "closed-loop tenants through the regulator under a brownout and an outage; the only path through tenancy and memsys chaos delivery",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `--list` output: one line per workload, then one per metric with
/// name, unit, direction and bound (`-` for per-layer metrics).
pub fn list_text() -> String {
    let mut out = String::from("# workloads: name why\n");
    for w in Workload::ALL {
        out.push_str(&format!("workload {} {}\n", w.name(), w.why()));
    }
    out.push_str("# metrics: table name unit better bound kind\n");
    for (table, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in metrics {
            let bound = m.bound.map_or_else(|| "-".to_string(), |b| b.to_string());
            let kind = match m.kind {
                Kind::Exact => "exact",
                Kind::Host => "host",
            };
            out.push_str(&format!(
                "{table} {} {} {} {bound} {kind}\n",
                m.name,
                m.unit,
                m.better.label()
            ));
        }
    }
    out
}
