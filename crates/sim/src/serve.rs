//! Binding between the `tenancy` serving layer and the real simulator:
//! turn each admitted tenant request into a [`run_kernel`](crate::run_kernel)
//! execution and fold the result back into the serving layer's
//! [`ServiceReport`] currency (device cycles, useful words, per-bank DATA
//! packets, fault events).
//!
//! `tenancy` is simulator-agnostic — its serve loop drives an
//! [`tenancy::Executor`] callback — and this module is the one place the real
//! binding lives, mirroring how [`crate::sweep`] binds the campaign layer.
//! Per-request fault seeds are derived by hashing the base seed with the
//! tenant name and request sequence number, so a fault storm hits each
//! request differently but the whole serve run stays bit-reproducible.

// No-panic: this file feeds deterministic serve stores.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

use std::cell::RefCell;
use std::collections::BTreeMap;

use kernels::Kernel;
use rdram::Command;
use tenancy::{
    serve_traced, Request, ServeConfig, ServeReport, ServeTrace, ServiceReport, TenantMix,
    TenantSpec,
};

use crate::SystemConfig;

/// Per-bank DATA-packet counts from a recorded command stream: every COL
/// command carries exactly one DATA packet, so counting COLs per bank
/// reconciles with [`rdram::DeviceStats::col_packets`] by construction.
/// Banks are global (channel-major) on multi-channel runs.
pub fn bank_packets_of(commands: &[rdram::CommandRecord]) -> Vec<(usize, u64)> {
    let mut counts: Vec<(usize, u64)> = Vec::new();
    for rec in commands {
        if let Command::Col { op, .. } = &rec.cmd {
            let bank = op.bank();
            match counts.iter_mut().find(|(b, _)| *b == bank) {
                Some((_, n)) => *n += 1,
                None => counts.push((bank, 1)),
            }
        }
    }
    counts.sort_unstable();
    counts
}

/// The memory system's measured per-bank DATA-bus occupancy as sparse
/// `(global bank, cycles)` pairs — the currency the tenancy regulator's
/// per-bank budgets are charged in. Each COL occupies the bus for exactly
/// `t_pack` cycles, so this reconciles with [`bank_packets_of`] scaled by
/// the packet time (a property the test suite asserts).
pub fn bank_data_cycles_of(result: &crate::RunResult) -> Vec<(usize, u64)> {
    result
        .bank_data_cycles
        .iter()
        .enumerate()
        .filter(|&(_, &cycles)| cycles > 0)
        .map(|(bank, &cycles)| (bank, cycles))
        .collect()
}

/// The simulator-backed executor handed to [`tenancy::serve_traced`].
///
/// Each request runs the tenant's kernel through [`crate::run_kernel`]
/// with commands recorded (for per-bank accounting). Clean configurations
/// memoize by `(kernel, n, stride)` — identical requests cost one
/// simulation — while faulty configurations derive a fresh per-request
/// seed and always run.
pub struct SimExecutor {
    base: SystemConfig,
    memo: RefCell<BTreeMap<(String, u64, u64), ServiceReport>>,
    chaos_totals: RefCell<memsys::ChannelFaultStats>,
}

impl SimExecutor {
    /// An executor running requests on `base`. The base config's
    /// `record_commands` is forced on so per-bank packet counts are always
    /// available.
    pub fn new(base: SystemConfig) -> Self {
        let mut base = base;
        base.record_commands = true;
        Self {
            base,
            memo: RefCell::new(BTreeMap::new()),
            chaos_totals: RefCell::new(memsys::ChannelFaultStats::default()),
        }
    }

    /// Degraded-mode accounting accumulated across every request this
    /// executor ran (all-zero without an active chaos plan).
    pub fn chaos_totals(&self) -> memsys::ChannelFaultStats {
        *self.chaos_totals.borrow()
    }

    fn run_once(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
        let kernel = Kernel::ALL
            .into_iter()
            .find(|k| k.name() == tenant.kernel)
            .ok_or_else(|| format!("unknown kernel `{}`", tenant.kernel))?;
        let mut config = self.base.clone();
        if config.faults.is_some() {
            // FNV-1a of the tenant name, with the request's seed folded
            // into the offset basis.
            let seed = self.base.fault_seed ^ req.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let seed = campaign::fnv1a64_from(
                campaign::FNV_OFFSET_BASIS ^ seed.rotate_left(17),
                tenant.name.as_bytes(),
            );
            config.fault_seed = seed;
        }
        if let Some(plan) = self.base.chaos.as_ref().filter(|p| p.has_channel_faults()) {
            // The chaos plan's windows are wall-clock (serve-loop) cycles;
            // each request's kernel run starts its own clock at 0, so the
            // plan is shifted to the request's submission instant. A
            // request arriving mid-brownout sees the remaining window.
            config.chaos = Some(plan.shifted(req.submitted_at));
        }
        let result = crate::run_kernel(kernel, tenant.n, tenant.stride, &config)
            .map_err(|e| e.to_string())?;
        let chaos = result.chaos_total();
        if !chaos.is_clean() {
            self.chaos_totals.borrow_mut().absorb(&chaos);
        }
        // Degraded and deferred deliveries count as fault events so the
        // degradation ladder sees a channel incident, not just slow runs.
        let fault_events = result
            .msu_stats
            .as_ref()
            .map(|m| m.data_nacks + u64::from(m.injected_stall_cycles > 0))
            .or_else(|| result.baseline.as_ref().map(|b| b.data_nacks))
            .unwrap_or(0)
            + chaos.deferred_commands
            + u64::from(chaos.degraded_commands > 0);
        Ok(ServiceReport {
            cycles: result.cycles,
            useful_words: result.useful_words,
            bank_data_cycles: bank_data_cycles_of(&result),
            fault_events,
        })
    }
}

impl tenancy::Executor for SimExecutor {
    fn execute(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
        // Chaos plans are request-relative (shifted to the submission
        // instant), so chaotic configurations never memoize.
        if self.base.faults.is_none() && !self.base.chaos_active() {
            let key = (tenant.kernel.clone(), tenant.n, tenant.stride);
            if let Some(hit) = self.memo.borrow().get(&key) {
                return Ok(hit.clone());
            }
            let report = self.run_once(tenant, req)?;
            self.memo.borrow_mut().insert(key, report.clone());
            return Ok(report);
        }
        self.run_once(tenant, req)
    }
}

/// A [`ServeConfig`] sized for `banks` banks (global, across every
/// channel) with the bandwidth-hungry budget scaled to `budget_permille`
/// of its default (0 keeps the default) — the one knob the campaign
/// `budget` axis turns. `t_pack` is the device's DATA packet time: the
/// bank buckets are denominated in measured DATA-bus cycles, so their
/// default sizing (in abstract transfer units) is rescaled by the packet
/// time. The scaling is exactly linear, so every dispatch decision matches
/// what the packet-denominated regulator made.
pub fn serve_config_for(banks: usize, budget_permille: u64, t_pack: u64) -> ServeConfig {
    let mut cfg = ServeConfig::default_for(banks);
    cfg.regulator.scale_bank_currency(t_pack);
    if budget_permille > 0 {
        let scale = |v: u64| (v.saturating_mul(budget_permille) / 1000).max(1);
        cfg.regulator.bh_bucket.capacity = scale(cfg.regulator.bh_bucket.capacity);
        cfg.regulator.bh_bucket.refill = scale(cfg.regulator.bh_bucket.refill);
    }
    cfg
}

/// Validate that every kernel named by `mix` exists before serving, so a
/// typo is a config error rather than a run of absorbed failures.
pub fn validate_mix(mix: &TenantMix) -> Result<(), String> {
    for t in &mix.tenants {
        if !Kernel::ALL.iter().any(|k| k.name() == t.kernel) {
            return Err(format!(
                "tenant {} names unknown kernel `{}`",
                t.name, t.kernel
            ));
        }
    }
    Ok(())
}

/// Run a multi-tenant serve: bind `mix` + `cfg` to the simulator executor
/// over `base` and run the tenancy loop with request-lifecycle tracing.
/// Returns the report, the recorded [`ServeTrace`] (one span per request,
/// incidents for starvation trips and absorbed executor failures), and the
/// executor's per-channel fault accounting summed over every request
/// (all-zero when `base` carries no active chaos plan). Tracing never
/// perturbs the report.
pub fn run_serve_chaos(
    mix: &TenantMix,
    cfg: &ServeConfig,
    base: &SystemConfig,
) -> Result<(ServeReport, ServeTrace, memsys::ChannelFaultStats), String> {
    validate_mix(mix)?;
    let exec = SimExecutor::new(base.clone());
    let mut trace = ServeTrace::new();
    let report = serve_traced(mix, cfg, &exec, Some(&mut trace)).map_err(|e| e.to_string())?;
    let totals = exec.chaos_totals();
    Ok((report, trace, totals))
}

/// Fold a serve's distributions into a telemetry registry: each tenant's
/// worst queue wait and, for a traced serve, one latency and one
/// deadline-slack observation per completed request. The scalar serve
/// metrics come from the binding table in `counters.rs`.
pub fn record_serve_histograms(
    report: &ServeReport,
    trace: Option<&ServeTrace>,
    registry: &mut telemetry::Registry,
) {
    use telemetry::MetricId;
    for t in &report.tenants {
        registry.observe(MetricId::ServeWaitCycles, t.max_wait);
    }
    for span in trace.iter().flat_map(|trace| trace.spans()) {
        if span.outcome == tenancy::RequestOutcome::Completed {
            registry.observe(MetricId::ServeLatencyCycles, span.latency());
            registry.observe(MetricId::ServeSlackCycles, span.slack());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Sources;
    use crate::MemorySystem;
    use tenancy::Executor as _;

    fn base() -> SystemConfig {
        SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32)
    }

    fn serve_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::default_for(32);
        cfg.regulator
            .scale_bank_currency(base().device.timing.t_pack);
        cfg
    }

    #[test]
    fn bank_packet_counts_reconcile_with_device_stats() {
        let mut config = base();
        config.record_commands = true;
        let result = crate::run_kernel(Kernel::Copy, 256, 1, &config).unwrap();
        let per_bank = bank_packets_of(&result.commands);
        let total: u64 = per_bank.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            total,
            result.device_stats.col_packets(),
            "every COL command carries one DATA packet"
        );
        assert!(per_bank.len() > 1, "copy touches multiple banks");
        let sorted: Vec<usize> = per_bank.iter().map(|&(b, _)| b).collect();
        let mut expect = sorted.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn measured_bank_cycles_are_packet_counts_times_the_packet_time() {
        // The regulator's currency conversion (bank buckets scaled by
        // t_pack) is exact because each COL occupies the DATA bus for
        // exactly t_pack cycles — assert that equivalence on both a
        // single-channel and a two-channel run.
        for channels in [1usize, 2] {
            let mut config = base().with_channels(channels);
            config.record_commands = true;
            let result = crate::run_kernel(Kernel::Daxpy, 128, 1, &config).unwrap();
            let measured = bank_data_cycles_of(&result);
            let expect: Vec<(usize, u64)> = bank_packets_of(&result.commands)
                .into_iter()
                .map(|(b, n)| (b, n * result.t_pack()))
                .collect();
            assert_eq!(measured, expect, "channels={channels}");
            let total: u64 = measured.iter().map(|&(_, c)| c).sum();
            assert_eq!(
                total, result.device_stats.data_busy_cycles,
                "channels={channels}: per-bank cycles partition the bus occupancy"
            );
        }
    }

    #[test]
    fn two_channel_serve_stays_within_every_bank_budget() {
        // The acceptance gate for the regulator wiring: a serve run over a
        // two-channel system budgets every *global* bank in measured
        // DATA-bus cycles and never grants a dispatch in debt.
        let base = base()
            .with_channels(2)
            .with_placement(memsys::Placement::ChannelInterleaved { block_bytes: 1024 });
        let banks = base.device.total_banks() * base.channels;
        let mut cfg = serve_config_for(banks, 500, base.device.timing.t_pack);
        cfg.policy = "regulated".to_string();
        let mix = TenantMix::parse("ls:2:daxpy:128+bh:4:copy:256").unwrap();
        let (report, ..) = run_serve_chaos(&mix, &cfg, &base).unwrap();
        assert_eq!(report.budget_violations, 0, "no dispatch granted in debt");
        report.check_conservation().unwrap();
        let (_s, completed, failed, ..) = report.totals();
        assert!(completed > 0);
        assert_eq!(failed, 0);
        // The wiring is real: the executor reports traffic on banks owned
        // by both channels, so channel 1's buckets are actually charged.
        let exec = SimExecutor::new(base.clone());
        let t = &mix.tenants[0];
        let req = Request {
            tenant: 0,
            seq: 0,
            submitted_at: 0,
            deadline_at: 1 << 30,
        };
        let sr = exec.execute(t, &req).unwrap();
        let per_channel_banks = base.device.total_banks();
        assert!(
            sr.bank_data_cycles
                .iter()
                .any(|&(b, _)| b < per_channel_banks)
                && sr
                    .bank_data_cycles
                    .iter()
                    .any(|&(b, _)| b >= per_channel_banks),
            "interleaved placement charges banks on both channels: {:?}",
            sr.bank_data_cycles
        );
    }

    #[test]
    fn executor_memoizes_clean_runs_and_reports_real_cycles() {
        let exec = SimExecutor::new(base());
        let mix = TenantMix::parse("bh:1:copy:128").unwrap();
        let t = &mix.tenants[0];
        let req = Request {
            tenant: 0,
            seq: 0,
            submitted_at: 0,
            deadline_at: 10_000,
        };
        let a = exec.execute(t, &req).unwrap();
        let b = exec.execute(t, &req).unwrap();
        assert_eq!(a, b);
        assert!(a.cycles > 0);
        assert_eq!(a.useful_words, 2 * 128); // copy moves 2 streams x n
        assert_eq!(exec.memo.borrow().len(), 1);
    }

    #[test]
    fn faulty_runs_derive_distinct_per_request_seeds_deterministically() {
        let plan = faults::FaultPlan::parse("nack:100:6").unwrap();
        let config = base().with_faults(plan, 7);
        let exec = SimExecutor::new(config.clone());
        let mix = TenantMix::parse("bh:1:daxpy:64").unwrap();
        let t = &mix.tenants[0];
        let r0 = Request {
            tenant: 0,
            seq: 0,
            submitted_at: 0,
            deadline_at: 1 << 30,
        };
        let r1 = Request { seq: 1, ..r0 };
        let a0 = exec.execute(t, &r0).unwrap();
        let a1 = exec.execute(t, &r1).unwrap();
        // Same request replays identically...
        let exec2 = SimExecutor::new(config);
        assert_eq!(exec2.execute(t, &r0).unwrap(), a0);
        // ...but different sequence numbers see different fault timelines
        // (distinct seeds; with 10% NACKs the cycle counts differ).
        assert_ne!(a0, a1);
    }

    #[test]
    fn serve_runs_end_to_end_on_the_real_simulator() {
        let mix = TenantMix::parse("ls:1:daxpy:64+bh:2:copy:64").unwrap();
        let (report, ..) = run_serve_chaos(&mix, &serve_cfg(), &base()).unwrap();
        let (submitted, completed, failed, shed, rejected, _m, words) = report.totals();
        assert_eq!(submitted, mix.total_requests());
        assert_eq!(completed + failed + shed + rejected, submitted);
        assert_eq!(failed, 0, "clean runs never fail");
        assert_eq!(report.budget_violations, 0);
        assert!(report.starvation.is_empty());
        assert!(words > 0);
        report.check_conservation().unwrap();
    }

    #[test]
    fn traced_serve_matches_untraced_and_feeds_histograms() {
        let mix = TenantMix::parse("ls:1:daxpy:64+bh:2:copy:64").unwrap();
        let exec = SimExecutor::new(base());
        let untraced = serve_traced(&mix, &serve_cfg(), &exec, None).unwrap();
        let (report, trace, _) = run_serve_chaos(&mix, &serve_cfg(), &base()).unwrap();
        assert_eq!(report, untraced, "tracing must not perturb the report");
        let (submitted, completed, failed, shed, rejected, _m, _w) = report.totals();
        assert_eq!(trace.spans().len() as u64, submitted);
        assert_eq!(trace.outcome_totals(), (completed, failed, shed, rejected));
        // Exact per-tenant percentiles answer from the trace.
        let p = trace.latency_percentiles(0).expect("tenant 0 completed");
        assert!(p.max >= p.p50 && p.p50 > 0);
        // Histograms land in the registry with one sample per completion
        // and one worst wait per tenant.
        let mut registry = telemetry::Registry::new();
        record_serve_histograms(&report, Some(&trace), &mut registry);
        use telemetry::MetricId;
        let lat = registry.histogram(MetricId::ServeLatencyCycles).unwrap();
        assert_eq!(lat.count(), completed);
        let slack = registry.histogram(MetricId::ServeSlackCycles).unwrap();
        assert_eq!(slack.count(), completed);
        let wait = registry.histogram(MetricId::ServeWaitCycles).unwrap();
        assert_eq!(wait.count(), report.tenants.len() as u64);
    }

    #[test]
    fn chaotic_serves_degrade_recover_and_replay_bit_identically() {
        // A two-channel serve through a brownout + outage: requests
        // arriving inside the windows pay delivery penalties, the
        // executor's accumulated accounting is non-trivial, and the whole
        // run replays bit-identically.
        let plan = faults::FaultPlan::parse("brownout:0:0:4000:4;outage:1:500:900").unwrap();
        let base = base().with_channels(2).with_chaos(plan, 11);
        let mix = TenantMix::parse("ls:1:daxpy:64+bh:2:copy:64").unwrap();
        let banks = base.device.total_banks() * base.channels;
        let cfg = serve_config_for(banks, 0, base.device.timing.t_pack);
        let (report, trace, totals) = run_serve_chaos(&mix, &cfg, &base).unwrap();
        report.check_conservation().unwrap();
        assert!(!totals.is_clean(), "chaos windows were hit");
        assert!(
            totals.degraded_commands > 0,
            "brownout stretched deliveries"
        );
        assert_eq!(trace.spans().len() as u64, report.totals().0);
        let (again, _, totals2) = run_serve_chaos(&mix, &cfg, &base).unwrap();
        assert_eq!(again, report, "chaotic serves replay bit-identically");
        assert_eq!(totals2, totals);
        // The fault accounting lands in the registry under fault.*.
        let mut registry = telemetry::Registry::new();
        Sources::serve(&report, Some(totals)).record(&mut registry);
        use telemetry::MetricId;
        assert_eq!(
            registry.value(MetricId::FaultDegradedRequests),
            totals.degraded_commands
        );
        assert_eq!(
            registry.value(MetricId::RecoveryMttrCycles),
            totals.mttr_cycles
        );
    }

    #[test]
    fn closed_loop_retries_reach_the_registry() {
        // Force rejections with a tiny admission queue (shedding pushed
        // out of reach so overflow is answered with backpressure, not
        // load-shedding), then let the closed loop resubmit them; the
        // serve metrics must carry the retry counters.
        let mut cfg = serve_cfg();
        cfg.queue_capacity = 1;
        cfg.ladder.shed_fill_permille = 1001;
        cfg.ladder.critical_fill_permille = 1002;
        cfg.retry = tenancy::RetryPolicy::with_budget(4, 9);
        let mix = TenantMix::parse("bh:4:copy:64").unwrap();
        let (report, ..) = run_serve_chaos(&mix, &cfg, &base()).unwrap();
        report.check_conservation().unwrap();
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        assert!(retries > 0, "tiny queue must trigger resubmissions");
        let mut registry = telemetry::Registry::new();
        Sources::serve(&report, None).record(&mut registry);
        use telemetry::MetricId;
        assert_eq!(registry.value(MetricId::ServeRetries), retries);
    }

    #[test]
    fn mix_validation_catches_unknown_kernels_up_front() {
        let mix = TenantMix::parse("ls:1:warp:64").unwrap();
        let err = run_serve_chaos(&mix, &serve_cfg(), &base()).unwrap_err();
        assert!(err.contains("warp"), "{err}");
    }

    #[test]
    fn serve_metrics_land_in_the_registry() {
        let mix = TenantMix::parse("bh:2:copy:64").unwrap();
        let (report, ..) = run_serve_chaos(&mix, &serve_cfg(), &base()).unwrap();
        let mut registry = telemetry::Registry::new();
        Sources::serve(&report, None).record(&mut registry);
        use telemetry::MetricId;
        let (submitted, completed, _f, _s, _r, _m, words) = report.totals();
        assert_eq!(registry.value(MetricId::ServeSubmitted), submitted);
        assert_eq!(registry.value(MetricId::ServeCompleted), completed);
        assert_eq!(registry.value(MetricId::ServeUsefulWords), words);
        assert_eq!(
            registry.value(MetricId::ServeTenants),
            report.tenants.len() as u64
        );
        assert_eq!(registry.value(MetricId::ServeFairnessMilli), 1000);
    }
}
