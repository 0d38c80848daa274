//! One kernel run on a configured system: the session that builds, runs
//! and audits it, and the result it reports.

// No-panic, with no exception: `forbid` rejects any inner allow or expect.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::todo, clippy::unimplemented))]

use serde::Serialize;

use baseline::{BaselineController, BaselineResult};
use kernels::{Coefficients, Kernel, ReferenceMachine};
use rdram::{CommandRecord, Cycle, DeviceConfig, DeviceStats, MemoryImage, WORDS_PER_PACKET};
use smc::{MsuConfig, MsuStats, SmcController};

use crate::layout::fit_vectors;
use crate::metrics::RunTelemetry;
use crate::{AccessOrder, SimError, StreamCpu, SystemConfig};

/// Consecutive injected conflicts on one bank before the MSU demotes it to
/// closed-page during fault-injection runs.
const DEGRADE_AFTER_FAULTY: u32 = 16;

/// Outcome of one simulated kernel run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// The kernel that ran.
    pub kernel: Kernel,
    /// Iterations (elements per stream).
    pub n: u64,
    /// Stride in 64-bit words.
    pub stride: u64,
    /// Total cycles from time 0 to the last DATA packet / CPU access.
    pub cycles: Cycle,
    /// 64-bit words of useful stream data moved (`s x n`).
    pub useful_words: u64,
    /// Device counters (page hits, turnarounds, bus occupancy).
    pub device_stats: DeviceStats,
    /// MSU counters, for SMC runs.
    pub msu_stats: Option<MsuStats>,
    /// Controller summary, for natural-order runs.
    pub baseline: Option<BaselineResult>,
    /// Every issued command with the cycle the memory system delivered it
    /// at, when [`SystemConfig::record_commands`](crate::SystemConfig) was
    /// set (always captured in conformance-checked and telemetered runs).
    #[serde(skip)]
    pub commands: Vec<CommandRecord>,
    /// Collected telemetry (metrics registry, bank/bus timelines, controller
    /// events), when [`SystemConfig::telemetry`](crate::SystemConfig) was
    /// set.
    #[serde(skip)]
    pub telemetry: Option<RunTelemetry>,
    /// Measured DATA-bus cycles charged to each global bank by the memory
    /// system — the currency the tenancy regulator's per-bank budgets are
    /// denominated in. Indexed by global bank (channel-major), populated
    /// on every run.
    #[serde(skip)]
    pub bank_data_cycles: Vec<Cycle>,
    /// Per-channel degraded-mode accounting (penalty cycles, deferred
    /// deliveries, outages observed, MTTR) when a chaos plan was active;
    /// empty on healthy runs.
    pub chaos_stats: Vec<memsys::ChannelFaultStats>,
    t_pack: Cycle,
}

impl RunResult {
    /// The device's DATA packet time in interface-clock cycles — the
    /// exchange rate between DATA packets and measured DATA-bus cycles
    /// (each COL command occupies the bus for exactly this long).
    pub fn t_pack(&self) -> Cycle {
        self.t_pack
    }

    /// The run's degraded-mode accounting summed over every channel
    /// (all-zero — [`memsys::ChannelFaultStats::is_clean`] — on healthy
    /// runs).
    pub fn chaos_total(&self) -> memsys::ChannelFaultStats {
        let mut acc = memsys::ChannelFaultStats::default();
        for st in &self.chaos_stats {
            acc.absorb(st);
        }
        acc
    }
}

/// Derived headline ratios for one run — the single place the CLI, the
/// experiment tables, and external reporting compute bandwidth and hit-rate
/// percentages from the raw counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunSummary {
    /// Effective bandwidth as percent of the device's peak.
    pub percent_peak: f64,
    /// Percent of attainable bandwidth (non-unit strides cap at 50%).
    pub percent_attainable: f64,
    /// Effective bandwidth in GB/s.
    pub effective_gbps: f64,
    /// Fraction of column packets that hit an open row, when any were
    /// issued.
    pub page_hit_rate: Option<f64>,
    /// Fraction of elapsed cycles the DATA bus carried packets.
    pub data_bus_utilization: f64,
}

/// Effective bandwidth as percent of peak (Eq. 5.1) for `useful_words`
/// 64-bit words moved in `cycles` with a `t_pack`-cycle packet time: the
/// cycles of useful data transferred at peak rate over total cycles. A run
/// that transferred nothing (zero cycles) delivered 0% of peak. This is the
/// one place the formula lives; [`RunResult::percent_peak`] and the
/// experiment figures all route through it.
pub fn percent_peak_of(useful_words: u64, cycles: Cycle, t_pack: Cycle) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    100.0 * (useful_words as f64 * t_pack as f64 / WORDS_PER_PACKET as f64) / cycles as f64
}

impl RunResult {
    /// Effective bandwidth as percent of the device's peak (Eq. 5.1).
    pub fn percent_peak(&self) -> f64 {
        percent_peak_of(self.useful_words, self.cycles, self.t_pack)
    }

    /// Percent of *attainable* bandwidth: non-unit strides occupy a whole
    /// 128-bit packet per element, capping attainable at 50% of peak (the
    /// y-axis of the paper's Figure 9).
    pub fn percent_attainable(&self) -> f64 {
        let attainable = if self.stride == 1 { 100.0 } else { 50.0 };
        100.0 * self.percent_peak() / attainable
    }

    /// The derived headline numbers for this run, computed once here so
    /// every reporting surface agrees on the formulas.
    pub fn summary(&self) -> RunSummary {
        let percent_peak = self.percent_peak();
        let peak_gbps = rdram::PACKET_BYTES as f64 / (self.t_pack as f64 * rdram::CYCLE_NS);
        RunSummary {
            percent_peak,
            percent_attainable: self.percent_attainable(),
            effective_gbps: peak_gbps * percent_peak / 100.0,
            page_hit_rate: self.device_stats.page_hit_rate(),
            data_bus_utilization: self.device_stats.data_bus_utilization(self.cycles),
        }
    }
}

fn seed(mem: &mut MemoryImage, kernel: Kernel, bases: &[u64], n: u64, stride: u64) {
    for (v, &base) in bases.iter().enumerate() {
        for e in 0..kernel.vector_len(v, n, stride) {
            let value = (v as f64 + 1.0) * 1_000_000.0 + e as f64 * 0.5;
            mem.write_f64(base + e * rdram::ELEM_BYTES, value);
        }
    }
}

/// Run `n` iterations of `kernel` at `stride` on the configured system.
///
/// The SMC moves real data: when `cfg.verify` is set (the default), an SMC
/// run's memory image is compared bit-exactly against the kernel's scalar
/// reference, proving that dynamic access reordering did not change the
/// computation.
///
/// # Errors
///
/// [`SimError::Config`] for an invalid device or address map, and — under
/// fault injection — [`SimError::Controller`] for livelocks, protocol
/// violations, or exhausted retry budgets, or [`SimError::Budget`] if the
/// faults slow the run past its cycle budget. A failed audit is
/// [`SimError::Conformance`] or [`SimError::Audit`], in every build.
///
/// # Panics
///
/// Panics if verification fails: injected faults may slow a run or abort it
/// with a structured error, but they must never corrupt data, so a
/// divergent image is an internal bug.
pub fn run_kernel(
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
) -> Result<RunResult, SimError> {
    Session::new(kernel, n, stride, cfg)?.run()?.finish()
}

/// One kernel run: [`new`](Self::new) builds it, [`run`](Self::run)
/// simulates it and [`finish`](Self::finish) audits it into a [`RunResult`].
pub(crate) struct Session {
    kernel: Kernel,
    n: u64,
    stride: u64,
    dev: memsys::MemorySystem,
    engine: Engine,
    /// Every command issued, taken from the memory system once the run
    /// ends (empty unless the run records, checks or replays them).
    commands: Vec<CommandRecord>,
    telemetry: bool,
    check_conformance: bool,
}

enum Engine {
    /// The natural-order controller, a timing model that moves no data,
    /// and its summary once run.
    Natural(Box<BaselineController>, Option<BaselineResult>),
    /// The SMC, the processor model, the memory image they move data
    /// through, the vector bases to verify it at (when `verify` is on) and
    /// the cycle at which an unfinished run fails with [`SimError::Budget`].
    Smc(
        Box<SmcController>,
        Box<StreamCpu>,
        MemoryImage,
        Option<Vec<u64>>,
        Cycle,
    ),
}

impl Session {
    /// Build `cfg`'s memory system, with its faults attached and its
    /// command record on when the run records, checks or replays commands,
    /// and its controller, recording events when the run collects
    /// telemetry; an SMC run also gets the processor model, the seeded
    /// memory image and its cycle budget.
    pub(crate) fn new(
        kernel: Kernel,
        n: u64,
        stride: u64,
        cfg: &SystemConfig,
    ) -> Result<Self, SimError> {
        let (map, mut dev) = cfg.build_memory()?;
        let bases = fit_vectors(kernel, n, stride, cfg).map_err(SimError::Config)?;
        let faulty = !dev.faults().is_empty();
        // The conformance checker replays the command record after the run,
        // and the telemetry layer replays it into bank/bus timelines.
        if cfg.record_commands || cfg.check_conformance || cfg.telemetry {
            dev.record_commands();
        }
        let streams = kernel.stream_descriptors(&bases, n, stride);
        let engine = match cfg.ordering {
            AccessOrder::NaturalOrder => {
                let write_policy = if cfg.write_allocate {
                    baseline::WritePolicy::WriteAllocate
                } else {
                    baseline::WritePolicy::StoreDirect
                };
                let mut ctl =
                    BaselineController::new(streams, map, cfg.memory.line_policy(), cfg.line_bytes)
                        .with_write_policy(write_policy);
                if let Some(cache_cfg) = cfg.cache {
                    ctl = ctl.with_cache(cache_cfg);
                }
                if cfg.telemetry {
                    ctl.record_events();
                }
                Engine::Natural(Box::new(ctl), None)
            }
            AccessOrder::Smc { fifo_depth } => {
                let msu_cfg = MsuConfig {
                    fifo_depth,
                    policy: cfg.policy,
                    page_policy: cfg.memory.page_policy(),
                    speculative_activate: cfg.speculative,
                    degrade_after: if faulty { DEGRADE_AFTER_FAULTY } else { 0 },
                    ..MsuConfig::default()
                };
                let mut ctl = SmcController::new(streams, map, msu_cfg);
                if cfg.refresh {
                    // The timer walks the *global* bank space, one bank per
                    // interval, so every channel's rows meet their deadline.
                    let mut refresh_cfg = cfg.device.clone();
                    refresh_cfg.devices = cfg.device.devices * cfg.channels.max(1);
                    ctl = ctl.with_refresh(rdram::refresh::RefreshTimer::new(&refresh_cfg));
                }
                if cfg.telemetry {
                    ctl.record_events();
                }
                let cpu = StreamCpu::new(kernel, Coefficients::default(), n)
                    .with_access_cycles(cfg.cpu_access_cycles);
                let mut mem = MemoryImage::new();
                seed(&mut mem, kernel, &bases, n, stride);
                // Bounded-duty fault plans can at most quadruple a run; the
                // watchdog catches genuine livelock long before the budget.
                let mut budget = 400 * (kernel.total_streams() * n + 1024) + 2_000_000;
                if faulty {
                    budget *= 4;
                }
                if let Some(plan) = cfg.chaos.as_ref().filter(|p| p.has_channel_faults()) {
                    // A brownout stretches every delivery by at most the worst
                    // cost multiplier, and each outage window can park the
                    // schedule for its full length (plus the same again while
                    // the deferred backlog drains).
                    let (max_mult, window_sum) = plan.chaos_bounds();
                    budget = budget
                        .saturating_mul(max_mult)
                        .saturating_add(2 * window_sum);
                }
                let verify_bases = cfg.verify.then_some(bases);
                Engine::Smc(Box::new(ctl), Box::new(cpu), mem, verify_bases, budget)
            }
        };
        Ok(Session {
            kernel,
            n,
            stride,
            dev,
            engine,
            commands: Vec::new(),
            telemetry: cfg.telemetry,
            check_conformance: cfg.check_conformance,
        })
    }

    /// Simulate the run to completion: the natural-order controller steps
    /// from event to event, the SMC and the processor model every cycle,
    /// failing with [`SimError::Budget`] past the budget. The memory
    /// system's command record then moves to the session.
    pub(crate) fn run(mut self) -> Result<Self, SimError> {
        match &mut self.engine {
            Engine::Natural(ctl, summary) => *summary = Some(ctl.run_to_completion(&mut self.dev)?),
            Engine::Smc(ctl, cpu, mem, _, budget) => {
                let mut now: Cycle = 0;
                while !(cpu.done() && ctl.mem_complete()) {
                    ctl.tick(now, &mut self.dev, mem)?;
                    cpu.tick(now, ctl);
                    now += 1;
                    if now >= *budget {
                        return Err(SimError::Budget {
                            kernel: self.kernel.to_string(),
                            n: self.n,
                            stride: self.stride,
                            cycles: *budget,
                        });
                    }
                }
            }
        }
        self.commands = self.dev.take_commands();
        Ok(self)
    }

    /// Audit the run and assemble its result. In every build the checker
    /// replays the command stream when `check_conformance` is set, an SMC
    /// run's image is verified when `verify` is set (a divergence panics, see
    /// [`run_kernel`]), and a telemetered run must pass [`audit`].
    pub(crate) fn finish(mut self) -> Result<RunResult, SimError> {
        let commands = std::mem::take(&mut self.commands);
        if self.check_conformance {
            let violations = check_channels(self.dev.config(), self.dev.channels(), &commands);
            if let Some(first) = violations.first() {
                return Err(SimError::Conformance {
                    violations: violations.len(),
                    first: first.to_string(),
                });
            }
        }

        let (kernel, n, stride) = (self.kernel, self.n, self.stride);
        let (cycles, msu_stats, baseline, events) = match self.engine {
            Engine::Natural(mut ctl, summary) => {
                (ctl.last_data_cycle(), None, summary, ctl.take_events())
            }
            Engine::Smc(mut ctl, cpu, mem, verify_bases, _) => {
                if let Some(bases) = &verify_bases {
                    let mut expect = MemoryImage::new();
                    seed(&mut expect, kernel, bases, n, stride);
                    let reference = ReferenceMachine::new(kernel, Coefficients::default());
                    reference.run(&mut expect, bases, n, stride);
                    for (v, &base) in bases.iter().enumerate() {
                        for e in 0..kernel.vector_len(v, n, stride) {
                            let addr = base + e * rdram::ELEM_BYTES;
                            assert_eq!(
                                mem.read_u64(addr),
                                expect.read_u64(addr),
                                "kernel {kernel}: vector {v} element {e} diverged from reference"
                            );
                        }
                    }
                }
                let cycles = ctl.last_data_cycle().max(cpu.finish_cycle());
                (cycles, Some(*ctl.msu_stats()), None, ctl.take_events())
            }
        };

        let mut result = RunResult {
            kernel,
            n,
            stride,
            cycles,
            useful_words: kernel.total_streams() * n,
            device_stats: self.dev.stats(),
            msu_stats,
            baseline,
            bank_data_cycles: self.dev.bank_data_cycles().to_vec(),
            chaos_stats: if self.dev.has_chaos() {
                self.dev.chaos_stats().to_vec()
            } else {
                Vec::new()
            },
            commands,
            telemetry: None,
            t_pack: self.dev.timing().t_pack,
        };
        if self.telemetry {
            let (device, channels) = (self.dev.config(), self.dev.channels());
            result.telemetry = Some(RunTelemetry::collect(device, channels, &result, events));
            audit(&result)?;
        }
        Ok(result)
    }
}

/// The telemetry audits: a telemetered run's cycle attribution partitions
/// it exactly, and its timeline replay and attribution agree with the
/// device's own counters. All three derive from the command stream the
/// device counted, so any failure is a bug in one of the models.
fn audit(result: &RunResult) -> Result<(), SimError> {
    let (Some(tel), stats) = (&result.telemetry, &result.device_stats) else {
        return Ok(());
    };
    let mut failures: Vec<String> = tel.attribution.check_exact().err().into_iter().collect();
    failures.extend(telemetry::reconcile(&tel.derived_counts(), stats));
    failures.extend(tel.attribution.reconcile(stats));
    if failures.is_empty() {
        Ok(())
    } else {
        Err(SimError::Audit(failures.join("; ")))
    }
}

/// Audit a command stream against the per-channel timing model, one
/// channel at a time.
///
/// `commands` carry global bank numbers, as [`RunResult::commands`] and
/// recorded trace files do, and `device` is one channel's configuration.
/// Each channel has its own bus triple and bank array, so a flattened
/// replay would see phantom bus overlaps between independent channels. A
/// command whose bank lies past the last channel is checked whole, so it
/// is reported as `no-such-bank` rather than dropped.
pub fn check_channels(
    device: &DeviceConfig,
    channels: usize,
    commands: &[CommandRecord],
) -> Vec<checker::Violation> {
    if channels <= 1 {
        return checker::check(device, commands);
    }
    let banks = device.total_banks();
    let stray: Vec<CommandRecord> = commands
        .iter()
        .filter(|r| r.cmd.bank() >= banks.saturating_mul(channels))
        .copied()
        .collect();
    memsys::split_by_channel(commands, channels, banks)
        .iter()
        .chain([&stray])
        .flat_map(|local| checker::check(device, local))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alignment, MemorySystem};

    #[test]
    fn check_channels_reports_banks_past_the_last_channel() {
        let device = DeviceConfig::default();
        let cmd = rdram::Command::activate(2 * device.total_banks(), 0);
        let violations = check_channels(&device, 2, &[CommandRecord { cycle: 0, cmd }]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, checker::RuleId::NoSuchBank);
    }

    const CLI: MemorySystem = MemorySystem::CacheLineInterleaved;
    const PI: MemorySystem = MemorySystem::PageInterleaved;

    /// A finished daxpy session on `cfg` whose recorded stream also holds an
    /// ACT the device never saw, one cycle after the run's first ACT.
    fn doctored(cfg: &SystemConfig) -> Session {
        let session = Session::new(Kernel::Daxpy, 64, 1, cfg).and_then(Session::run);
        let mut session = session.expect("fault-free run");
        assert!(!session.commands.is_empty(), "commands recorded");
        let cmd = rdram::Command::activate(0, 0);
        session.commands.push(CommandRecord { cycle: 1, cmd });
        session
    }

    #[test]
    fn conformance_violations_surface_as_errors() {
        let mut cfg = SystemConfig::smc(CLI, 16).with_command_recording();
        cfg.check_conformance = true;
        let result = doctored(&cfg).finish();
        assert!(
            matches!(result, Err(SimError::Conformance { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn doctored_runs_fail_the_audit_in_every_build() {
        for mut cfg in [SystemConfig::smc(CLI, 16), SystemConfig::natural_order(PI)] {
            cfg.telemetry = true;
            let mut r = run_kernel(Kernel::Daxpy, 64, 1, &cfg).expect("fault-free, audited run");
            r.device_stats.activates += 1;
            cfg.check_conformance = false;
            for result in [audit(&r), doctored(&cfg).finish().map(drop)] {
                let failed = matches!(&result, Err(SimError::Audit(m)) if m.contains("activates"));
                assert!(failed, "{result:?}");
            }
        }
    }

    #[test]
    fn smc_copy_long_vectors_exceed_98_percent() {
        // Paper, Section 6: "for copy with streams of 1024 elements, the
        // SMC exploits over 98% of the system's peak bandwidth."
        let r = run_kernel(Kernel::Copy, 1024, 1, &SystemConfig::smc(CLI, 128))
            .expect("fault-free run");
        assert!(
            r.percent_peak() > 97.5,
            "copy CLI 1024 = {}",
            r.percent_peak()
        );
    }

    #[test]
    fn smc_always_beats_natural_order_on_cli() {
        for kernel in Kernel::PAPER_SUITE {
            let smc =
                run_kernel(kernel, 1024, 1, &SystemConfig::smc(CLI, 64)).expect("fault-free run");
            let naive = run_kernel(kernel, 1024, 1, &SystemConfig::natural_order(CLI))
                .expect("fault-free run");
            assert!(
                smc.percent_peak() > naive.percent_peak(),
                "{kernel}: smc {} !> naive {}",
                smc.percent_peak(),
                naive.percent_peak()
            );
        }
    }

    #[test]
    fn natural_order_tracks_its_analytic_bound() {
        // The simulated baseline has four MSHRs and may batch transfers a
        // little better than the paper's per-tour model (which serializes
        // the load-to-store tRAC each iteration), so it can land on either
        // side of the bound — but it must stay in the same regime.
        for mem in [CLI, PI] {
            for kernel in Kernel::PAPER_SUITE {
                let cfg = SystemConfig::natural_order(mem);
                let r = run_kernel(kernel, 1024, 1, &cfg).expect("fault-free run");
                let bound = cfg.stream_system().multi_stream(
                    mem.organization(),
                    kernel.total_streams(),
                    1024,
                    1,
                );
                let ratio = r.percent_peak() / bound;
                assert!(
                    (0.6..=1.35).contains(&ratio),
                    "{kernel} {mem:?}: sim {} vs bound {bound} (ratio {ratio:.2})",
                    r.percent_peak()
                );
            }
        }
    }

    #[test]
    fn aligned_vectors_are_no_faster_than_staggered() {
        let base = SystemConfig::smc(PI, 16);
        for kernel in [Kernel::Daxpy, Kernel::Vaxpy] {
            let stag = run_kernel(kernel, 256, 1, &base.clone()).expect("fault-free run");
            let alig = run_kernel(
                kernel,
                256,
                1,
                &base.clone().with_alignment(Alignment::Aligned),
            )
            .expect("fault-free run");
            assert!(
                alig.percent_peak() <= stag.percent_peak() + 1e-9,
                "{kernel}: aligned {} > staggered {}",
                alig.percent_peak(),
                stag.percent_peak()
            );
        }
    }

    #[test]
    fn strided_smc_caps_at_half_peak() {
        let r =
            run_kernel(Kernel::Vaxpy, 512, 4, &SystemConfig::smc(PI, 64)).expect("fault-free run");
        assert!(r.percent_peak() <= 50.0 + 1e-9);
        assert!(r.percent_attainable() > r.percent_peak());
    }

    #[test]
    fn refresh_costs_about_a_percent() {
        // 8192 rows per 64 ms means one refresh per ~3125 cycles; a daxpy
        // run of ~6.5k cycles sees a couple of them. Verify correctness is
        // preserved and the cost stays small.
        let mut with = SystemConfig::smc(CLI, 64);
        with.refresh = true;
        let without = SystemConfig::smc(CLI, 64);
        let r_with = run_kernel(Kernel::Daxpy, 1024, 1, &with).expect("fault-free run");
        let r_without = run_kernel(Kernel::Daxpy, 1024, 1, &without).expect("fault-free run");
        assert!(
            r_with.percent_peak() > 0.95 * r_without.percent_peak(),
            "refresh too costly: {} vs {}",
            r_with.percent_peak(),
            r_without.percent_peak()
        );
        assert!(r_with.percent_peak() <= r_without.percent_peak() + 1e-9);
    }

    #[test]
    fn direct_mapped_conflicts_crater_aligned_unit_stride() {
        // Extension beyond the paper's scope: aligned vectors in a
        // direct-mapped cache conflict every iteration, while a 4-way cache
        // lets vaxpy's y-write hit the y-read's line and beats even the
        // idealized per-stream-buffer model.
        let run_with = |cache| {
            let mut cfg = SystemConfig::natural_order(CLI).with_alignment(Alignment::Aligned);
            cfg.cache = cache;
            run_kernel(Kernel::Vaxpy, 512, 1, &cfg)
                .expect("fault-free run")
                .percent_peak()
        };
        let ideal = run_with(None);
        let four_way = run_with(Some(baseline::cache::CacheConfig::i860xp()));
        let direct = run_with(Some(baseline::cache::CacheConfig {
            ways: 1,
            ..baseline::cache::CacheConfig::i860xp()
        }));
        assert!(four_way > ideal, "shared-line hits: {four_way} !> {ideal}");
        assert!(
            direct < 0.5 * ideal,
            "conflict thrash: {direct} !< half of {ideal}"
        );
    }

    #[test]
    fn chaos_plans_slow_runs_without_corrupting_data() {
        // A channel brownout stretches DATA delivery (never corrupts it):
        // the run stays verified against the scalar reference, takes
        // longer, and the router's per-channel accounting reconciles with
        // the injected windows.
        let base = SystemConfig::smc(CLI, 32).with_channels(2);
        let plan = faults::FaultPlan::parse("brownout:0:100:1500:4;outage:1:400:600").unwrap();
        let chaotic = base.clone().with_chaos(plan.clone(), 7);
        let healthy = run_kernel(Kernel::Copy, 256, 1, &base).expect("fault-free run");
        let degraded = run_kernel(Kernel::Copy, 256, 1, &chaotic).expect("degraded run");
        assert!(
            degraded.cycles > healthy.cycles,
            "chaos must cost cycles: {} !> {}",
            degraded.cycles,
            healthy.cycles
        );
        let total = degraded.chaos_total();
        assert!(!total.is_clean(), "degraded run records losses");
        assert!(total.degraded_commands > 0, "brownout hit channel 0");
        assert_eq!(degraded.chaos_stats.len(), 2);
        // MTTR reconciles exactly: each observed outage contributes its
        // full injected window length.
        assert_eq!(
            total.mttr_cycles,
            total.outages_observed * 600,
            "every outage on channel 1 is the one 600-cycle window"
        );
        // Deterministic replay.
        let again = run_kernel(Kernel::Copy, 256, 1, &chaotic).expect("degraded run");
        assert_eq!(again.cycles, degraded.cycles);
        assert_eq!(again.chaos_stats, degraded.chaos_stats);
    }

    #[test]
    fn chaos_plans_without_channel_clauses_are_inert() {
        let base = SystemConfig::smc(CLI, 32);
        let healthy = run_kernel(Kernel::Daxpy, 128, 1, &base).expect("fault-free run");
        // A chaos field carrying only device-level clauses routes nothing
        // through the degraded path (those clauses belong to `faults`).
        let plan = faults::FaultPlan::parse("nack:0:0").unwrap();
        let inert = run_kernel(Kernel::Daxpy, 128, 1, &base.clone().with_chaos(plan, 3))
            .expect("fault-free run");
        assert_eq!(inert.cycles, healthy.cycles);
        assert!(inert.chaos_stats.is_empty());
        assert!(inert.chaos_total().is_clean());
    }

    #[test]
    fn a_permanent_stall_is_a_livelock_on_both_orderings() {
        // A controller that may never issue trips its watchdog at the
        // default deadline, on a stalled cycle.
        let stall = faults::FaultPlan::parse("stall:1:1").unwrap();
        for cfg in [SystemConfig::smc(CLI, 32), SystemConfig::natural_order(CLI)] {
            let cfg = cfg.with_faults(stall.clone(), 0);
            match run_kernel(Kernel::Copy, 64, 1, &cfg) {
                Err(SimError::Controller(smc::SmcError::Livelock(report))) => {
                    assert_eq!((report.now, report.stalled_for), (50_000, 50_000));
                }
                other => panic!("{:?}: expected a livelock, got {other:?}", cfg.ordering),
            }
        }
    }

    #[test]
    fn verification_runs_for_every_paper_kernel_on_smc() {
        // run_kernel panics internally if the image diverges; exercising all
        // four kernels on both organizations is the end-to-end data check.
        for mem in [CLI, PI] {
            for kernel in Kernel::PAPER_SUITE {
                let r = run_kernel(kernel, 128, 1, &SystemConfig::smc(mem, 32))
                    .expect("fault-free run");
                assert!(r.percent_peak() > 0.0);
            }
        }
    }
}
