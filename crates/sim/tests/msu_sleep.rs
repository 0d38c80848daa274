//! `Msu::tick` sleeps through ticks on which nothing can change. These
//! tests hold it to an MSU that runs its full scheduling passes on every
//! tick, and pin the host work it does.

mod common;

use faults::FaultPlan;
use kernels::{Coefficients, Kernel};
use rdram::{CommandRecord, Cycle, DeviceStats, MemoryImage};
use sim::{vector_bases, AccessOrder, MemorySystem, StreamCpu, SystemConfig};
use smc::{MsuConfig, MsuStats, Policy, SmcController, SmcError};
use telemetry::Event;

use common::plans;

/// Everything an SMC run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The run's cycles, or its error.
    result: Result<Cycle, String>,
    msu_stats: MsuStats,
    device_stats: DeviceStats,
    commands: Vec<CommandRecord>,
    events: Vec<Event>,
}

/// An SMC run wired the way `run_kernel` wires it for `cfg`, on the memory
/// system `SystemConfig::build_memory` builds (faults and chaos attached),
/// with commands and events recorded. Its image starts all zero: no
/// scheduling decision reads the data.
struct Rig {
    ctl: SmcController,
    cpu: StreamCpu,
    dev: memsys::MemorySystem,
    mem: MemoryImage,
}

impl Rig {
    fn new(kernel: Kernel, n: u64, stride: u64, cfg: &SystemConfig) -> Self {
        let AccessOrder::Smc { fifo_depth } = cfg.ordering else {
            panic!("an SMC configuration");
        };
        let (map, mut dev) = cfg.build_memory().expect("valid system");
        let streams = kernel.stream_descriptors(&vector_bases(kernel, n, stride, cfg), n, stride);
        let msu_cfg = MsuConfig {
            fifo_depth,
            policy: cfg.policy,
            page_policy: cfg.memory.page_policy(),
            speculative_activate: cfg.speculative,
            // `run_kernel`'s degradation threshold under device faults.
            degrade_after: if dev.faults().is_empty() { 0 } else { 16 },
            ..MsuConfig::default()
        };
        let mut ctl = SmcController::new(streams, map, msu_cfg);
        if cfg.refresh {
            let mut refresh_cfg = cfg.device.clone();
            refresh_cfg.devices = cfg.device.devices * cfg.channels;
            ctl = ctl.with_refresh(rdram::refresh::RefreshTimer::new(&refresh_cfg));
        }
        dev.record_commands();
        ctl.record_events();
        let cpu = StreamCpu::new(kernel, Coefficients::default(), n)
            .with_access_cycles(cfg.cpu_access_cycles);
        Rig {
            ctl,
            cpu,
            dev,
            mem: MemoryImage::new(),
        }
    }

    /// `Session::run`'s loop: both ticks once per cycle until done.
    fn run(&mut self) -> Result<Cycle, SmcError> {
        let mut now: Cycle = 0;
        while !(self.cpu.done() && self.ctl.mem_complete()) {
            self.ctl.tick(now, &mut self.dev, &mut self.mem)?;
            self.cpu.tick(now, &mut self.ctl);
            now += 1;
        }
        Ok(self.ctl.last_data_cycle().max(self.cpu.finish_cycle()))
    }

    fn outcome(mut self, result: Result<Cycle, SmcError>) -> (Outcome, u64) {
        let outcome = Outcome {
            result: result.map_err(|e| format!("{e:?}")),
            msu_stats: *self.ctl.msu_stats(),
            device_stats: self.dev.stats(),
            commands: self.dev.take_commands(),
            events: self.ctl.take_events(),
        };
        (outcome, self.ctl.full_ticks())
    }
}

/// Run one point with full passes on every tick and with sleeping, and
/// check that the outcomes agree. Returns the full ticks each way.
fn check_point(kernel: Kernel, n: u64, stride: u64, cfg: &SystemConfig) -> (u64, u64) {
    let mut reference = Rig::new(kernel, n, stride, cfg);
    reference.ctl = reference.ctl.without_sleep();
    let result = reference.run();
    let (want, every) = reference.outcome(result);
    let mut sleeping = Rig::new(kernel, n, stride, cfg);
    let result = sleeping.run();
    let (got, full) = sleeping.outcome(result);
    let point = format!(
        "{kernel} n={n} stride={stride} {:?} {:?} channels={} policy={:?} speculative={} \
         refresh={} faults={:?} chaos={:?}",
        cfg.memory,
        cfg.ordering,
        cfg.channels,
        cfg.policy,
        cfg.speculative,
        cfg.refresh,
        cfg.faults.as_ref().map(FaultPlan::to_spec),
        cfg.chaos.as_ref().map(FaultPlan::to_spec),
    );
    assert_eq!(got, want, "{point}");
    (every, full)
}

/// Every point of one kernel: CLI and PI, strides 1 and 4, FIFOs of 8 and
/// 32, one channel or two interleaved channels with a remote penalty, the
/// plain MSU or one with refresh, speculation or bank-aware selection,
/// each under every plan; and the plain MSU on four interleaved channels,
/// whose per-bank state spans 32 banks. Refresh runs a device with eight
/// times the rows, so its timer falls due every few hundred cycles. Under
/// each plan, device faults and chaos included, sleeping must save full
/// ticks.
fn check_kernel(kernel: Kernel) {
    let n = 96;
    let mut every = [0; 4];
    let mut full = [0; 4];
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for stride in [1, 4] {
            for fifo in [8, 32] {
                for channels in [1, 2, 4] {
                    let variants = if channels == 4 { 1 } else { 4 };
                    for variant in 0..variants {
                        for (plan, (faults, chaos)) in plans(channels).into_iter().enumerate() {
                            let mut cfg = SystemConfig::smc(memory, fifo);
                            if channels > 1 {
                                cfg = cfg.with_channels(channels).with_remote_penalty(vec![0, 24]);
                            }
                            match variant {
                                1 => {
                                    cfg.refresh = true;
                                    cfg.device.rows_per_bank *= 8;
                                }
                                2 => cfg.speculative = true,
                                3 => cfg.policy = Policy::BankAware,
                                _ => {}
                            }
                            cfg.faults = faults;
                            cfg.fault_seed = 11;
                            cfg.chaos = chaos;
                            cfg.chaos_seed = 5;
                            let (e, f) = check_point(kernel, n, stride, &cfg);
                            every[plan] += e;
                            full[plan] += f;
                        }
                    }
                }
            }
        }
    }
    for (plan, (full, every)) in full.iter().zip(every).enumerate() {
        assert!(
            *full < every,
            "{kernel}, plan {plan}: sleeping saved nothing ({full} full ticks for {every})"
        );
    }
}

#[test]
fn copy_sleeps_match_full_passes() {
    check_kernel(Kernel::Copy);
}

#[test]
fn daxpy_sleeps_match_full_passes() {
    check_kernel(Kernel::Daxpy);
}

#[test]
fn hydro_sleeps_match_full_passes() {
    check_kernel(Kernel::Hydro);
}

#[test]
fn vaxpy_sleeps_match_full_passes() {
    check_kernel(Kernel::Vaxpy);
}

/// Host work at n = 4096: each point's cycles (checked against
/// `run_kernel`) and accepted commands; a ceiling on the ticks that ran
/// the MSU's passes, set to the count when sleeping landed (under device
/// faults and chaos, when it first slept there), since a return to full
/// passes on every tick would need one per cycle; and a ceiling on the
/// launch search's device probes, set to the count when held commands
/// first reused their `earliest` answers, which probing afresh on every
/// pass exceeds by 56–102%.
#[test]
fn sleeping_pins_its_host_work() {
    let n = 4096;
    let plan = |spec: &str| FaultPlan::parse(spec).expect("valid plan");
    let points: [(&str, Kernel, SystemConfig, Cycle, u64, u64, u64); 5] = [
        (
            "copy, CLI",
            Kernel::Copy,
            SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32),
            17_041,
            10_641,
            6_244,
            17_014,
        ),
        (
            "daxpy, PI",
            Kernel::Daxpy,
            SystemConfig::smc(MemorySystem::PageInterleaved, 32),
            27_232,
            13_006,
            6_388,
            8_367,
        ),
        (
            "vaxpy, 2 interleaved CLI channels",
            Kernel::Vaxpy,
            SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32).with_channels(2),
            35_498,
            21_104,
            12_658,
            29_223,
        ),
        (
            "daxpy, PI, busy and stall faults",
            Kernel::Daxpy,
            SystemConfig::smc(MemorySystem::PageInterleaved, 32)
                .with_faults(plan("busy:*:256:16;stall:1024:32"), 7),
            28_142,
            14_091,
            6_372,
            8_209,
        ),
        (
            "copy, 2 CLI channels, brownout, outage and device failure",
            Kernel::Copy,
            SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32)
                .with_channels(2)
                .with_chaos(
                    plan("brownout:0:100:1500:4;outage:1:400:600;devfail:1:0:2000:2"),
                    5,
                ),
            17_730,
            10_344,
            6_354,
            17_503,
        ),
    ];
    for (name, kernel, cfg, cycles, max_full, commands, max_steps) in points {
        let mut rig = Rig::new(kernel, n, 1, &cfg);
        let result = rig.run().expect("fault-free or survivable run");
        let run = sim::run_kernel(kernel, n, 1, &cfg).expect("run_kernel");
        assert_eq!(result, run.cycles, "{name}: not run_kernel's point");
        assert_eq!(
            Some(*rig.ctl.msu_stats()),
            run.msu_stats,
            "{name}: not run_kernel's point"
        );
        let full = rig.ctl.full_ticks();
        let steps = rig.dev.search_steps();
        assert_eq!(result, cycles, "{name}: cycles");
        assert_eq!(rig.dev.commands_accepted(), commands, "{name}: commands");
        assert!(
            full <= max_full,
            "{name}: {full} full ticks exceed the ceiling of {max_full}"
        );
        assert!(
            steps <= max_steps,
            "{name}: {steps} launch-search probes exceed the ceiling of {max_steps}"
        );
    }
}

/// An outage of any length on one of two channels: copy, n = 4096, CLI,
/// FIFO 32. The commands it defers are delivered when it ends, and the
/// watchdog waits for them rather than reporting a livelock, so every run
/// completes exactly the outage's length after the unbroken run would.
/// The run observes one outage, its repair time is the outage's length,
/// and neither the MSU's passes nor the launch search's probes grow with
/// it: the MSU sleeps through the outage on exact `earliest` answers.
#[test]
fn outages_of_any_length_complete_at_a_cost_independent_of_their_length() {
    let n = 4096;
    let mut work = None;
    for len in [3_000, 20_000, 80_000, 160_000] {
        let plan = FaultPlan::parse(&format!("outage:1:500:{len}")).expect("valid plan");
        let cfg = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32)
            .with_channels(2)
            .with_chaos(plan, 5);
        let run = sim::run_kernel(Kernel::Copy, n, 1, &cfg)
            .unwrap_or_else(|e| panic!("outage of {len}: {e}"));
        assert_eq!(run.cycles, len + 15_537, "outage of {len}");
        let chaos = run.chaos_total();
        assert_eq!(chaos.outages_observed, 1, "outage of {len}");
        assert_eq!(chaos.mttr_cycles, len, "outage of {len}");
        let mut rig = Rig::new(Kernel::Copy, n, 1, &cfg);
        assert_eq!(rig.run().expect("completes"), run.cycles);
        let steps = (rig.ctl.full_ticks(), rig.dev.search_steps());
        assert_eq!(*work.get_or_insert(steps), steps, "outage of {len}");
        let mut natural = cfg.clone();
        natural.ordering = AccessOrder::NaturalOrder;
        sim::run_kernel(Kernel::Copy, n, 1, &natural)
            .unwrap_or_else(|e| panic!("natural order, outage of {len}: {e}"));
    }
}
