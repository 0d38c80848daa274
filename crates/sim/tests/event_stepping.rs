//! `BaselineController::run_to_completion` steps from event to event. These
//! tests hold it to the per-cycle loop it replaced, and pin the host work
//! it does.

mod common;

use baseline::{BaselineController, BaselineResult, WritePolicy};
use faults::FaultPlan;
use kernels::Kernel;
use rdram::{CommandRecord, Cycle, DeviceStats};
use sim::{vector_bases, MemorySystem, SystemConfig};
use smc::{SmcError, DEFAULT_WATCHDOG_CYCLES};
use telemetry::Event;

use common::plans;

/// Everything a natural-order run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<BaselineResult, String>,
    device_stats: DeviceStats,
    /// `elem_arrival` of every element of every stream, stream-major.
    arrivals: Vec<Option<Cycle>>,
    commands: Vec<CommandRecord>,
    events: Vec<Event>,
}

/// A controller wired the way `run_kernel` wires it for `cfg`, on the
/// memory system `SystemConfig::build_memory` builds (faults and chaos
/// attached), with at most `mshrs` line transfers in flight, a watchdog
/// threshold of `watchdog` cycles, and commands and events recorded.
struct Rig {
    ctl: BaselineController,
    dev: memsys::MemorySystem,
    streams: usize,
    n: u64,
}

impl Rig {
    fn new(
        kernel: Kernel,
        n: u64,
        stride: u64,
        cfg: &SystemConfig,
        mshrs: usize,
        watchdog: Cycle,
    ) -> Self {
        let (map, mut dev) = cfg.build_memory().expect("valid system");
        let streams = kernel.stream_descriptors(&vector_bases(kernel, n, stride, cfg), n, stride);
        let write_policy = if cfg.write_allocate {
            WritePolicy::WriteAllocate
        } else {
            WritePolicy::StoreDirect
        };
        let stream_count = streams.len();
        let mut ctl =
            BaselineController::new(streams, map, cfg.memory.line_policy(), cfg.line_bytes)
                .with_write_policy(write_policy)
                .with_max_in_flight(mshrs)
                .with_watchdog(watchdog);
        if let Some(cache) = cfg.cache {
            ctl = ctl.with_cache(cache);
        }
        dev.record_commands();
        ctl.record_events();
        Rig {
            ctl,
            dev,
            streams: stream_count,
            n,
        }
    }

    /// The parent's loop: the public `tick` once per cycle until done.
    /// `run_to_completion` then has nothing left to step and only returns
    /// the summary.
    fn per_cycle(&mut self) -> Result<BaselineResult, SmcError> {
        let mut now: Cycle = 0;
        while !self.ctl.done() {
            self.ctl.tick(now, &mut self.dev)?;
            now += 1;
        }
        self.ctl.run_to_completion(&mut self.dev)
    }

    fn outcome(mut self, result: Result<BaselineResult, SmcError>) -> (Outcome, u64) {
        let arrivals = (0..self.streams)
            .flat_map(|s| (0..self.n).map(move |e| (s, e)))
            .map(|(s, e)| self.ctl.elem_arrival(s, e))
            .collect();
        let outcome = Outcome {
            result: result.map_err(|e| format!("{e:?}")),
            device_stats: self.dev.stats(),
            arrivals,
            commands: self.dev.take_commands(),
            events: self.ctl.take_events(),
        };
        (outcome, self.ctl.ticks())
    }
}

/// Run one point both ways and check that the outcomes agree. Returns the
/// event-stepped outcome, the cycles stepped per cycle, and the ticks
/// event stepping took.
fn check_point(
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
    mshrs: usize,
    watchdog: Cycle,
) -> (Outcome, u64, u64) {
    let mut reference = Rig::new(kernel, n, stride, cfg, mshrs, watchdog);
    let result = reference.per_cycle();
    let (want, cycles) = reference.outcome(result);
    let mut stepped = Rig::new(kernel, n, stride, cfg, mshrs, watchdog);
    let result = stepped.ctl.run_to_completion(&mut stepped.dev);
    let (got, ticks) = stepped.outcome(result);
    let point = format!(
        "{kernel} n={n} stride={stride} {:?} mshrs={mshrs} channels={} write_allocate={} \
         cache={} faults={:?} chaos={:?} watchdog={watchdog}",
        cfg.memory,
        cfg.channels,
        cfg.write_allocate,
        cfg.cache.is_some(),
        cfg.faults.as_ref().map(FaultPlan::to_spec),
        cfg.chaos.as_ref().map(FaultPlan::to_spec),
    );
    assert_eq!(got, want, "{point}");
    (got, cycles, ticks)
}

/// Every point of one kernel: CLI and PI, strides 1, 4 and 16, store-direct,
/// write-allocate and the cache model, 1 and 4 MSHRs, one channel or two
/// interleaved channels with a remote penalty, each under every plan. The
/// chaos points step from event to event too: their ticks stay under
/// `max_chaos_ticks`, set to the count when they first did (about a
/// seventh of their cycles).
fn check_kernel(kernel: Kernel, max_chaos_ticks: u64) {
    let n = 96;
    let (mut cycles, mut ticks) = (0, 0);
    let (mut chaos_cycles, mut chaos_ticks) = (0, 0);
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for stride in [1, 4, 16] {
            for schedule in 0..3 {
                for channels in [1, 2] {
                    for (faults, chaos) in plans(channels) {
                        let mut cfg = SystemConfig::natural_order(memory);
                        cfg.write_allocate = schedule == 1;
                        cfg.cache = (schedule == 2).then(baseline::cache::CacheConfig::i860xp);
                        if channels > 1 {
                            cfg = cfg.with_channels(channels).with_remote_penalty(vec![0, 24]);
                        }
                        let under_chaos = chaos.is_some();
                        cfg.faults = faults;
                        cfg.fault_seed = 11;
                        cfg.chaos = chaos;
                        cfg.chaos_seed = 5;
                        for mshrs in [1, 4] {
                            let (_, c, t) = check_point(
                                kernel,
                                n,
                                stride,
                                &cfg,
                                mshrs,
                                DEFAULT_WATCHDOG_CYCLES,
                            );
                            cycles += c;
                            ticks += t;
                            if under_chaos {
                                chaos_cycles += c;
                                chaos_ticks += t;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        ticks < cycles,
        "{kernel}: event stepping saved nothing ({ticks} ticks for {cycles} cycles)"
    );
    assert!(
        chaos_ticks <= max_chaos_ticks,
        "{kernel}: {chaos_ticks} ticks under chaos exceed the ceiling of {max_chaos_ticks} \
         ({chaos_cycles} cycles)"
    );
}

#[test]
fn copy_steps_match_the_per_cycle_loop() {
    check_kernel(Kernel::Copy, 37_787);
}

#[test]
fn daxpy_steps_match_the_per_cycle_loop() {
    check_kernel(Kernel::Daxpy, 48_314);
}

#[test]
fn hydro_steps_match_the_per_cycle_loop() {
    check_kernel(Kernel::Hydro, 60_500);
}

#[test]
fn vaxpy_steps_match_the_per_cycle_loop() {
    check_kernel(Kernel::Vaxpy, 62_274);
}

/// Banks busy for 1,024 of every 4,096 cycles starve a 500-cycle watchdog
/// on the first window: it trips at its deadline, 500 cycles after the last
/// progress. Permanently busy banks make every earliest start `Cycle::MAX`,
/// and a permanent stall never lets the controller step; the watchdog
/// watches stalled cycles too, so it trips at the deadline inside a stall
/// window.
#[test]
fn livelocks_trip_where_the_per_cycle_loop_trips() {
    let plans = [
        "busy:*:4096:1024",
        "busy:*:4096:1024;stall:450:100",
        "busy:*:1:1",
        "stall:1:1",
    ];
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for spec in plans {
            let plan = FaultPlan::parse(spec).expect("valid plan");
            let cfg = SystemConfig::natural_order(memory).with_faults(plan, 3);
            for kernel in [Kernel::Copy, Kernel::Daxpy] {
                let (got, _, _) = check_point(kernel, 64, 1, &cfg, 4, 500);
                let error = got.result.expect_err("the watchdog must trip");
                assert!(error.starts_with("Livelock"), "{spec}: {error}");
                assert!(error.contains("stalled_for: 500,"), "{spec}: {error}");
            }
        }
    }
}

/// Host work at n = 4096: each point's cycles (checked against
/// `run_kernel`) and accepted commands, and a ceiling on the ticks
/// `run_to_completion` takes, set to the count when event stepping
/// landed. A return to per-cycle stepping would need one tick per cycle.
#[test]
fn event_stepping_pins_its_host_work() {
    let n = 4096;
    let busy_stall = FaultPlan::parse("busy:*:256:16;stall:1024:32").expect("valid plan");
    let points: [(&str, Kernel, SystemConfig, Cycle, u64, u64); 3] = [
        (
            "copy, CLI",
            Kernel::Copy,
            SystemConfig::natural_order(MemorySystem::CacheLineInterleaved),
            57_336,
            6_144,
            6_144,
        ),
        (
            "daxpy, PI, busy and stall faults",
            Kernel::Daxpy,
            SystemConfig::natural_order(MemorySystem::PageInterleaved).with_faults(busy_stall, 7),
            35_284,
            7_419,
            6_264,
        ),
        (
            "vaxpy, 2 interleaved CLI channels",
            Kernel::Vaxpy,
            SystemConfig::natural_order(MemorySystem::CacheLineInterleaved).with_channels(2),
            58_375,
            12_288,
            12_288,
        ),
    ];
    for (name, kernel, cfg, cycles, max_ticks, commands) in points {
        let mut rig = Rig::new(kernel, n, 1, &cfg, 4, DEFAULT_WATCHDOG_CYCLES);
        let result = rig
            .ctl
            .run_to_completion(&mut rig.dev)
            .expect("fault-free or survivable run");
        let run = sim::run_kernel(kernel, n, 1, &cfg).expect("run_kernel");
        assert_eq!(
            result.last_data_cycle, run.cycles,
            "{name}: not run_kernel's point"
        );
        assert_eq!(result.last_data_cycle, cycles, "{name}: cycles");
        assert_eq!(rig.dev.commands_accepted(), commands, "{name}: commands");
        let ticks = rig.ctl.ticks();
        assert!(
            ticks <= max_ticks,
            "{name}: {ticks} ticks exceed the ceiling of {max_ticks}"
        );
    }
}
