//! `sim::run_kernel` rebuilt from the layers' public calls, so the traced
//! run can time `SmcController::tick`, `StreamCpu::tick` and
//! `BaselineController::run_to_completion` separately, plus a replay of a
//! recorded command stream through a fresh `memsys::MemorySystem`.
//!
//! The replica covers the plain configurations the stream workloads use
//! (no faults, chaos, refresh, cache model or write-allocate). The traced
//! run checks that it reproduces `run_kernel`'s cycles, `DeviceStats`,
//! `MsuStats` and baseline summary exactly, so a drift between this file
//! and the runner shows up as a correctness failure, not as a silent
//! mis-attribution of time.

use std::time::Instant;

use baseline::{BaselineController, BaselineResult, WritePolicy};
use kernels::{Coefficients, Kernel};
use memsys::SystemMap;
use rdram::{AddressMap, CommandRecord, Cycle, DeviceStats, MemoryImage};
use sim::{AccessOrder, StreamCpu, SystemConfig};
use smc::{MsuConfig, MsuStats, SmcController};

use crate::spans::{ns_between, ns_since};

/// What the replica measured and computed for one run.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Cycles from 0 to the last DATA packet or CPU access.
    pub cycles: Cycle,
    /// Device counters summed over channels.
    pub device_stats: DeviceStats,
    /// MSU counters (SMC runs).
    pub msu_stats: Option<MsuStats>,
    /// Controller summary (natural-order runs).
    pub baseline: Option<BaselineResult>,
    /// Cycles stepped by the SMC loop (each calls both ticks once).
    pub ticks: u64,
    /// Host time inside `SmcController::tick`, less one clock read per
    /// call (see [`clock_read_ns`]).
    pub smc_ns: u64,
    /// Host time inside `StreamCpu::tick`, less one clock read per call.
    pub cpu_ns: u64,
    /// Host time inside `BaselineController::run_to_completion`.
    pub baseline_ns: u64,
}

/// Whether [`replicate`] covers `cfg`: no faults, chaos, refresh, cache
/// model, write-allocate or telemetry collection (whose cost the replica
/// would leave out).
pub fn replicable(cfg: &SystemConfig) -> bool {
    cfg.faults.is_none()
        && cfg.chaos.is_none()
        && !cfg.refresh
        && cfg.cache.is_none()
        && !cfg.write_allocate
        && !cfg.telemetry
}

/// The address map `run_kernel` builds for `cfg`.
fn system_map(cfg: &SystemConfig) -> Result<SystemMap, String> {
    let inner = AddressMap::new(cfg.memory.interleave(cfg.line_bytes), &cfg.device)
        .map_err(|e| format!("invalid address map: {e}"))?;
    let topo = cfg.topology();
    if topo.is_single() {
        Ok(SystemMap::single(inner))
    } else {
        SystemMap::new(inner, &cfg.device, &topo, cfg.placement)
            .map_err(|e| format!("invalid placement: {e}"))
    }
}

/// A fresh memory system shaped like `run_kernel`'s for `cfg`, with the
/// configuration's chaos plan attached.
fn memory_system(cfg: &SystemConfig) -> memsys::MemorySystem {
    let topo = cfg.topology();
    let mut dev = if topo.is_single() {
        memsys::MemorySystem::single(cfg.device.clone())
    } else {
        memsys::MemorySystem::new(cfg.device.clone(), topo)
    };
    if let Some(plan) = cfg.chaos.as_ref().filter(|p| p.has_channel_faults()) {
        dev.set_chaos(faults::FaultInjector::new(plan, cfg.chaos_seed));
    }
    dev
}

/// The memory image `run_kernel` starts from: every element of every
/// vector holds a distinct value.
pub fn seeded_image(kernel: Kernel, bases: &[u64], n: u64, stride: u64) -> MemoryImage {
    let mut mem = MemoryImage::new();
    for (v, &base) in bases.iter().enumerate() {
        for e in 0..kernel.vector_len(v, n, stride) {
            let value = (v as f64 + 1.0) * 1_000_000.0 + e as f64 * 0.5;
            mem.write_f64(base + e * rdram::ELEM_BYTES, value);
        }
    }
    mem
}

/// Host nanoseconds one `Instant::now()` call takes, measured over many
/// back-to-back calls. An interval timed between two clock reads also
/// covers about one call's worth of the timer itself, so the per-tick
/// spans subtract this once per measured call.
pub fn clock_read_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..CALLS {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / f64::from(CALLS)
}

/// Run `kernel` the way `run_kernel` does, timing each layer's calls.
/// `clock_ns` is the cost of one clock read, from [`clock_read_ns`].
///
/// # Errors
///
/// A message when `cfg` is outside the replica's scope (see
/// [`replicable`]), invalid, or the controller reports an error.
pub fn replicate(
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
    clock_ns: f64,
) -> Result<Replica, String> {
    if !replicable(cfg) {
        return Err("configuration outside the replica's scope".to_string());
    }
    let map = system_map(cfg)?;
    let bases = sim::vector_bases(kernel, n, stride, cfg);
    let mut dev = memory_system(cfg);
    let mut mem = seeded_image(kernel, &bases, n, stride);
    let streams = kernel.stream_descriptors(&bases, n, stride);
    let useful_words = streams.len() as u64 * n;
    match cfg.ordering {
        AccessOrder::NaturalOrder => {
            let mut ctl =
                BaselineController::new(streams, map, cfg.memory.line_policy(), cfg.line_bytes)
                    .with_write_policy(WritePolicy::StoreDirect);
            let t0 = Instant::now();
            let result = ctl.run_to_completion(&mut dev).map_err(|e| e.to_string())?;
            let baseline_ns = ns_since(t0);
            Ok(Replica {
                cycles: result.last_data_cycle,
                device_stats: dev.stats(),
                msu_stats: None,
                baseline: Some(result),
                ticks: 0,
                smc_ns: 0,
                cpu_ns: 0,
                baseline_ns,
            })
        }
        AccessOrder::Smc { fifo_depth } => {
            let msu_cfg = MsuConfig {
                fifo_depth,
                policy: cfg.policy,
                page_policy: cfg.memory.page_policy(),
                speculative_activate: cfg.speculative,
                degrade_after: 0,
                ..MsuConfig::default()
            };
            let mut ctl = SmcController::new(streams, map, msu_cfg);
            let mut cpu = StreamCpu::new(kernel, Coefficients::default(), n)
                .with_access_cycles(cfg.cpu_access_cycles);
            let budget = 400 * (useful_words + 1024) + 2_000_000;
            let (mut smc_ns, mut cpu_ns) = (0u64, 0u64);
            let mut now: Cycle = 0;
            while !(cpu.done() && ctl.mem_complete()) {
                let t0 = Instant::now();
                ctl.tick(now, &mut dev, &mut mem)
                    .map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                cpu.tick(now, &mut ctl);
                let t2 = Instant::now();
                smc_ns += ns_between(t0, t1);
                cpu_ns += ns_between(t1, t2);
                now += 1;
                if now >= budget {
                    return Err(format!("replica exceeded its {budget}-cycle budget"));
                }
            }
            let timers = (clock_ns * now as f64) as u64;
            Ok(Replica {
                cycles: ctl.last_data_cycle().max(cpu.finish_cycle()),
                device_stats: dev.stats(),
                msu_stats: Some(*ctl.msu_stats()),
                baseline: None,
                ticks: now,
                smc_ns: smc_ns.saturating_sub(timers),
                cpu_ns: cpu_ns.saturating_sub(timers),
                baseline_ns: 0,
            })
        }
    }
}

/// Replay `commands` in recorded order through a fresh memory system with
/// `cfg`'s topology and chaos plan: each command goes through `earliest`
/// from its recorded cycle and is then issued there.
///
/// # Errors
///
/// A message when the system never accepts a command or rejects one at
/// the cycle `earliest` returned (a memsys bug either way).
pub fn replay(cfg: &SystemConfig, commands: &[CommandRecord]) -> Result<(), String> {
    let mut dev = memory_system(cfg);
    for rec in commands {
        let at = dev.earliest(&rec.cmd, rec.cycle);
        if at == Cycle::MAX {
            return Err(format!("memsys never accepts {:?}", rec.cmd));
        }
        dev.issue_at(&rec.cmd, at)
            .map_err(|e| format!("memsys rejected {:?} at {at}: {e}", rec.cmd))?;
    }
    Ok(())
}
