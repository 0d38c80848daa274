//! The Stream Memory Controller facade: SBU + MSU behind one interface.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use memsys::{MemorySystem, SystemMap};
use rdram::{Cycle, MemoryImage};
use telemetry::Event;

use crate::{
    LivelockReport, Msu, MsuConfig, MsuStats, Sbu, SmcError, StreamDescriptor, Watchdog,
    DEFAULT_WATCHDOG_CYCLES,
};

/// A complete Stream Memory Controller.
///
/// The processor side ([`cpu_read`](SmcController::cpu_read) /
/// [`cpu_write`](SmcController::cpu_write)) dereferences FIFO heads in the
/// computation's natural order; the memory side
/// ([`tick`](SmcController::tick)) reorders the actual DRAM traffic.
///
/// See the [crate documentation](crate) for a complete example.
#[derive(Debug)]
pub struct SmcController {
    sbu: Sbu,
    msu: Msu,
    /// Keyed on (commands the memory system accepted, elements moved on
    /// either side of every FIFO). A FIFO's occupancy moves only when one
    /// of its element counts does, so the key misses no progress.
    watchdog: Watchdog<(u64, u64)>,
    /// Controller events, while recording them.
    events: Option<Vec<Event>>,
    /// MSU statistics at the previous tick; the event emitter turns
    /// per-tick deltas into events without touching the scheduler.
    prev_stats: MsuStats,
    prev_refreshes: u64,
    prev_occupancy: Vec<usize>,
}

impl SmcController {
    /// Program the controller with a computation's streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or the FIFO depth in `cfg` is smaller
    /// than one DATA packet (2 elements).
    pub fn new(streams: Vec<StreamDescriptor>, map: SystemMap, cfg: MsuConfig) -> Self {
        SmcController {
            sbu: Sbu::new(streams, cfg.fifo_depth),
            msu: Msu::new(map, cfg),
            watchdog: Watchdog::new(DEFAULT_WATCHDOG_CYCLES),
            events: None,
            prev_stats: MsuStats::default(),
            prev_refreshes: 0,
            prev_occupancy: Vec::new(),
        }
    }

    /// Record events from the next [`tick`](Self::tick) on: one [`Event`]
    /// per observable change — FIFO depth samples, service switches,
    /// fault-recovery incidents, refreshes, and watchdog trips — until
    /// [`take_events`](Self::take_events) collects them. Without it the
    /// per-tick cost is a single `Option` check.
    pub fn record_events(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// The events recorded so far, in emission order, leaving the record
    /// empty. Empty when not recording.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Replace the forward-progress watchdog threshold (cycles without
    /// observable progress before [`tick`](Self::tick) returns
    /// [`SmcError::Livelock`]).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_watchdog(mut self, limit: Cycle) -> Self {
        self.watchdog = Watchdog::new(limit);
        self
    }

    /// Honour DRAM refresh obligations (see
    /// [`Msu::set_refresh`](crate::Msu::set_refresh)).
    pub fn with_refresh(mut self, timer: rdram::refresh::RefreshTimer) -> Self {
        self.msu.set_refresh(timer);
        self
    }

    /// Refreshes performed so far (zero when refresh is disabled).
    pub fn refreshes_issued(&self) -> u64 {
        self.msu.refreshes_issued()
    }

    /// Processor side: dereference the head of read-stream FIFO `fifo`.
    /// Returns `None` when the element has not arrived (processor stalls).
    ///
    /// # Panics
    ///
    /// Panics if `fifo` is a write-stream or already fully consumed.
    pub fn cpu_read(&mut self, fifo: usize, now: Cycle) -> Option<u64> {
        self.sbu.cpu_pop(fifo, now)
    }

    /// Processor side: append `value` to write-stream FIFO `fifo`. Returns
    /// `false` when the FIFO is full (processor stalls).
    ///
    /// # Panics
    ///
    /// Panics if `fifo` is a read-stream or already fully produced.
    pub fn cpu_write(&mut self, fifo: usize, value: u64, now: Cycle) -> bool {
        self.sbu.cpu_push(fifo, value, now)
    }

    /// Memory side: advance the MSU by one interface-clock cycle.
    ///
    /// # Errors
    ///
    /// Propagates the MSU's [`SmcError`]s and adds
    /// [`SmcError::Livelock`] when the forward-progress watchdog sees no
    /// command issued and no FIFO element moved for the watchdog threshold
    /// (see [`with_watchdog`](Self::with_watchdog)), counted from the
    /// latest delivery of an accepted command
    /// ([`MemorySystem::last_delivery`]).
    pub fn tick(
        &mut self,
        now: Cycle,
        dev: &mut MemorySystem,
        mem: &mut MemoryImage,
    ) -> Result<(), SmcError> {
        self.msu.tick(now, dev, mem, &mut self.sbu)?;
        if self.events.is_some() {
            self.emit_events(now);
        }
        if self.mem_complete() {
            self.watchdog.idle(now);
            return Ok(());
        }
        let key = (dev.commands_accepted(), self.sbu.moved());
        if let Some(stalled_for) = self.watchdog.observe(now, key, dev.last_delivery()) {
            if let Some(events) = &mut self.events {
                events.push(Event::WatchdogTrip {
                    cycle: now,
                    stalled_for,
                });
            }
            return Err(SmcError::Livelock(Box::new(self.livelock_report(now, dev))));
        }
        Ok(())
    }

    /// Diff the MSU's statistics against the previous tick and record one
    /// event per change. Only called while recording events.
    fn emit_events(&mut self, now: Cycle) {
        let stats = *self.msu.stats();
        let prev = self.prev_stats;
        let refreshes = self.msu.refreshes_issued();
        if let Some(events) = &mut self.events {
            if stats.fifo_switches > prev.fifo_switches {
                events.push(Event::FifoSwitch {
                    cycle: now,
                    fifo: self.msu.current_fifo().unwrap_or(0),
                });
            }
            for _ in prev.data_nacks..stats.data_nacks {
                events.push(Event::DataNack {
                    cycle: now,
                    bank: self.msu.last_issued().map(|(c, _)| c.bank()),
                });
            }
            for _ in prev.injected_stall_cycles..stats.injected_stall_cycles {
                events.push(Event::InjectedStall { cycle: now });
            }
            if stats.degraded_banks > prev.degraded_banks {
                events.push(Event::BankDegraded {
                    cycle: now,
                    total: stats.degraded_banks,
                });
            }
            for _ in prev.speculative_activates..stats.speculative_activates {
                events.push(Event::SpeculativeActivate { cycle: now });
            }
            for _ in self.prev_refreshes..refreshes {
                events.push(Event::Refresh { cycle: now });
            }
            for (fifo, f) in self.sbu.iter().enumerate() {
                let occupancy = f.state().occupancy;
                if self.prev_occupancy.get(fifo) != Some(&occupancy) {
                    events.push(Event::FifoDepth {
                        cycle: now,
                        fifo,
                        occupancy: occupancy as u64,
                    });
                }
            }
        }
        self.prev_stats = stats;
        self.prev_refreshes = refreshes;
        self.prev_occupancy.clear();
        self.prev_occupancy
            .extend(self.sbu.iter().map(|f| f.state().occupancy));
    }

    fn livelock_report(&self, now: Cycle, dev: &MemorySystem) -> LivelockReport {
        let banks = dev.total_banks();
        let (last_command, last_command_cycle) = match self.msu.last_issued() {
            Some((c, t)) => (Some(format!("{c:?}")), t),
            None => (None, 0),
        };
        LivelockReport {
            now,
            stalled_for: self.watchdog.stalled_for(now),
            last_command,
            last_command_cycle,
            open_banks: (0..banks)
                .filter_map(|b| dev.open_row(b).map(|r| (b, r)))
                .collect(),
            fifo_occupancy: self.sbu.iter().map(|f| f.state().occupancy).collect(),
            in_flight: self.msu.in_flight(),
            pending: 0,
        }
    }

    /// Reprogram the controller for a new computation, reusing the MSU and
    /// its configuration. This models the real hardware's lifecycle: the
    /// compiler re-transmits stream parameters between inner loops.
    ///
    /// # Panics
    ///
    /// Panics if the previous computation has not completed
    /// ([`mem_complete`](Self::mem_complete)) — reprogramming an active SBU
    /// would lose buffered data — or if `streams` is empty.
    pub fn reprogram(&mut self, streams: Vec<StreamDescriptor>) {
        assert!(
            self.mem_complete(),
            "cannot reprogram while streams are still in flight"
        );
        let depth = self.sbu.fifo(0).depth();
        self.sbu = Sbu::new(streams, depth);
        self.msu.reset_service_state();
        self.watchdog.forget();
    }

    /// All streams have fully moved between the FIFOs and memory, with
    /// nothing left in the MSU's pipeline.
    pub fn mem_complete(&self) -> bool {
        self.msu.quiescent() && self.sbu.all_complete()
    }

    /// The Stream Buffer Unit (FIFO states, stream descriptors).
    pub fn sbu(&self) -> &Sbu {
        &self.sbu
    }

    /// MSU scheduling statistics.
    pub fn msu_stats(&self) -> &MsuStats {
        self.msu.stats()
    }

    /// Ticks that ran the MSU's scheduling passes. The MSU sleeps through
    /// the rest (see [`Msu::tick`]), so this counts the host work a run
    /// cost, not a simulated result.
    pub fn full_ticks(&self) -> u64 {
        self.msu.full_ticks()
    }

    /// Run the MSU's scheduling passes on every tick, never sleeping. The
    /// results are the same, only slower to reach; equivalence tests hold
    /// the sleeping MSU to this one.
    pub fn without_sleep(mut self) -> Self {
        self.msu.disable_sleep();
        self
    }

    /// End cycle of the last DATA packet the MSU has scheduled.
    pub fn last_data_cycle(&self) -> Cycle {
        self.msu.stats().last_data_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PagePolicy, Policy};
    use rdram::{AddressMap, DeviceConfig, Interleave};

    fn setup(kind: Interleave) -> (MemorySystem, MemoryImage, SystemMap) {
        let cfg = DeviceConfig::default();
        let map = SystemMap::single(AddressMap::new(kind, &cfg).unwrap());
        (MemorySystem::single(cfg), MemoryImage::new(), map)
    }

    #[test]
    fn copy_through_the_controller_preserves_data() {
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let n = 128u64;
        for i in 0..n {
            mem.write_f64(i * 8, (i as f64).sqrt());
        }
        let streams = vec![
            StreamDescriptor::read("x", 0, 1, n),
            StreamDescriptor::write("y", 32 * 1024, 1, n),
        ];
        let mut ctl = SmcController::new(streams, map, MsuConfig::default());
        let mut i = 0u64;
        let mut held: Option<u64> = None;
        let mut now = 0;
        while !(ctl.mem_complete() && i == n) {
            ctl.tick(now, &mut dev, &mut mem).expect("fault-free run");
            if i < n {
                // A real CPU stalls on a full write FIFO, holding the value.
                if held.is_none() {
                    held = ctl.cpu_read(0, now);
                }
                if let Some(v) = held {
                    if ctl.cpu_write(1, v, now) {
                        held = None;
                        i += 1;
                    }
                }
            }
            now += 1;
            assert!(now < 1_000_000, "copy failed to complete");
        }
        for k in 0..n {
            assert_eq!(
                mem.read_f64(32 * 1024 + k * 8),
                (k as f64).sqrt(),
                "element {k}"
            );
        }
        assert_eq!(ctl.msu_stats().packets_read, n / 2);
        assert_eq!(ctl.msu_stats().packets_written, n / 2);
        assert!(ctl.last_data_cycle() > 0);
    }

    #[test]
    fn reprogramming_reuses_the_controller() {
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let n = 32u64;
        for i in 0..n {
            mem.write_f64(i * 8, i as f64);
            mem.write_f64(64 * 1024 + i * 8, 2.0 * i as f64);
        }
        let mut ctl = SmcController::new(
            vec![StreamDescriptor::read("a", 0, 1, n)],
            map,
            MsuConfig {
                fifo_depth: 16,
                ..MsuConfig::default()
            },
        );
        let mut now = 0;
        let mut popped = 0;
        while popped < n {
            ctl.tick(now, &mut dev, &mut mem).expect("fault-free run");
            if ctl.cpu_read(0, now).is_some() {
                popped += 1;
            }
            now += 1;
        }
        assert!(ctl.mem_complete());
        // Second computation on the same hardware.
        ctl.reprogram(vec![StreamDescriptor::read("b", 64 * 1024, 1, n)]);
        assert!(!ctl.mem_complete());
        let mut got = Vec::new();
        while got.len() < n as usize {
            ctl.tick(now, &mut dev, &mut mem).expect("fault-free run");
            if let Some(v) = ctl.cpu_read(0, now) {
                got.push(f64::from_bits(v));
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(got[5], 10.0);
    }

    #[test]
    #[should_panic(expected = "still in flight")]
    fn reprogramming_mid_flight_is_rejected() {
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let mut ctl = SmcController::new(
            vec![StreamDescriptor::read("a", 0, 1, 64)],
            map,
            MsuConfig::default(),
        );
        for now in 0..40 {
            ctl.tick(now, &mut dev, &mut mem).expect("fault-free run");
        }
        ctl.reprogram(vec![StreamDescriptor::read("b", 4096, 1, 8)]);
    }

    #[test]
    fn permanently_busy_banks_trip_the_watchdog() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        // Every bank busy on every cycle: the MSU can never issue anything.
        let plan = FaultPlan::parse("busy:*:1:1").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 7));
        let mut ctl = SmcController::new(
            vec![StreamDescriptor::read("x", 0, 1, 64)],
            map,
            MsuConfig::default(),
        )
        .with_watchdog(500);
        let mut err = None;
        for now in 0..5_000 {
            if let Err(e) = ctl.tick(now, &mut dev, &mut mem) {
                err = Some(e);
                break;
            }
        }
        match err.expect("watchdog should have tripped") {
            SmcError::Livelock(report) => {
                // Admission at cycle 0 is the last progress; the stall
                // reaches the threshold exactly 500 cycles later.
                assert_eq!((report.now, report.stalled_for), (500, 500), "{report}");
                assert_eq!(report.fifo_occupancy.len(), 1);
                assert!(report.last_command.is_none(), "nothing ever issued");
            }
            other @ (SmcError::Protocol(_)
            | SmcError::RetryExhausted { .. }
            | SmcError::Internal(_)) => panic!("expected livelock, got {other}"),
        }
    }

    #[test]
    fn nacked_data_packets_are_retried_to_completion() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let n = 64u64;
        for i in 0..n {
            mem.write_u64(i * 8, 5000 + i);
        }
        let plan = FaultPlan::parse("nack:300:10").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 11));
        let mut ctl = SmcController::new(
            vec![StreamDescriptor::read("x", 0, 1, n)],
            map,
            MsuConfig::default(),
        );
        let mut got = Vec::new();
        let mut now = 0;
        while got.len() < n as usize {
            ctl.tick(now, &mut dev, &mut mem).expect("retries suffice");
            if let Some(v) = ctl.cpu_read(0, now) {
                got.push(v);
            }
            now += 1;
            assert!(now < 200_000, "NACK retries starved the stream");
        }
        assert_eq!(got, (0..n).map(|i| 5000 + i).collect::<Vec<_>>());
        assert!(ctl.msu_stats().data_nacks > 0, "the fault never fired");
    }

    #[test]
    fn repeated_bank_conflicts_degrade_to_closed_page() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let n = 512u64;
        for i in 0..n {
            mem.write_u64(i * 8, i);
        }
        // Bank 0 spends half of every 64-cycle window busy; with a low
        // degradation threshold the MSU demotes it quickly.
        let plan = FaultPlan::parse("busy:0:64:32").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 3));
        let cfg = MsuConfig {
            degrade_after: 8,
            ..MsuConfig::default()
        };
        let mut ctl = SmcController::new(vec![StreamDescriptor::read("x", 0, 1, n)], map, cfg);
        let mut popped = 0u64;
        let mut now = 0;
        while popped < n {
            ctl.tick(now, &mut dev, &mut mem)
                .expect("degraded run completes");
            if ctl.cpu_read(0, now).is_some() {
                popped += 1;
            }
            now += 1;
            assert!(now < 1_000_000, "degraded run starved");
        }
        assert_eq!(ctl.msu_stats().degraded_banks, 1, "bank 0 should demote");
    }

    #[test]
    fn injected_stalls_pause_but_do_not_kill_the_run() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let n = 128u64;
        for i in 0..n {
            mem.write_u64(i * 8, i);
        }
        let plan = FaultPlan::parse("stall:100:20").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 1));
        let mut ctl = SmcController::new(
            vec![StreamDescriptor::read("x", 0, 1, n)],
            map,
            MsuConfig::default(),
        );
        let mut popped = 0u64;
        let mut now = 0;
        while popped < n {
            ctl.tick(now, &mut dev, &mut mem)
                .expect("stalls are transient");
            if ctl.cpu_read(0, now).is_some() {
                popped += 1;
            }
            now += 1;
            assert!(now < 100_000, "stalls starved the stream");
        }
        assert!(ctl.msu_stats().injected_stall_cycles > 0);
    }

    #[test]
    fn the_memory_system_records_every_issued_command() {
        let (mut dev, mut mem, map) = setup(Interleave::Page);
        let n = 32u64;
        for i in 0..n {
            mem.write_u64(i * 8, i);
        }
        dev.record_commands();
        let mut ctl = SmcController::new(
            vec![StreamDescriptor::read("x", 0, 1, n)],
            map,
            MsuConfig::default(),
        );
        let mut popped = 0u64;
        let mut now = 0;
        while popped < n {
            ctl.tick(now, &mut dev, &mut mem).expect("fault-free run");
            if ctl.cpu_read(0, now).is_some() {
                popped += 1;
            }
            now += 1;
            assert!(now < 100_000);
        }
        let recs = dev.take_commands();
        let stats = dev.stats();
        assert_eq!(
            recs.len() as u64,
            stats.activates + stats.precharges + stats.read_packets + stats.write_packets,
            "one record per issued command"
        );
    }

    #[test]
    fn controller_exposes_sbu_and_config() {
        let (_, _, map) = setup(Interleave::Cacheline { line_bytes: 32 });
        let cfg = MsuConfig {
            fifo_depth: 16,
            policy: Policy::BankAware,
            page_policy: PagePolicy::ClosedPage,
            ..MsuConfig::default()
        };
        let ctl = SmcController::new(vec![StreamDescriptor::read("x", 0, 1, 8)], map, cfg);
        assert_eq!(ctl.sbu().len(), 1);
        assert_eq!(ctl.sbu().fifo(0).depth(), 16);
        assert!(!ctl.mem_complete());
    }
}
