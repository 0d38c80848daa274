//! The Memory Scheduling Unit: dynamic access ordering.
//!
//! The MSU owns the memory side of every stream FIFO. It keeps a small
//! window of *in-flight* packet accesses on each channel (the Direct RDRAM
//! supports four outstanding requests), so the ROW work of one access
//! overlaps the COL and DATA packets of earlier ones — this is what lets a
//! closed-page CLI system stream at full bandwidth even though every
//! cacheline needs its own ACT.
//!
//! One modeled limitation is faithful to the paper: under an **open-page**
//! policy, an access that needs ROW work (a page crossing or a bank
//! conflict) is only admitted once the pipeline has drained, exposing the
//! full precharge/activate latency. The paper calls this out as the reason
//! its simulated PI systems fall short of the analytic bounds on long
//! vectors, and suggests speculative precharge/activation as the remedy —
//! enable [`MsuConfig::speculative_activate`] to get exactly that
//! improvement.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use serde::{Deserialize, Serialize};

use faults::FaultInjector;
use memsys::{MemorySystem, SystemMap};
use rdram::{Command, Cycle, Location, MemoryImage};

use crate::scheduler::{FifoCandidate, ServiceView};
use crate::stream::PACKET_ELEMS;
use crate::{PacketAccess, Policy, Sbu, SchedulingPolicy, SmcError, StreamKind};

/// Page-management policy the MSU applies to its accesses.
///
/// The paper pairs cacheline interleaving with `ClosedPage` and page
/// interleaving with `OpenPage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PagePolicy {
    /// Leave pages open after an access; precharge only on a row conflict.
    #[default]
    OpenPage,
    /// Close the page (via COL auto-precharge) after the last access of each
    /// burst to a bank.
    ClosedPage,
}

/// MSU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MsuConfig {
    /// FIFO depth in 64-bit elements (the paper sweeps 8–128).
    pub fifo_depth: usize,
    /// FIFO selection policy.
    pub policy: Policy,
    /// Page-management policy.
    pub page_policy: PagePolicy,
    /// Speculatively precharge/activate the next page a stream will cross
    /// into (the scheduling improvement suggested in the paper's Section 6).
    pub speculative_activate: bool,
    /// How many packet accesses of lookahead the speculative activation
    /// scans for an upcoming page crossing.
    pub spec_window: u64,
    /// Maximum in-flight packet accesses on each memory channel. The
    /// RDRAM pipelines up to four outstanding transactions; a 32-byte
    /// cacheline transaction is two packet accesses, so the default window
    /// is eight. Channels pipeline independently: an N-channel system keeps
    /// up to N times this many accesses in flight.
    pub window: usize,
    /// Graceful degradation under faults: after this many consecutive
    /// injected conflicts (fault-busy encounters or DATA NACKs) on a bank,
    /// the MSU demotes that bank from open-page to closed-page service for
    /// the rest of the run. `0` disables degradation.
    pub degrade_after: u32,
}

impl Default for MsuConfig {
    fn default() -> Self {
        MsuConfig {
            fifo_depth: 64,
            policy: Policy::RoundRobin,
            page_policy: PagePolicy::OpenPage,
            speculative_activate: false,
            spec_window: 6,
            window: 8,
            degrade_after: 0,
        }
    }
}

/// Counters the MSU accumulates while scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct MsuStats {
    /// Times the MSU moved service to a different FIFO.
    pub fifo_switches: u64,
    /// Cycles with memory work remaining but nothing schedulable.
    pub idle_cycles: u64,
    /// Speculative PRER/ACT commands issued.
    pub speculative_activates: u64,
    /// DATA packets read.
    pub packets_read: u64,
    /// DATA packets written.
    pub packets_written: u64,
    /// End cycle of the last DATA packet scheduled so far.
    pub last_data_cycle: Cycle,
    /// DATA packets NACKed by the fault injector and retried.
    pub data_nacks: u64,
    /// Cycles lost to injected controller stalls.
    pub injected_stall_cycles: u64,
    /// Banks demoted from open-page to closed-page service after repeated
    /// injected conflicts (see [`MsuConfig::degrade_after`]).
    pub degraded_banks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// ROW requirements not yet derived from live bank state.
    Unresolved,
    Precharge,
    Activate,
    Col,
}

#[derive(Debug, Clone)]
struct Slot {
    fifo: usize,
    access: PacketAccess,
    loc: Location,
    /// The channel that owns `loc.bank`.
    ch: usize,
    stage: Stage,
    /// Claimed values for a write access, in its first `access.elems`
    /// words; unused for reads.
    write_values: [u64; PACKET_ELEMS],
    is_write: bool,
    /// DATA NACKs absorbed by this access so far.
    retries: u32,
    /// The last `earliest` answer for the pending command of `stage`. Every
    /// stage change follows the issue of the slot's own command (a NACKed
    /// slot re-derives its ROW needs after its COL issued), which moves the
    /// accepted-command count past the answer's, so an answer is never
    /// reused for another command.
    launch: Option<Launch>,
}

/// An `earliest` answer and the accepted-command count it was probed at
/// (see [`Msu::launch_at`]).
#[derive(Debug, Clone, Copy)]
struct Launch {
    at: Cycle,
    commands: u64,
}

/// What the MSU tracks for one global bank. The in-flight count and the
/// youngest row change at admission and retirement; a bank's slots retire
/// in admission order (only its oldest slot resolves and issues, and a
/// NACK keeps the slot in place), so the youngest slot stays youngest
/// until the count falls to zero.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// In-flight slots on this bank.
    in_flight: usize,
    /// The row of the youngest of them; meaningless while none is.
    youngest_row: u64,
    /// Consecutive injected conflicts (the degradation trigger).
    fault_streak: u32,
    /// Demoted to closed-page service for the rest of the run.
    degraded: bool,
}

#[derive(Debug, Clone, Copy)]
struct SpecTarget {
    bank: usize,
    row: u64,
}

/// What a tick that issued nothing leaves behind. Until `until`, while the
/// SBU's readiness epoch stands still, every tick would repeat that tick
/// exactly, so it only counts its idle cycle (see [`Msu::tick`]).
#[derive(Debug, Clone, Copy)]
struct Sleep {
    until: Cycle,
    epoch: u64,
    /// Whether each skipped tick is an idle cycle (memory work remains).
    idle: bool,
}

/// The Memory Scheduling Unit.
///
/// Driven by [`tick`](Msu::tick) once per interface-clock cycle; issues at
/// most one command packet per cycle.
#[derive(Debug)]
pub struct Msu {
    cfg: MsuConfig,
    map: SystemMap,
    policy: Box<dyn SchedulingPolicy>,
    current: Option<usize>,
    slots: Vec<Slot>,
    spec: Option<SpecTarget>,
    last_spec: Option<(usize, u64)>,
    refresh: Option<rdram::refresh::RefreshTimer>,
    stats: MsuStats,
    /// Per global bank: in-flight slots, the youngest one's row, and fault
    /// degradation state.
    banks: Vec<BankState>,
    /// The most recent command issued, for livelock diagnostics.
    last_issued: Option<(Command, Cycle)>,
    /// Set after a tick that issued nothing, while the MSU may sleep.
    sleep: Option<Sleep>,
    /// Whether the MSU may sleep at all (see `disable_sleep`).
    sleeps: bool,
    /// Ticks that ran the scheduling passes.
    full_ticks: u64,
    /// In-flight slots per channel, indexed by channel.
    in_channel: Vec<usize>,
    /// The scheduler's view of every FIFO. Each FIFO's `next_loc` is
    /// decoded once per admitted packet: `decoded_at[i]` is FIFO `i`'s
    /// memory-side element index when its location was decoded.
    candidates: Vec<FifoCandidate>,
    decoded_at: Vec<Option<u64>>,
    /// Per-pass scratch, reset at the start of each pass over the slots:
    /// channels whose bus already carried a packet this cycle, and banks
    /// and FIFOs with an older slot than the one under inspection; and the
    /// least `earliest` answer of the commands held so far this tick.
    bus_used: Vec<bool>,
    bank_seen: Vec<bool>,
    fifo_seen: Vec<bool>,
    wake: Cycle,
}

impl Msu {
    /// Create an MSU for the given system address map and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the in-flight window is zero.
    pub fn new(map: SystemMap, cfg: MsuConfig) -> Self {
        assert!(cfg.window >= 1, "the MSU needs at least one in-flight slot");
        Msu {
            policy: cfg.policy.build(),
            in_channel: vec![0; map.channels()],
            bus_used: vec![false; map.channels()],
            bank_seen: vec![false; map.banks()],
            banks: vec![BankState::default(); map.banks()],
            fifo_seen: Vec::new(),
            candidates: Vec::new(),
            decoded_at: Vec::new(),
            wake: Cycle::MAX,
            map,
            cfg,
            current: None,
            slots: Vec::new(),
            spec: None,
            last_spec: None,
            refresh: None,
            stats: MsuStats::default(),
            last_issued: None,
            sleep: None,
            sleeps: true,
            full_ticks: 0,
        }
    }

    /// The most recent command this MSU issued, with its cycle.
    pub fn last_issued(&self) -> Option<(Command, Cycle)> {
        self.last_issued
    }

    /// Honour DRAM refresh obligations: the MSU interleaves one ACT/PRER
    /// refresh pair per due interval with its regular traffic, deferring
    /// while the target bank has accesses in flight.
    pub fn set_refresh(&mut self, timer: rdram::refresh::RefreshTimer) {
        self.refresh = Some(timer);
    }

    /// Refreshes performed so far (zero when refresh is disabled).
    pub fn refreshes_issued(&self) -> u64 {
        self.refresh.as_ref().map_or(0, |t| t.issued())
    }

    /// The configuration this MSU runs with.
    pub fn config(&self) -> &MsuConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MsuStats {
        &self.stats
    }

    /// Ticks that ran the scheduling passes, rather than sleeping or
    /// sitting out an injected stall: the host work the MSU did.
    pub(crate) fn full_ticks(&self) -> u64 {
        self.full_ticks
    }

    /// Run the scheduling passes on every tick, never sleeping. Sleeping
    /// changes no result, only host time; this is the reference that
    /// equivalence tests hold it to.
    pub(crate) fn disable_sleep(&mut self) {
        self.sleeps = false;
        self.sleep = None;
    }

    /// The FIFO currently being serviced.
    pub fn current_fifo(&self) -> Option<usize> {
        self.current
    }

    /// Packet accesses currently in the in-flight window.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Nothing is in flight or speculatively scheduled.
    pub fn quiescent(&self) -> bool {
        self.slots.is_empty() && self.spec.is_none()
    }

    /// Clear per-computation service state (current FIFO, speculation
    /// memory, decoded FIFO locations) ahead of a new set of streams.
    /// Statistics, fault degradation and the refresh timer carry over —
    /// they describe the hardware, not one computation.
    ///
    /// # Panics
    ///
    /// Panics if accesses are still in flight.
    pub fn reset_service_state(&mut self) {
        assert!(
            self.quiescent(),
            "cannot reset the MSU with accesses in flight"
        );
        self.current = None;
        self.last_spec = None;
        self.sleep = None;
        self.candidates.clear();
    }

    /// Advance one cycle: admit ready accesses into the window and issue at
    /// most one command packet per bus. Each memory channel has its own
    /// ROW and COL buses, so an N-channel system can launch up to N ROW
    /// and N COL packets in one cycle. The memory system's fault timeline
    /// ([`MemorySystem::faults`]) stalls the MSU, NACKs its DATA packets
    /// and holds its commands in busy windows.
    ///
    /// A tick that issues nothing sleeps until a wake cycle: the least of
    /// the `earliest` answers for the commands it held, the refresh
    /// timer's next due cycle, the cycle the first not-yet-valid buffered
    /// write becomes valid, and, under device faults, the next injected
    /// stall and the next busy-window edge of an in-flight slot's bank.
    /// Until then, while `sbu`'s readiness epoch stands still, a tick only
    /// counts its idle cycle. That is exact: the MSU is the only issuer on
    /// `dev`, and without a command issuing no bank, bus or slot changes,
    /// so each held command's `earliest` answer, the exact first
    /// acceptable launch under busy windows and chaos alike, stays where
    /// it was; chaos accounting is charged at issue; and the processor
    /// reaches the MSU only by making a FIFO ready, which advances the
    /// epoch. A tick that held a command inside a busy window does not
    /// sleep, so the bank's conflict streak grows once per held cycle, as
    /// with full passes; nor does one with a speculative target pending.
    ///
    /// # Errors
    ///
    /// [`SmcError::Protocol`] if the device rejects a scheduled command (an
    /// internal scheduling bug) or [`SmcError::RetryExhausted`] if an
    /// injected DATA NACK outlasts the fault plan's retry budget.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "MsuStats counters, one increment per cycle or event, bounded by the run length"
    )]
    pub fn tick(
        &mut self,
        now: Cycle,
        dev: &mut MemorySystem,
        mem: &mut MemoryImage,
        sbu: &mut Sbu,
    ) -> Result<(), SmcError> {
        if let Some(sleep) = self.sleep {
            if now < sleep.until && sbu.readiness_epoch() == sleep.epoch {
                self.stats.idle_cycles += u64::from(sleep.idle);
                return Ok(());
            }
            self.sleep = None;
        }
        if dev.faults().stalled(now) {
            self.stats.injected_stall_cycles += 1;
            return Ok(());
        }
        self.full_ticks += 1;
        let commands = dev.commands_accepted();
        self.wake = Cycle::MAX;
        self.service_refresh(now, dev)?;
        self.try_issue_spec(now, dev)?;
        self.admit(now, dev, sbu);
        self.resolve_stages(dev);
        // The ROW and COL command channels are independent buses (one pair
        // per memory channel): the MSU may launch one packet on each per
        // cycle.
        let col = self.issue_col(now, dev, mem, sbu)?;
        let row = self.issue_row(now, dev)?;
        let idle = !(col || row || sbu.all_complete());
        if idle {
            self.stats.idle_cycles += 1;
        }
        if self.sleeps && self.spec.is_none() && dev.commands_accepted() == commands {
            let refresh_due = self
                .refresh
                .as_ref()
                .map_or(Cycle::MAX, rdram::refresh::RefreshTimer::next_due);
            let write_valid = sbu.next_write_valid_at(now).unwrap_or(Cycle::MAX);
            self.sleep = Some(Sleep {
                until: self
                    .wake
                    .min(refresh_due)
                    .min(write_valid)
                    .min(self.next_fault_edge(now, dev.faults())),
                epoch: sbu.readiness_epoch(),
                idle,
            });
        }
        Ok(())
    }

    /// The first cycle after `now` at which the fault timeline changes what
    /// a tick does: the next injected stall, whose cycles are stepped one
    /// by one, or the next busy-window edge of an in-flight slot's bank,
    /// where a hold starts or stops extending the bank's conflict streak.
    fn next_fault_edge(&self, now: Cycle, faults: &FaultInjector) -> Cycle {
        if faults.is_empty() {
            return Cycle::MAX;
        }
        let stall = faults
            .next_stall(now.saturating_add(1))
            .unwrap_or(Cycle::MAX);
        self.slots
            .iter()
            .filter_map(|s| faults.next_busy_edge(s.loc.bank, now))
            .fold(stall, Cycle::min)
    }

    /// Perform a due refresh when its target bank is free of in-flight
    /// accesses, speculation, and injected busy windows; otherwise defer to
    /// a later cycle.
    fn service_refresh(&mut self, now: Cycle, dev: &mut MemorySystem) -> Result<(), SmcError> {
        let Some(timer) = &self.refresh else {
            return Ok(());
        };
        if !timer.due(now) {
            return Ok(());
        }
        let (bank, _) = timer.peek();
        let bank_busy = self.youngest_row(bank).is_some()
            || self.spec.is_some_and(|sp| sp.bank == bank)
            || dev.faults().bank_busy(bank, now);
        if bank_busy {
            return Ok(());
        }
        if let Some(timer) = &mut self.refresh {
            timer.refresh_now(dev, now)?;
        }
        Ok(())
    }

    /// Derive ROW requirements from live bank state for every slot whose
    /// bank has no older in-flight access.
    fn resolve_stages(&mut self, dev: &MemorySystem) {
        self.bank_seen.fill(false);
        for k in 0..self.slots.len() {
            let older_in_bank =
                std::mem::replace(&mut self.bank_seen[self.slots[k].loc.bank], true);
            if self.slots[k].stage != Stage::Unresolved || older_in_bank {
                continue;
            }
            let plan = dev.plan(self.slots[k].loc);
            self.slots[k].stage = if plan.needs_precharge {
                Stage::Precharge
            } else if plan.needs_activate {
                Stage::Activate
            } else {
                Stage::Col
            };
        }
    }

    /// The earliest launch at or after `now` of `cmd`, slot `k`'s pending
    /// command. The slot keeps its last answer and reuses it while the
    /// memory system has accepted no command since and `now` has not
    /// passed it: `earliest(cmd, t)` is fixed until a command issues, under
    /// busy windows and chaos alike, so an answer `at` probed at `t0` is
    /// the answer for every `t` in `t0..=at`. An MSU that never sleeps
    /// never reuses one, so it stays the reference that holds reuse to
    /// fresh probes.
    fn launch_at(&mut self, k: usize, cmd: &Command, now: Cycle, dev: &MemorySystem) -> Cycle {
        let commands = dev.commands_accepted();
        if let Some(last) = self.slots[k].launch {
            if self.sleeps && last.commands == commands && now <= last.at {
                return last.at;
            }
        }
        let at = dev.earliest(cmd, now);
        self.slots[k].launch = Some(Launch { at, commands });
        at
    }

    /// Issue the oldest ready COL command on each channel's COL bus, if
    /// any. With one channel this issues at most one command; with N the
    /// MSU reorders across channels, overlapping data transfers.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "k indexes the window and stays below slots.len()"
    )]
    fn issue_col(
        &mut self,
        now: Cycle,
        dev: &mut MemorySystem,
        mem: &mut MemoryImage,
        sbu: &mut Sbu,
    ) -> Result<bool, SmcError> {
        self.bus_used.fill(false);
        self.fifo_seen.clear();
        self.fifo_seen.resize(sbu.len(), false);
        let mut any = false;
        let mut k = 0;
        while k < self.slots.len() {
            // A FIFO delivers elements in order: this slot's data transfer
            // must wait for earlier accesses of the same FIFO.
            let fifo = self.slots[k].fifo;
            let older_in_fifo = std::mem::replace(&mut self.fifo_seen[fifo], true);
            if self.slots[k].stage != Stage::Col || older_in_fifo {
                k += 1;
                continue;
            }
            // Each channel's COL bus carries one packet per cycle.
            let ch = self.slots[k].ch;
            if self.bus_used[ch] {
                k += 1;
                continue;
            }
            // `earliest` does not read the auto-precharge flag, so the plain
            // COL answers for both; the flag is decided only on issue.
            let col = self.col_command(k);
            let at = self.launch_at(k, &col, now, dev);
            if at > now {
                self.wake = self.wake.min(at);
                self.note_hold(dev.faults(), col.bank(), now);
                k += 1;
                continue;
            }
            let cmd = if self.should_auto_precharge(k, sbu) {
                col.with_auto_precharge()
            } else {
                col
            };
            let before = self.slots.len();
            self.execute_col(k, cmd, now, dev, mem, sbu)?;
            self.bus_used[ch] = true;
            any = true;
            if self.slots.len() == before {
                // An injected NACK kept the slot in place; move past it.
                k += 1;
            } else {
                // The slot completed and left the window, so it no longer
                // holds back the FIFO's next access.
                self.fifo_seen[fifo] = false;
            }
        }
        Ok(any)
    }

    /// Issue the oldest ready PRER/ACT command on each channel's ROW bus,
    /// if any.
    fn issue_row(&mut self, now: Cycle, dev: &mut MemorySystem) -> Result<bool, SmcError> {
        self.bus_used.fill(false);
        self.bank_seen.fill(false);
        let mut any = false;
        for k in 0..self.slots.len() {
            let bank = self.slots[k].loc.bank;
            let older_in_bank = std::mem::replace(&mut self.bank_seen[bank], true);
            if !matches!(self.slots[k].stage, Stage::Precharge | Stage::Activate) || older_in_bank {
                continue;
            }
            // Each channel's ROW bus carries one packet per cycle.
            let ch = self.slots[k].ch;
            if self.bus_used[ch] {
                continue;
            }
            let cmd = match self.slots[k].stage {
                Stage::Precharge => Command::precharge(bank),
                Stage::Activate => Command::activate(bank, self.slots[k].loc.row),
                Stage::Unresolved | Stage::Col => unreachable!("filtered above"),
            };
            let at = self.launch_at(k, &cmd, now, dev);
            if at > now {
                self.wake = self.wake.min(at);
                self.note_hold(dev.faults(), bank, now);
                continue;
            }
            dev.issue_at(&cmd, now)?;
            self.note_issued(cmd, now);
            self.slots[k].stage = match self.slots[k].stage {
                Stage::Precharge => Stage::Activate,
                Stage::Activate => Stage::Col,
                Stage::Unresolved | Stage::Col => unreachable!("filtered above"),
            };
            self.bus_used[ch] = true;
            any = true;
        }
        Ok(any)
    }

    /// A ready command could not issue this cycle. When the hold is an
    /// injected busy window (rather than ordinary timing pressure), extend
    /// the bank's conflict streak; enough consecutive conflicts demote the
    /// bank to closed-page service. The streak grows once per held cycle,
    /// so such a tick wakes on the next cycle rather than sleeping.
    fn note_hold(&mut self, faults: &FaultInjector, bank: usize, now: Cycle) {
        if faults.bank_busy(bank, now) {
            self.wake = self.wake.min(now.saturating_add(1));
            self.note_fault_conflict(bank);
        }
    }

    /// Record one injected conflict (busy-window hold or DATA NACK) on
    /// `bank`; a long enough streak demotes the bank to closed-page.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a per-bank conflict streak and a degraded-bank count, both bounded by the run length"
    )]
    fn note_fault_conflict(&mut self, bank: usize) {
        if self.cfg.degrade_after == 0 {
            return;
        }
        let b = &mut self.banks[bank];
        b.fault_streak += 1;
        if b.fault_streak >= self.cfg.degrade_after
            && self.cfg.page_policy == PagePolicy::OpenPage
            && !b.degraded
        {
            b.degraded = true;
            self.stats.degraded_banks += 1;
        }
    }

    /// A command issued cleanly: the bank's conflict streak resets.
    fn note_issued(&mut self, cmd: Command, now: Cycle) {
        if self.cfg.degrade_after > 0 {
            self.banks[cmd.bank()].fault_streak = 0;
        }
        self.last_issued = Some((cmd, now));
    }

    /// The page policy in force for `bank`: the configured policy unless
    /// fault degradation has demoted the bank to closed-page.
    fn page_policy_for(&self, bank: usize) -> PagePolicy {
        if self.banks[bank].degraded {
            PagePolicy::ClosedPage
        } else {
            self.cfg.page_policy
        }
    }

    /// The row of `bank`'s youngest in-flight slot, or `None` when the bank
    /// has none in flight. Debug builds check it against a scan of the
    /// window.
    fn youngest_row(&self, bank: usize) -> Option<u64> {
        let b = &self.banks[bank];
        let row = (b.in_flight > 0).then_some(b.youngest_row);
        debug_assert_eq!(
            (b.in_flight, row),
            (
                self.slots.iter().filter(|s| s.loc.bank == bank).count(),
                self.slots
                    .iter()
                    .rev()
                    .find(|s| s.loc.bank == bank)
                    .map(|s| s.loc.row)
            ),
            "bank {bank}'s in-flight state"
        );
        row
    }

    /// Bank/row state a new access will see once everything already in
    /// flight has executed.
    fn effective_plan(&self, loc: Location, dev: &MemorySystem) -> rdram::AccessPlan {
        if let Some(row) = self.youngest_row(loc.bank) {
            let same_row = row == loc.row;
            return match self.page_policy_for(loc.bank) {
                PagePolicy::OpenPage => rdram::AccessPlan {
                    needs_precharge: !same_row,
                    needs_activate: !same_row,
                },
                PagePolicy::ClosedPage => rdram::AccessPlan {
                    // Same (bank, row) continues the burst; anything else
                    // finds the bank precharged by the burst-closing AP.
                    needs_precharge: false,
                    needs_activate: !same_row,
                },
            };
        }
        dev.plan(loc)
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the window is a small per-channel slot count times the channel count; the FIFO-switch count is bounded by the run length, and the per-channel and per-bank slot counts by the window"
    )]
    fn admit(&mut self, now: Cycle, dev: &MemorySystem, sbu: &mut Sbu) {
        // The in-flight window is per channel: each channel pipelines up
        // to `cfg.window` accesses of its own.
        while self.slots.len() < self.cfg.window * self.map.channels() {
            self.update_candidates(now, dev, sbu);
            let view = ServiceView {
                current: self.current,
                fifos: &self.candidates,
            };
            let Some(chosen) = self.policy.select(&view).map(|i| self.candidates[i]) else {
                return;
            };
            debug_assert!(chosen.ready, "policy selected an unready FIFO");

            let (i, Some(loc), Some(plan)) = (chosen.index, chosen.next_loc, chosen.plan) else {
                // A policy bug selected an exhausted FIFO; skip the admit
                // rather than panic — the watchdog reports the stall if it
                // persists.
                return;
            };
            let ch = self.map.channel_of_bank(loc.bank);
            let in_channel = self.in_channel[ch];
            if in_channel >= self.cfg.window {
                return;
            }
            // Open-page systems expose row work: the paper's round-robin
            // MSU does not overlap a page crossing's precharge/activate
            // with other accesses, so such an access waits for an empty
            // pipeline — on its own channel; other channels keep streaming.
            // Speculative activation (when enabled) opens the page ahead of
            // time, making the access a hit here.
            if self.page_policy_for(loc.bank) == PagePolicy::OpenPage
                && !plan.is_page_hit()
                && in_channel > 0
            {
                return;
            }

            if self.current != Some(i) {
                if self.current.is_some() {
                    self.stats.fifo_switches += 1;
                }
                self.current = Some(i);
            }
            let is_write = sbu.fifo(i).descriptor().kind == StreamKind::Write;
            let Some((access, write_values)) = sbu.admit(i, now) else {
                return;
            };
            self.slots.push(Slot {
                fifo: i,
                access,
                loc,
                ch,
                stage: Stage::Unresolved,
                write_values,
                is_write,
                retries: 0,
                launch: None,
            });
            self.in_channel[ch] += 1;
            let b = &mut self.banks[loc.bank];
            b.in_flight += 1;
            b.youngest_row = loc.row;
            self.maybe_schedule_spec(dev, sbu);
        }
    }

    /// Bring the scheduler's view of every FIFO up to date at `now`. A
    /// FIFO's next location is decoded again only after it admits a
    /// packet, and only a ready FIFO gets a plan: no policy reads the plan
    /// of a FIFO that is not ready.
    ///
    /// Service is eager: at matched CPU/memory bandwidth the MSU has no
    /// slack to wait for fuller bursts — any idle cycle is lost bandwidth
    /// (waiting-for-burst hysteresis was measured and loses more than it
    /// saves on turnarounds).
    fn update_candidates(&mut self, now: Cycle, dev: &MemorySystem, sbu: &Sbu) {
        if self.candidates.len() != sbu.len() {
            self.candidates = (0..sbu.len())
                .map(|index| FifoCandidate {
                    index,
                    ready: false,
                    next_loc: None,
                    plan: None,
                })
                .collect();
            self.decoded_at = vec![None; sbu.len()];
        }
        for (i, f) in sbu.iter().enumerate() {
            let decode = || f.next_packet().map(|p| self.map.decode(p.packet_addr));
            let elem = f.state().mem_next_elem;
            if self.decoded_at[i] != Some(elem) {
                self.decoded_at[i] = Some(elem);
                self.candidates[i].next_loc = decode();
            }
            debug_assert_eq!(
                self.candidates[i].next_loc,
                decode(),
                "FIFO {i}'s decoded location"
            );
            let ready = f.ready_for_access(now);
            let plan = self.candidates[i]
                .next_loc
                .filter(|_| ready)
                .map(|l| self.effective_plan(l, dev));
            let c = &mut self.candidates[i];
            c.ready = ready;
            c.plan = plan;
        }
    }

    /// Slot `k`'s COL command, without auto-precharge.
    fn col_command(&self, k: usize) -> Command {
        let s = &self.slots[k];
        if s.is_write {
            Command::write(s.loc.bank, s.loc.col)
        } else {
            Command::read(s.loc.bank, s.loc.col)
        }
    }

    /// Closed-page policy: precharge at the end of each *burst* — the run of
    /// accesses within one contiguous chunk of the interleaving (a cacheline
    /// under CLI, a page under PI). The same FIFO's next packet staying in
    /// the chunk keeps the page open; anything else closes it.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "k is a window index below slots.len(), and the chunk is a cacheline or a page, never zero"
    )]
    fn should_auto_precharge(&self, k: usize, sbu: &Sbu) -> bool {
        if self.page_policy_for(self.slots[k].loc.bank) != PagePolicy::ClosedPage {
            return false;
        }
        let s = &self.slots[k];
        let chunk = self.map.contiguous_bytes_per_bank();
        // The following access of this FIFO is either already in flight or
        // the FIFO's next unadmitted packet.
        let next_addr = self
            .slots
            .iter()
            .skip(k + 1)
            .find(|o| o.fifo == s.fifo)
            .map(|o| o.access.packet_addr)
            .or_else(|| sbu.fifo(s.fifo).next_packet().map(|p| p.packet_addr));
        match next_addr {
            Some(a) => a / chunk != s.access.packet_addr / chunk,
            None => true,
        }
    }

    /// Issue slot `k`'s COL command `cmd` and move its data: a write's
    /// claimed values land in memory, a read's fill its FIFO. An injected
    /// DATA NACK keeps the slot, to retry once its ROW needs are re-derived.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "MsuStats counters, one increment per cycle or event, bounded by the run length; a retired slot was counted in its channel and its bank at admission, and a packet holds at most PACKET_ELEMS elements"
    )]
    fn execute_col(
        &mut self,
        k: usize,
        cmd: Command,
        now: Cycle,
        dev: &mut MemorySystem,
        mem: &mut MemoryImage,
        sbu: &mut Sbu,
    ) -> Result<(), SmcError> {
        let outcome = dev.issue_at(&cmd, now)?;
        self.note_issued(cmd, now);
        let Some(data) = outcome.data else {
            return Err(SmcError::Internal(
                "COL command completed without a data interval",
            ));
        };
        let bank = self.slots[k].loc.bank;
        if dev
            .faults()
            .nack_data(bank, data.end, self.slots[k].retries)
        {
            self.stats.data_nacks += 1;
            self.slots[k].retries += 1;
            let retries = self.slots[k].retries;
            if retries > dev.faults().nack_retry_limit() {
                return Err(SmcError::RetryExhausted {
                    bank,
                    addr: self.slots[k].access.packet_addr,
                    attempts: retries,
                });
            }
            // The bus cycle is spent but no data moved. The COL may have
            // auto-precharged the page, so the retry re-derives its ROW
            // needs from live bank state.
            self.slots[k].stage = Stage::Unresolved;
            self.note_fault_conflict(bank);
            return Ok(());
        }
        let slot = self.slots.remove(k);
        self.in_channel[slot.ch] -= 1;
        self.banks[slot.loc.bank].in_flight -= 1;
        let desc = sbu.fifo(slot.fifo).descriptor();
        if slot.is_write {
            for (v, e) in slot.write_values.iter().zip(slot.access.element_range()) {
                // Masked write: only the stream's own bytes of the 16-byte
                // packet are modified.
                mem.write_u64(desc.element_addr(e), *v);
            }
            self.stats.packets_written += 1;
        } else {
            let mut values = [0; PACKET_ELEMS];
            let mut len = 0;
            for (v, e) in values.iter_mut().zip(slot.access.element_range()) {
                *v = mem.read_u64(desc.element_addr(e));
                len += 1;
            }
            sbu.fifo_mut(slot.fifo)
                .fulfill_read(&values[..len], data.end);
            self.stats.packets_read += 1;
        }
        self.stats.last_data_cycle = self.stats.last_data_cycle.max(data.end);
        Ok(())
    }

    /// If the current FIFO will cross into a new page within the lookahead
    /// window, queue a speculative precharge/activate for that page.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "element indices stay within one packet past the stream length"
    )]
    fn maybe_schedule_spec(&mut self, dev: &MemorySystem, sbu: &Sbu) {
        if !self.cfg.speculative_activate || self.spec.is_some() {
            return;
        }
        let Some(cur) = self.current else { return };
        let Some(anchor) = self.slots.iter().rev().find(|s| s.fifo == cur) else {
            return;
        };
        let desc = sbu.fifo(cur).descriptor();
        let mut elem = anchor.access.first_elem + anchor.access.elems;
        for _ in 0..self.cfg.spec_window {
            if elem >= desc.length {
                return;
            }
            let access = desc.packet_at(elem);
            let loc = self.map.decode(access.packet_addr);
            if (loc.bank, loc.row) != (anchor.loc.bank, anchor.loc.row) {
                if Some((loc.bank, loc.row)) == self.last_spec
                    || loc.bank == anchor.loc.bank
                    || self.youngest_row(loc.bank).is_some()
                {
                    return;
                }
                if !dev.plan(loc).is_page_hit() {
                    self.spec = Some(SpecTarget {
                        bank: loc.bank,
                        row: loc.row,
                    });
                    self.last_spec = Some((loc.bank, loc.row));
                }
                return;
            }
            elem += access.elems;
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "MsuStats counters, one increment per cycle or event, bounded by the run length"
    )]
    fn try_issue_spec(&mut self, now: Cycle, dev: &mut MemorySystem) -> Result<(), SmcError> {
        let Some(t) = self.spec else { return Ok(()) };
        // Never touch a bank with in-flight accesses.
        if self.youngest_row(t.bank).is_some() {
            self.spec = None;
            return Ok(());
        }
        let cmd = match dev.open_row(t.bank) {
            Some(row) if row == t.row => {
                self.spec = None;
                return Ok(());
            }
            Some(_) => Command::precharge(t.bank),
            None => Command::activate(t.bank, t.row),
        };
        if dev.earliest(&cmd, now) <= now {
            dev.issue_at(&cmd, now)?;
            self.note_issued(cmd, now);
            self.stats.speculative_activates += 1;
            if matches!(cmd, Command::Row(rdram::RowOp::Activate { .. })) {
                self.spec = None;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamDescriptor;
    use memsys::{Placement, Topology};
    use rdram::{AddressMap, DeviceConfig, Interleave};

    fn pi_map() -> SystemMap {
        SystemMap::single(AddressMap::new(Interleave::Page, &DeviceConfig::default()).unwrap())
    }

    fn cli_map() -> SystemMap {
        SystemMap::single(
            AddressMap::new(
                Interleave::Cacheline { line_bytes: 32 },
                &DeviceConfig::default(),
            )
            .unwrap(),
        )
    }

    /// Run the MSU until the SBU reports completion, driving an infinitely
    /// fast CPU that immediately drains reads and pre-produces writes.
    fn run_to_completion(
        streams: Vec<StreamDescriptor>,
        map: SystemMap,
        cfg: MsuConfig,
    ) -> (MsuStats, MemoryImage, Cycle) {
        let (stats, mem, end, _) = run_on_system(
            streams,
            map,
            cfg,
            MemorySystem::single(DeviceConfig::default()),
        );
        (stats, mem, end)
    }

    /// [`run_to_completion`] against a caller-built memory system.
    fn run_on_system(
        streams: Vec<StreamDescriptor>,
        map: SystemMap,
        cfg: MsuConfig,
        mut dev: MemorySystem,
    ) -> (MsuStats, MemoryImage, Cycle, MemorySystem) {
        let mut mem = MemoryImage::new();
        for s in &streams {
            if s.kind == StreamKind::Read {
                for e in 0..s.length {
                    mem.write_u64(s.element_addr(e), 1000 + e);
                }
            }
        }
        let mut sbu = Sbu::new(streams, cfg.fifo_depth);
        let mut msu = Msu::new(map, cfg);
        let mut now = 0;
        while !(sbu.all_complete() && msu.quiescent()) {
            for i in 0..sbu.len() {
                let kind = sbu.fifo(i).descriptor().kind;
                let length = sbu.fifo(i).descriptor().length;
                match kind {
                    StreamKind::Read => {
                        while sbu.fifo(i).state().cpu_elems < length
                            && sbu.cpu_pop(i, now).is_some()
                        {}
                    }
                    StreamKind::Write => {
                        while sbu.fifo(i).state().cpu_elems < length {
                            let v = 2000 + sbu.fifo(i).state().cpu_elems;
                            if !sbu.cpu_push(i, v, now) {
                                break;
                            }
                        }
                    }
                }
            }
            msu.tick(now, &mut dev, &mut mem, &mut sbu)
                .expect("fault-free run");
            now += 1;
            assert!(now < 2_000_000, "MSU failed to make progress");
        }
        (*msu.stats(), mem, now, dev)
    }

    #[test]
    fn single_read_stream_completes_pi() {
        let streams = vec![StreamDescriptor::read("x", 0, 1, 256)];
        let (stats, _, _) = run_to_completion(streams, pi_map(), MsuConfig::default());
        assert_eq!(stats.packets_read, 128);
        assert_eq!(stats.packets_written, 0);
    }

    #[test]
    fn single_write_stream_lands_in_memory() {
        let streams = vec![StreamDescriptor::write("z", 0, 1, 64)];
        let (stats, mem, _) = run_to_completion(streams, pi_map(), MsuConfig::default());
        assert_eq!(stats.packets_written, 32);
        for e in 0..64 {
            assert_eq!(mem.read_u64(e * 8), 2000 + e, "element {e}");
        }
    }

    #[test]
    fn closed_page_cli_single_stream_approaches_peak() {
        // The windowed pipeline overlaps each line's ACT with the previous
        // line's COLs: a 1024-element read = 512 packets = 2048 busy cycles
        // and should finish within ~5% of that.
        let cfg = MsuConfig {
            page_policy: PagePolicy::ClosedPage,
            ..MsuConfig::default()
        };
        let streams = vec![StreamDescriptor::read("x", 0, 1, 1024)];
        let (stats, _, _) = run_to_completion(streams, cli_map(), cfg);
        assert_eq!(stats.packets_read, 512);
        assert!(
            (stats.last_data_cycle as f64) < 2048.0 * 1.05,
            "CLI pipeline too slow: {} cycles for 2048 busy",
            stats.last_data_cycle
        );
    }

    #[test]
    fn closed_page_policy_completes_cli() {
        let cfg = MsuConfig {
            page_policy: PagePolicy::ClosedPage,
            ..MsuConfig::default()
        };
        let streams = vec![
            StreamDescriptor::read("x", 0, 1, 128),
            StreamDescriptor::write("z", 64 * 1024, 1, 128),
        ];
        let (stats, mem, _) = run_to_completion(streams, cli_map(), cfg);
        assert_eq!(stats.packets_read, 64);
        assert_eq!(stats.packets_written, 64);
        for e in 0..128 {
            assert_eq!(mem.read_u64(64 * 1024 + e * 8), 2000 + e);
        }
    }

    #[test]
    fn sustained_single_stream_read_bandwidth_is_near_peak_pi() {
        let streams = vec![StreamDescriptor::read("x", 0, 1, 1024)];
        let (stats, _, end) = run_to_completion(streams, pi_map(), MsuConfig::default());
        let busy = 512 * 4;
        assert!(
            (stats.last_data_cycle as f64) < busy as f64 * 1.10,
            "took {} cycles for {} busy cycles of data",
            stats.last_data_cycle,
            busy
        );
        assert!(end >= busy);
    }

    #[test]
    fn speculative_activation_reduces_page_crossing_cost() {
        let streams = |n: &str| vec![StreamDescriptor::read(n, 0, 1, 2048)];
        let base = MsuConfig::default();
        let spec = MsuConfig {
            speculative_activate: true,
            ..base
        };
        let (s0, _, _) = run_to_completion(streams("a"), pi_map(), base);
        let (s1, _, _) = run_to_completion(streams("b"), pi_map(), spec);
        assert!(s1.speculative_activates > 0, "speculation never fired");
        assert!(
            s1.last_data_cycle < s0.last_data_cycle,
            "speculation did not help: {} vs {}",
            s1.last_data_cycle,
            s0.last_data_cycle
        );
    }

    #[test]
    fn non_unit_stride_reads_one_element_per_packet() {
        let streams = vec![StreamDescriptor::read("x", 0, 4, 64)];
        let (stats, _, _) = run_to_completion(streams, pi_map(), MsuConfig::default());
        assert_eq!(stats.packets_read, 64);
    }

    #[test]
    fn bank_aware_policy_completes() {
        let cfg = MsuConfig {
            policy: Policy::BankAware,
            ..MsuConfig::default()
        };
        let streams = vec![
            StreamDescriptor::read("x", 0, 1, 256),
            // Same bank as x (aligned bases) to force conflicts.
            StreamDescriptor::read("y", 8 * 1024, 1, 256),
            StreamDescriptor::write("z", 16 * 1024, 1, 256),
        ];
        let (stats, _, _) = run_to_completion(streams, pi_map(), cfg);
        assert_eq!(stats.packets_read, 256);
        assert_eq!(stats.packets_written, 128);
    }

    #[test]
    #[should_panic(expected = "at least one in-flight slot")]
    fn zero_window_rejected() {
        let cfg = MsuConfig {
            window: 0,
            ..MsuConfig::default()
        };
        let _ = Msu::new(pi_map(), cfg);
    }

    #[test]
    fn degenerate_single_slot_window_is_slow_but_correct() {
        // window = 1 removes all pipelining; the run must still complete
        // with correct data, just more slowly.
        let streams = |n: &str| {
            vec![
                StreamDescriptor::read(format!("{n}x"), 0, 1, 128),
                StreamDescriptor::write(format!("{n}z"), 64 * 1024, 1, 128),
            ]
        };
        let fast = MsuConfig {
            page_policy: PagePolicy::ClosedPage,
            ..MsuConfig::default()
        };
        let slow = MsuConfig { window: 1, ..fast };
        let (sf, mem_f, _) = run_to_completion(streams("a"), cli_map(), fast);
        let (ss, mem_s, _) = run_to_completion(streams("b"), cli_map(), slow);
        assert_eq!(sf.packets_written, ss.packets_written);
        assert!(
            ss.last_data_cycle > sf.last_data_cycle,
            "{} !> {}",
            ss.last_data_cycle,
            sf.last_data_cycle
        );
        for e in 0..128 {
            let addr = 64 * 1024 + e * 8;
            assert_eq!(mem_s.read_u64(addr), mem_f.read_u64(addr), "element {e}");
        }
    }

    fn two_channel_system(placement: Placement, penalty: Vec<Cycle>) -> (SystemMap, MemorySystem) {
        let cfg = DeviceConfig::default();
        let topo = Topology {
            channels: 2,
            devices_per_channel: 1,
            remote_penalty: penalty,
        };
        let map = SystemMap::new(
            AddressMap::new(Interleave::Page, &cfg).unwrap(),
            &cfg,
            &topo,
            placement,
        )
        .unwrap();
        (map, MemorySystem::new(cfg, topo))
    }

    #[test]
    fn two_channel_interleaved_run_spreads_traffic_and_completes() {
        let (map, sys) = two_channel_system(Placement::default(), Vec::new());
        let streams = vec![
            StreamDescriptor::read("x", 0, 1, 1024),
            StreamDescriptor::write("z", 256 * 1024, 1, 1024),
        ];
        let (stats, mem, _, sys) = run_on_system(streams, map, MsuConfig::default(), sys);
        assert_eq!(stats.packets_read, 512);
        assert_eq!(stats.packets_written, 512);
        for e in 0..1024 {
            assert_eq!(mem.read_u64(256 * 1024 + e * 8), 2000 + e, "element {e}");
        }
        // 4 KiB blocks rotate across channels: both carried DATA traffic.
        assert!(sys.channel_stats(0).data_busy_cycles > 0);
        assert!(sys.channel_stats(1).data_busy_cycles > 0);
    }

    #[test]
    fn two_channels_beat_one_on_parallel_streams() {
        let streams = |tag: &str| {
            vec![
                StreamDescriptor::read(format!("{tag}x"), 0, 1, 1024),
                StreamDescriptor::read(format!("{tag}y"), 256 * 1024, 1, 1024),
            ]
        };
        let (one, _, _) = run_to_completion(streams("a"), pi_map(), MsuConfig::default());
        let (map, sys) = two_channel_system(Placement::default(), Vec::new());
        let (two, _, _, _) = run_on_system(streams("b"), map, MsuConfig::default(), sys);
        assert_eq!(one.packets_read, two.packets_read);
        assert!(
            two.last_data_cycle < one.last_data_cycle,
            "two channels not faster: {} !< {}",
            two.last_data_cycle,
            one.last_data_cycle
        );
    }

    #[test]
    fn remote_row_penalty_costs_bandwidth_on_numa_placement() {
        // All traffic homed on the penalized channel 1 (NUMA) vs spread
        // across both (interleaved): the remote ROW latency shows up as a
        // longer run.
        let streams = |tag: &str| vec![StreamDescriptor::read(format!("{tag}x"), 0, 1, 2048)];
        let (map, sys) = two_channel_system(Placement::Numa { home: 1 }, vec![0, 64]);
        let (numa, _, _, _) = run_on_system(streams("a"), map, MsuConfig::default(), sys);
        let (map, sys) = two_channel_system(Placement::default(), vec![0, 64]);
        let (ilv, _, _, _) = run_on_system(streams("b"), map, MsuConfig::default(), sys);
        assert_eq!(numa.packets_read, ilv.packets_read);
        assert!(
            numa.last_data_cycle > ilv.last_data_cycle,
            "remote homing not slower: {} !> {}",
            numa.last_data_cycle,
            ilv.last_data_cycle
        );
    }

    #[test]
    fn refresh_interleaves_with_streaming() {
        let mut dev = MemorySystem::single(rdram::DeviceConfig::default());
        let mut mem = MemoryImage::new();
        for e in 0..1024u64 {
            mem.write_u64(e * 8, e);
        }
        let mut sbu = Sbu::new(vec![StreamDescriptor::read("x", 0, 1, 1024)], 64);
        let mut msu = Msu::new(pi_map(), MsuConfig::default());
        // An artificially hot refresh timer: fires every ~390 cycles.
        let tiny = rdram::DeviceConfig {
            rows_per_bank: 8192,
            ..rdram::DeviceConfig::default()
        };
        msu.set_refresh(rdram::refresh::RefreshTimer::new(&tiny));
        let mut now = 0;
        while !(sbu.all_complete() && msu.quiescent()) {
            for _ in 0..4 {
                if sbu.fifo(0).state().cpu_elems >= 1024 || sbu.cpu_pop(0, now).is_none() {
                    break;
                }
            }
            msu.tick(now, &mut dev, &mut mem, &mut sbu)
                .expect("fault-free run");
            now += 1;
            assert!(now < 1_000_000, "refresh starved the stream");
        }
        assert!(msu.refreshes_issued() > 3, "timer never fired");
    }
}
