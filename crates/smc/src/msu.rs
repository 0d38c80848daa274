//! The Memory Scheduling Unit: dynamic access ordering.
//!
//! The MSU owns the memory side of every stream FIFO. It keeps a small
//! window of *in-flight* packet accesses (the Direct RDRAM supports four
//! outstanding requests), so the ROW work of one access overlaps the COL
//! and DATA packets of earlier ones — this is what lets a closed-page CLI
//! system stream at full bandwidth even though every cacheline needs its
//! own ACT.
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

use std::collections::{BTreeMap, BTreeSet};

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
    /// Maximum in-flight packet accesses. The RDRAM pipelines up to four
    /// outstanding transactions; a 32-byte cacheline transaction is two
    /// packet accesses, so the default window is eight.
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
    stage: Stage,
    /// Claimed values for a write access, in its first `access.elems`
    /// words; unused for reads.
    write_values: [u64; PACKET_ELEMS],
    is_write: bool,
    /// DATA NACKs absorbed by this access so far.
    retries: u32,
}

#[derive(Debug, Clone, Copy)]
struct SpecTarget {
    bank: usize,
    row: u64,
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
    /// Consecutive injected conflicts per bank (degradation trigger).
    /// Ordered so any iteration is deterministic.
    fault_streaks: BTreeMap<usize, u32>,
    /// Banks demoted to closed-page service for the rest of the run.
    degraded: BTreeSet<usize>,
    /// The most recent command issued, for livelock diagnostics.
    last_issued: Option<(Command, Cycle)>,
    /// In-flight slots per channel, indexed by channel.
    in_channel: Vec<usize>,
    /// Per-pass scratch, reset at the start of each pass over the slots:
    /// channels whose bus already carried a packet this cycle, banks and
    /// FIFOs with an older slot than the one under inspection, and the
    /// scheduler's view of every FIFO.
    bus_used: Vec<bool>,
    bank_seen: Vec<bool>,
    fifo_seen: Vec<bool>,
    candidates: Vec<FifoCandidate>,
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
            fifo_seen: Vec::new(),
            candidates: Vec::new(),
            map,
            cfg,
            current: None,
            slots: Vec::new(),
            spec: None,
            last_spec: None,
            refresh: None,
            stats: MsuStats::default(),
            fault_streaks: BTreeMap::new(),
            degraded: BTreeSet::new(),
            last_issued: None,
        }
    }

    /// The most recent command this MSU issued, with its cycle.
    pub fn last_issued(&self) -> Option<(Command, Cycle)> {
        self.last_issued
    }

    /// Banks currently demoted to closed-page service by fault degradation.
    pub fn degraded_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.degraded.iter().copied()
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
    /// memory) ahead of a new set of streams. Statistics and the refresh
    /// timer carry over — they describe the hardware, not one computation.
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
    }

    /// Advance one cycle: admit ready accesses into the window and issue at
    /// most one command packet per bus. Each memory channel has its own
    /// ROW and COL buses, so an N-channel system can launch up to N ROW
    /// and N COL packets in one cycle. The memory system's fault timeline
    /// ([`MemorySystem::faults`]) stalls the MSU, NACKs its DATA packets
    /// and holds its commands in busy windows.
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
        if dev.faults().stalled(now) {
            self.stats.injected_stall_cycles += 1;
            return Ok(());
        }
        self.service_refresh(now, dev)?;
        self.try_issue_spec(now, dev)?;
        self.admit(now, dev, sbu);
        self.resolve_stages(dev);
        // The ROW and COL command channels are independent buses (one pair
        // per memory channel): the MSU may launch one packet on each per
        // cycle.
        let col = self.issue_col(now, dev, mem, sbu)?;
        let row = self.issue_row(now, dev)?;
        if !(col || row || sbu.all_complete()) {
            self.stats.idle_cycles += 1;
        }
        Ok(())
    }

    /// Perform a due refresh when its target bank is free of in-flight
    /// accesses, speculation, and injected busy windows; otherwise defer to
    /// a later cycle.
    fn service_refresh(&mut self, now: Cycle, dev: &mut MemorySystem) -> Result<(), SmcError> {
        let Some(timer) = &mut self.refresh else {
            return Ok(());
        };
        if !timer.due(now) {
            return Ok(());
        }
        let (bank, _) = timer.peek();
        let bank_busy = self.slots.iter().any(|s| s.loc.bank == bank)
            || self.spec.is_some_and(|sp| sp.bank == bank)
            || dev.faults().bank_busy(bank, now);
        if bank_busy {
            return Ok(());
        }
        timer.refresh_now(dev, now)?;
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
            let ch = self.map.channel_of_bank(self.slots[k].loc.bank);
            if self.bus_used[ch] {
                k += 1;
                continue;
            }
            let cmd = self.command_for(k, sbu);
            if dev.earliest(&cmd, now) > now {
                self.note_hold(dev.faults(), cmd.bank(), now);
                k += 1;
                continue;
            }
            let before = self.slots.len();
            self.execute(k, cmd, now, dev, mem, sbu)?;
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
            let ch = self.map.channel_of_bank(bank);
            if self.bus_used[ch] {
                continue;
            }
            let cmd = match self.slots[k].stage {
                Stage::Precharge => Command::precharge(bank),
                Stage::Activate => Command::activate(bank, self.slots[k].loc.row),
                Stage::Unresolved | Stage::Col => unreachable!("filtered above"),
            };
            if dev.earliest(&cmd, now) > now {
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
    /// bank to closed-page service.
    fn note_hold(&mut self, faults: &FaultInjector, bank: usize, now: Cycle) {
        if faults.bank_busy(bank, now) {
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
        let streak = self.fault_streaks.entry(bank).or_insert(0);
        *streak += 1;
        if *streak >= self.cfg.degrade_after
            && self.cfg.page_policy == PagePolicy::OpenPage
            && self.degraded.insert(bank)
        {
            self.stats.degraded_banks += 1;
        }
    }

    /// A command issued cleanly: the bank's conflict streak resets.
    fn note_issued(&mut self, cmd: Command, now: Cycle) {
        if self.cfg.degrade_after > 0 {
            self.fault_streaks.insert(cmd.bank(), 0);
        }
        self.last_issued = Some((cmd, now));
    }

    /// The page policy in force for `bank`: the configured policy unless
    /// fault degradation has demoted the bank to closed-page.
    fn page_policy_for(&self, bank: usize) -> PagePolicy {
        if self.degraded.contains(&bank) {
            PagePolicy::ClosedPage
        } else {
            self.cfg.page_policy
        }
    }

    /// Bank/row state a new access will see once everything already in
    /// flight has executed.
    fn effective_plan(&self, loc: Location, dev: &MemorySystem) -> rdram::AccessPlan {
        if let Some(s) = self.slots.iter().rev().find(|s| s.loc.bank == loc.bank) {
            let same_row = s.loc.row == loc.row;
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
        reason = "the window is a small per-channel slot count times the channel count; the FIFO-switch and per-channel slot counts are bounded by the run length and the window"
    )]
    fn admit(&mut self, now: Cycle, dev: &MemorySystem, sbu: &mut Sbu) {
        // The in-flight window is per channel: each channel pipelines up
        // to `cfg.window` accesses of its own.
        while self.slots.len() < self.cfg.window * self.map.channels() {
            let mut candidates = std::mem::take(&mut self.candidates);
            candidates.clear();
            candidates.extend(sbu.iter().enumerate().map(|(i, f)| {
                let loc = f.next_packet().map(|p| self.map.decode(p.packet_addr));
                // Service eagerly: at matched CPU/memory bandwidth the
                // MSU has no slack to wait for fuller bursts — any idle
                // cycle is lost bandwidth (waiting-for-burst hysteresis
                // was measured and loses more than it saves on
                // turnarounds).
                FifoCandidate {
                    index: i,
                    ready: f.ready_for_access(now),
                    next_loc: loc,
                    plan: loc.map(|l| self.effective_plan(l, dev)),
                }
            }));
            let view = ServiceView {
                now,
                current: self.current,
                fifos: &candidates,
            };
            let chosen = self.policy.select(&view).map(|i| candidates[i]);
            self.candidates = candidates;
            let Some(chosen) = chosen else {
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
            let Some((access, write_values)) = sbu.fifo_mut(i).admit_next_packet(now) else {
                return;
            };
            self.slots.push(Slot {
                fifo: i,
                access,
                loc,
                stage: Stage::Unresolved,
                write_values,
                is_write,
                retries: 0,
            });
            self.in_channel[ch] += 1;
            self.maybe_schedule_spec(dev, sbu);
        }
    }

    fn command_for(&self, k: usize, sbu: &Sbu) -> Command {
        let s = &self.slots[k];
        match s.stage {
            Stage::Unresolved => unreachable!("stage resolved before command selection"),
            Stage::Precharge => Command::precharge(s.loc.bank),
            Stage::Activate => Command::activate(s.loc.bank, s.loc.row),
            Stage::Col => {
                let base = if s.is_write {
                    Command::write(s.loc.bank, s.loc.col)
                } else {
                    Command::read(s.loc.bank, s.loc.col)
                };
                if self.should_auto_precharge(k, sbu) {
                    base.with_auto_precharge()
                } else {
                    base
                }
            }
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

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "MsuStats counters, one increment per cycle or event, bounded by the run length; a retired slot was counted in its channel at admission, and a packet holds at most PACKET_ELEMS elements"
    )]
    fn execute(
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
        match self.slots[k].stage {
            Stage::Unresolved => unreachable!("stage resolved before issue"),
            Stage::Precharge => self.slots[k].stage = Stage::Activate,
            Stage::Activate => self.slots[k].stage = Stage::Col,
            Stage::Col => {
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
                    // The bus cycle is spent but no data moved. The COL may
                    // have auto-precharged the page, so the retry re-derives
                    // its ROW needs from live bank state.
                    self.slots[k].stage = Stage::Unresolved;
                    self.note_fault_conflict(bank);
                    return Ok(());
                }
                let slot = self.slots.remove(k);
                self.in_channel[self.map.channel_of_bank(slot.loc.bank)] -= 1;
                let desc = sbu.fifo(slot.fifo).descriptor();
                if slot.is_write {
                    for (v, e) in slot.write_values.iter().zip(slot.access.element_range()) {
                        // Masked write: only the stream's own bytes of the
                        // 16-byte packet are modified.
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
            }
        }
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
                    || self.slots.iter().any(|s| s.loc.bank == loc.bank)
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
        if self.slots.iter().any(|s| s.loc.bank == t.bank) {
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
                            && sbu.fifo_mut(i).cpu_pop(now).is_some()
                        {}
                    }
                    StreamKind::Write => {
                        while sbu.fifo(i).state().cpu_elems < length {
                            let v = 2000 + sbu.fifo(i).state().cpu_elems;
                            if !sbu.fifo_mut(i).cpu_push(v, now) {
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
                if sbu.fifo(0).state().cpu_elems >= 1024 || sbu.fifo_mut(0).cpu_pop(now).is_none() {
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
