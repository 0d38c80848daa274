//! The multi-channel memory system: command routing and aggregation.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::cell::Cell;
use std::collections::BTreeSet;

use faults::FaultInjector;
use rdram::{
    AccessPlan, ColOp, Command, CommandPort, CommandRecord, Cycle, DeviceConfig, DeviceStats,
    Location, Outcome, ProtocolError, Rdram, RowOp, Timing,
};
use serde::{Deserialize, Serialize};

use crate::Topology;

/// Per-channel chaos accounting: DATA-delivery cycles lost to degraded
/// mode, commands deferred by outages, and recovery timestamps.
///
/// Every field is exact — the system-wide totals reported by
/// [`MemorySystem::chaos_stats_total`] are the field-wise sum of the
/// per-channel entries, and each observed outage window contributes its
/// injected length to `mttr_cycles` exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelFaultStats {
    /// Commands whose DATA delivery paid a degraded-mode penalty.
    pub degraded_commands: u64,
    /// Commands whose delivery was deferred past an outage window.
    pub deferred_commands: u64,
    /// Total cycles of outage deferral those commands paid.
    pub deferred_cycles: u64,
    /// Extra delivery cycles charged by channel-brownout multipliers.
    pub brownout_penalty_cycles: u64,
    /// Extra delivery cycles charged by failed-device multipliers.
    pub devfail_penalty_cycles: u64,
    /// Outage windows observed (each window counts once, at its first
    /// deferred command).
    pub outages_observed: u64,
    /// Summed repair time across observed outages: recovery cycle minus
    /// window start, i.e. exactly the injected window length per outage.
    pub mttr_cycles: u64,
    /// Cycle the most recently observed outage ended, if any.
    pub last_recovery_at: Option<Cycle>,
}

impl ChannelFaultStats {
    /// Field-wise accumulate `other` into `self`; the recovery timestamp
    /// keeps the latest of the two.
    pub fn absorb(&mut self, other: &ChannelFaultStats) {
        self.degraded_commands = self
            .degraded_commands
            .saturating_add(other.degraded_commands);
        self.deferred_commands = self
            .deferred_commands
            .saturating_add(other.deferred_commands);
        self.deferred_cycles = self.deferred_cycles.saturating_add(other.deferred_cycles);
        self.brownout_penalty_cycles = self
            .brownout_penalty_cycles
            .saturating_add(other.brownout_penalty_cycles);
        self.devfail_penalty_cycles = self
            .devfail_penalty_cycles
            .saturating_add(other.devfail_penalty_cycles);
        self.outages_observed = self.outages_observed.saturating_add(other.outages_observed);
        self.mttr_cycles = self.mttr_cycles.saturating_add(other.mttr_cycles);
        self.last_recovery_at = match (self.last_recovery_at, other.last_recovery_at) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Total DATA-delivery cycles this channel lost to chaos: deferral
    /// plus both degraded-mode penalties.
    pub fn lost_cycles(&self) -> u64 {
        self.deferred_cycles
            .saturating_add(self.brownout_penalty_cycles)
            .saturating_add(self.devfail_penalty_cycles)
    }

    /// Whether any chaos effect was observed at all.
    pub fn is_clean(&self) -> bool {
        *self == ChannelFaultStats::default()
    }
}

/// How a command's delivery is shaped by the active chaos plan.
struct ChaosDelivery {
    /// Cycle the command actually reaches the device.
    arrival: Cycle,
    /// Degraded-mode penalty folded into the delivery (0 when healthy).
    extra: Cycle,
    /// Brownout multiplier that produced `extra` (1 = none).
    channel_mult: u64,
    /// Failed-device multiplier that produced `extra` (1 = none).
    device_mult: u64,
    /// The outage window `[from, end)` the delivery was deferred past.
    outage: Option<(Cycle, Cycle)>,
}

/// The brownout and failed-device multipliers (1 = healthy) that a
/// delivery launched at `launch` on channel `ch` pays, for a command whose
/// DATA moves through channel-local `device`; ROW commands (`None`) pay
/// neither.
fn cost_mults(
    chaos: &FaultInjector,
    ch: usize,
    device: Option<usize>,
    launch: Cycle,
) -> (u64, u64) {
    device.map_or((1, 1), |d| {
        (
            chaos.channel_cost_mult(ch, launch),
            chaos.device_cost_mult(ch, d, launch),
        )
    })
}

/// Re-target `cmd` at channel-local bank `bank`, preserving everything
/// else.
fn rebase(cmd: &Command, bank: usize) -> Command {
    match cmd {
        Command::Row(RowOp::Activate { row, .. }) => Command::activate(bank, *row),
        Command::Row(RowOp::Precharge { .. }) => Command::precharge(bank),
        Command::Col { op, auto_precharge } => {
            let base = match op {
                ColOp::Read { col, .. } => Command::read(bank, *col),
                ColOp::Write { col, .. } => Command::write(bank, *col),
            };
            if *auto_precharge {
                base.with_auto_precharge()
            } else {
                base
            }
        }
    }
}

/// Split a globally-banked command stream into per-channel, channel-local
/// streams.
///
/// Index `i` of the result holds channel `i`'s commands, re-targeted at
/// channel-local banks and keeping their recorded cycles, in the order
/// they appear in `records`. Records whose bank lies beyond the last
/// channel are dropped (the device would have rejected them). Replaying
/// each returned stream against the *per-channel* device configuration is
/// the correct way to audit a multi-channel trace: every channel has its
/// own bus triple, so a flattened replay would merge independent buses.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "banks_per_channel is checked non-zero before the loop"
)]
pub fn split_by_channel(
    records: &[CommandRecord],
    channels: usize,
    banks_per_channel: usize,
) -> Vec<Vec<CommandRecord>> {
    let mut out = vec![Vec::new(); channels.max(1)];
    if banks_per_channel == 0 {
        return out;
    }
    for rec in records {
        let ch = rec.cmd.bank() / banks_per_channel;
        if ch >= out.len() {
            continue;
        }
        let local = rec.cmd.bank() % banks_per_channel;
        out[ch].push(CommandRecord {
            cycle: rec.cycle,
            cmd: rebase(&rec.cmd, local),
        });
    }
    out
}

/// N independent Direct Rambus channels behind one command interface.
///
/// Commands carry *global* bank indices (see [`SystemMap`](crate::SystemMap));
/// the system routes each to the owning channel's [`Rdram`] after
/// re-targeting it at the channel-local bank. A single-channel system is a
/// transparent passthrough — identical cycle-for-cycle and byte-for-byte
/// to driving the device directly.
///
/// NUMA-style asymmetry: a channel with a nonzero
/// [`Topology::remote_penalty`] entry receives ROW commands late — a
/// command launched at `t` reaches the device at `t + penalty`, so the
/// activate/precharge work it starts is delayed by the penalty while
/// COL/DATA scheduling is untouched. [`earliest`](MemorySystem::earliest)
/// folds the shift in, so the usual earliest-then-issue discipline stays
/// valid.
///
/// The system also owns the run's device-fault timeline (see
/// [`set_faults`](MemorySystem::set_faults)) and, on request, the record of
/// every command it accepts (see
/// [`record_commands`](MemorySystem::record_commands)).
#[derive(Debug)]
pub struct MemorySystem {
    topo: Topology,
    channels: Vec<Rdram>,
    banks_per_channel: usize,
    /// DATA-bus cycles charged to each global bank, the measured currency
    /// the tenancy regulator's per-bank budgets are denominated in.
    bank_data_cycles: Vec<Cycle>,
    /// Every accepted command with its global bank and delivery cycle,
    /// while recording.
    record: Option<Vec<CommandRecord>>,
    /// Device-level faults, speaking global banks: busy and storm windows
    /// folded into [`earliest`](MemorySystem::earliest) and
    /// [`issue_at`](MemorySystem::issue_at), and the stalls, NACKs and
    /// retry limits the controllers read through
    /// [`faults`](MemorySystem::faults). Inert unless attached.
    faults: FaultInjector,
    /// Channel-scoped chaos injector, if a plan with channel clauses is
    /// attached. `None` keeps the delivery path byte-identical to the
    /// chaos-free build.
    chaos: Option<FaultInjector>,
    /// Per-channel chaos accounting (always `channels()` entries).
    chaos_stats: Vec<ChannelFaultStats>,
    /// Outage window starts already counted per channel, so each window
    /// contributes to MTTR exactly once.
    seen_outages: Vec<BTreeSet<Cycle>>,
    /// Commands accepted by [`issue_at`](MemorySystem::issue_at).
    commands: u64,
    /// The latest delivery cycle of any accepted command.
    last_delivery: Cycle,
    /// Device acceptance probes [`earliest`](MemorySystem::earliest) has
    /// made: host work, not a simulated result.
    search_steps: Cell<u64>,
}

impl MemorySystem {
    /// Build `topo.channels` channels, each a device shaped like `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid or disagrees with `cfg.devices`
    /// (the per-channel device count lives in both, and they must match),
    /// or if `cfg` itself is invalid. System construction happens once at
    /// simulation setup, where an invalid configuration is unrecoverable.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the global bank count: channels times banks per channel, both small validated geometry"
    )]
    pub fn new(cfg: DeviceConfig, topo: Topology) -> Self {
        let validity = topo.validate();
        assert!(validity.is_ok(), "invalid topology: {validity:?}");
        assert!(
            cfg.devices == topo.devices_per_channel,
            "cfg.devices ({}) must equal topo.devices_per_channel ({})",
            cfg.devices,
            topo.devices_per_channel
        );
        let banks_per_channel = cfg.total_banks();
        let channels: Vec<Rdram> = (0..topo.channels)
            .map(|_| Rdram::new(cfg.clone()))
            .collect();
        MemorySystem {
            bank_data_cycles: vec![0; banks_per_channel * topo.channels],
            chaos_stats: vec![ChannelFaultStats::default(); topo.channels],
            seen_outages: vec![BTreeSet::new(); topo.channels],
            channels,
            banks_per_channel,
            topo,
            record: None,
            faults: FaultInjector::inert(),
            chaos: None,
            commands: 0,
            last_delivery: 0,
            search_steps: Cell::new(0),
        }
    }

    /// The paper's memory system: one channel of one device.
    pub fn single(cfg: DeviceConfig) -> Self {
        let topo = Topology {
            devices_per_channel: cfg.devices,
            ..Topology::single()
        };
        MemorySystem::new(cfg, topo)
    }

    /// The topology this system was built with.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Banks across the whole system.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the global bank count: channels times banks per channel, both small validated geometry"
    )]
    pub fn total_banks(&self) -> usize {
        self.banks_per_channel * self.channels.len()
    }

    /// Banks on each channel.
    pub fn banks_per_channel(&self) -> usize {
        self.banks_per_channel
    }

    /// Which channel owns global bank `bank`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "banks_per_channel is at least 1: every channel is a validated device with a bank"
    )]
    pub fn channel_of_bank(&self, bank: usize) -> usize {
        bank / self.banks_per_channel
    }

    /// Channel `ch`'s device, for per-channel inspection (stats, buses).
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    pub fn device(&self, ch: usize) -> &Rdram {
        &self.channels[ch]
    }

    /// The timing parameters every channel runs under.
    pub fn timing(&self) -> &Timing {
        self.channels[0].timing()
    }

    /// The per-channel device configuration.
    pub fn config(&self) -> &DeviceConfig {
        self.channels[0].config()
    }

    /// Statistics summed over every channel, field by field. With one
    /// channel this equals the device's own counters exactly; with N it
    /// is the whole system's traffic (the per-channel breakdown stays
    /// available through [`channel_stats`](MemorySystem::channel_stats)).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums per-channel event counters, each bounded by the run length"
    )]
    pub fn stats(&self) -> DeviceStats {
        let mut acc = DeviceStats::default();
        for dev in &self.channels {
            let s = dev.stats();
            acc.activates += s.activates;
            acc.precharges += s.precharges;
            acc.auto_precharges += s.auto_precharges;
            acc.read_hits += s.read_hits;
            acc.write_hits += s.write_hits;
            acc.read_packets += s.read_packets;
            acc.write_packets += s.write_packets;
            acc.turnarounds += s.turnarounds;
            acc.data_busy_cycles += s.data_busy_cycles;
        }
        acc
    }

    /// Commands [`issue_at`](MemorySystem::issue_at) has accepted so far,
    /// on every channel. Each accepted command adds one to exactly one of
    /// the activate, precharge, read-packet and write-packet counters of
    /// [`stats`](MemorySystem::stats), so this is their sum, kept without
    /// visiting the channels.
    pub fn commands_accepted(&self) -> u64 {
        self.commands
    }

    /// The latest cycle at which a command accepted so far reaches its
    /// device (0 before the first). A chaos outage can put it far past the
    /// issue cycle: the controllers' watchdogs count it as progress still
    /// to come.
    pub fn last_delivery(&self) -> Cycle {
        self.last_delivery
    }

    /// Device acceptance probes [`earliest`](MemorySystem::earliest) has
    /// made so far: one per query without a chaos plan, one per launch
    /// segment visited with one. This counts host work, not a simulated
    /// result.
    pub fn search_steps(&self) -> u64 {
        self.search_steps.get()
    }

    /// Channel `ch`'s own statistics.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    pub fn channel_stats(&self, ch: usize) -> &DeviceStats {
        self.channels[ch].stats()
    }

    /// DATA-bus cycles charged to each global bank so far — the measured
    /// per-channel/per-bank traffic the tenancy regulator budgets against.
    pub fn bank_data_cycles(&self) -> &[Cycle] {
        &self.bank_data_cycles
    }

    /// Record every command accepted from now on, with its global bank
    /// and the cycle it was delivered at (its launch cycle unless a chaos
    /// plan deferred or stretched it), until
    /// [`take_commands`](MemorySystem::take_commands) collects them.
    pub fn record_commands(&mut self) {
        self.record.get_or_insert_with(Vec::new);
    }

    /// The commands recorded so far, in issue order (not necessarily sorted
    /// by cycle: refresh maintenance may commit commands at future cycles),
    /// leaving the record empty. Empty when not recording.
    pub fn take_commands(&mut self) -> Vec<CommandRecord> {
        self.record.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Attach the run's device-fault timeline, speaking global banks. Its
    /// busy and storm windows delay [`earliest`](MemorySystem::earliest)
    /// and bound what [`issue_at`](MemorySystem::issue_at) accepts; the
    /// controllers read its stalls, NACKs and retry limits through
    /// [`faults`](MemorySystem::faults), so every side sees one timeline.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// The device-fault timeline (inert unless one was attached).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Attach a channel-scoped chaos injector. Brownout and failed-device
    /// clauses multiply the delivery cost of DATA traffic on the afflicted
    /// channel; outage clauses defer every delivery inside their window to
    /// the window's end, with recovery timestamped in
    /// [`chaos_stats`](MemorySystem::chaos_stats). Injectors without any
    /// channel clause are ignored, so ordinary fault plans never touch the
    /// delivery path.
    pub fn set_chaos(&mut self, chaos: FaultInjector) {
        if chaos.has_channel_faults() {
            self.chaos = Some(chaos);
        }
    }

    /// Whether a chaos injector is active.
    pub fn has_chaos(&self) -> bool {
        self.chaos.is_some()
    }

    /// Per-channel chaos accounting, indexed by channel (all zeros when no
    /// chaos is attached or none of its windows were hit).
    pub fn chaos_stats(&self) -> &[ChannelFaultStats] {
        &self.chaos_stats
    }

    /// System-wide chaos accounting: the exact field-wise sum of every
    /// channel's [`ChannelFaultStats`].
    pub fn chaos_stats_total(&self) -> ChannelFaultStats {
        let mut acc = ChannelFaultStats::default();
        for st in &self.chaos_stats {
            acc.absorb(st);
        }
        acc
    }

    /// How the active chaos plan shapes a delivery launched at `launch`:
    /// degraded-mode multipliers stretch DATA traffic (modelled as extra
    /// delivery delay, `(mult - 1) * tPACK` per COL command), and outage
    /// windows defer the (already penalized) delivery to their end.
    fn chaos_delivery(&self, ch: usize, cmd: &Command, launch: Cycle) -> ChaosDelivery {
        let shift = self.shift_of(ch, cmd);
        let base = launch.saturating_add(shift);
        let Some(chaos) = &self.chaos else {
            return ChaosDelivery {
                arrival: base,
                extra: 0,
                channel_mult: 1,
                device_mult: 1,
                outage: None,
            };
        };
        let (channel_mult, device_mult) = cost_mults(chaos, ch, self.col_device(cmd), launch);
        let extra = self.degraded_extra(channel_mult, device_mult);
        let penalized = base.saturating_add(extra);
        let outage = chaos.outage_window(ch, penalized);
        ChaosDelivery {
            arrival: outage.map_or(penalized, |(_, end)| end),
            extra,
            channel_mult,
            device_mult,
            outage,
        }
    }

    /// The channel-local device whose failure degrades `cmd`'s delivery:
    /// a COL command's, whose DATA it moves. `None` for ROW commands,
    /// which degraded mode never stretches.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "both divisors are clamped to at least 1"
    )]
    fn col_device(&self, cmd: &Command) -> Option<usize> {
        match cmd {
            Command::Col { .. } => {
                let local = cmd.bank() % self.banks_per_channel.max(1);
                Some(local / self.config().banks.max(1))
            }
            Command::Row(RowOp::Activate { .. }) | Command::Row(RowOp::Precharge { .. }) => None,
        }
    }

    /// The extra delivery delay of degraded mode: `(mult - 1) * tPACK` for
    /// the worse of the brownout and failed-device multipliers.
    fn degraded_extra(&self, channel_mult: u64, device_mult: u64) -> Cycle {
        channel_mult
            .max(device_mult)
            .saturating_sub(1)
            .saturating_mul(self.timing().t_pack)
    }

    /// Extra delivery delay `cmd` pays to reach channel `ch`: the
    /// topology's ROW penalty for row commands, zero for column traffic.
    fn shift_of(&self, ch: usize, cmd: &Command) -> Cycle {
        match cmd {
            Command::Row(RowOp::Activate { .. }) | Command::Row(RowOp::Precharge { .. }) => {
                self.topo.penalty_of(ch)
            }
            Command::Col { .. } => 0,
        }
    }

    /// What ROW work is needed before a COL access can reach `loc`
    /// (global bank).
    ///
    /// # Panics
    ///
    /// Panics if the location's bank is out of range.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "banks_per_channel is at least 1: every channel is a validated device with a bank"
    )]
    pub fn plan(&self, loc: Location) -> AccessPlan {
        let ch = self.channel_of_bank(loc.bank);
        self.channels[ch].plan(Location {
            bank: loc.bank % self.banks_per_channel,
            row: loc.row,
            col: loc.col,
        })
    }

    /// The row currently open in global bank `bank`, if any.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "banks_per_channel is at least 1: every channel is a validated device with a bank"
    )]
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        let ch = self.channel_of_bank(bank);
        self.channels
            .get(ch)
            .and_then(|dev| dev.open_row(bank % self.banks_per_channel))
    }

    /// Earliest cycle `>= now` at which `cmd` (global bank) may start,
    /// from the controller's point of view: the first launch at or after
    /// `now` whose delivery the channel accepts, exactly. Without a chaos
    /// plan the delivery is the launch, pushed back by the topology's ROW
    /// penalty. Until a command issues, the answer for any later `now` up
    /// to it is the same cycle, so a controller may sleep on it.
    ///
    /// A chaos plan splits launch time into segments at its edges: where a
    /// brownout on the channel starts or ends or the command's device
    /// fails (in launch time), and where an outage on the channel starts
    /// or ends (in penalized time: the launch plus the ROW penalty plus the
    /// degraded-mode delay). Within a segment every delivery either lands
    /// a constant `k` after its launch, or, inside an outage, at the
    /// outage's end `E`. The search visits the segments in order: a
    /// shifted one holds an acceptable launch if the first cycle the device
    /// accepts at or after `launch + k` lies within it, and a flattened
    /// one is acceptable from its first launch exactly when the device
    /// accepts at `E`. Each visit is one device probe (see
    /// [`search_steps`](MemorySystem::search_steps)), so the cost grows
    /// with the plan's clauses, never with an outage's length.
    ///
    /// [`Cycle::MAX`] means what [`FaultInjector::free_at`] says it means:
    /// busy windows that never let the bank go.
    pub fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle {
        let bank = cmd.bank();
        let ch = self.channel_of_bank(bank);
        let Some(dev) = self.channels.get(ch) else {
            return now;
        };
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "banks_per_channel is at least 1: every channel is a validated device with a bank"
        )]
        let local = rebase(cmd, bank % self.banks_per_channel);
        // The first delivery at or after `t` the channel accepts: the
        // device's own earliest start is `max(t, c)` for a fixed `c`, and
        // `free_at` is idempotent, so the answer is itself accepted.
        let accept_at = |t: Cycle| {
            self.search_steps
                .set(self.search_steps.get().saturating_add(1));
            self.faults.free_at(bank, dev.earliest(&local, t))
        };
        let shift = self.shift_of(ch, cmd);
        let Some(chaos) = &self.chaos else {
            // One segment: every delivery lands `shift` after its launch.
            return accept_at(now.saturating_add(shift)).saturating_sub(shift);
        };
        let device = self.col_device(cmd);
        let mut launch = now;
        loop {
            let (channel_mult, device_mult) = cost_mults(chaos, ch, device, launch);
            let k = shift.saturating_add(self.degraded_extra(channel_mult, device_mult));
            let penalized = launch.saturating_add(k);
            // The segment ends at the next edge, in launch time: an outage
            // edge lies after `penalized`, so it maps to a launch after
            // `launch`.
            let end = device
                .and_then(|d| chaos.next_cost_edge(ch, d, launch))
                .unwrap_or(Cycle::MAX)
                .min(
                    chaos
                        .next_outage_edge(ch, penalized)
                        .map_or(Cycle::MAX, |edge| edge.saturating_sub(k)),
                );
            match chaos.outage_window(ch, penalized) {
                Some((_, recovery)) => {
                    if accept_at(recovery) == recovery {
                        return launch;
                    }
                }
                None => {
                    let arrival = accept_at(penalized);
                    if arrival == Cycle::MAX {
                        return Cycle::MAX;
                    }
                    let first = arrival.saturating_sub(k);
                    if first < end {
                        return first;
                    }
                }
            }
            if end == Cycle::MAX {
                return Cycle::MAX;
            }
            launch = end;
        }
    }

    /// Issue `cmd` (global bank) with its packet launched at `start`.
    ///
    /// # Errors
    ///
    /// The owning channel's [`ProtocolError`] (bank indices in errors are
    /// channel-local; a delivery inside a busy window of the fault
    /// timeline is [`ProtocolError::TooEarly`]), or
    /// [`ProtocolError::NoSuchBank`] with the global bank when no channel
    /// owns it.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "banks_per_channel is at least 1: every channel is a validated device with a bank; the accepted-command count grows by one per command, bounded by the run length"
    )]
    pub fn issue_at(&mut self, cmd: &Command, start: Cycle) -> Result<Outcome, ProtocolError> {
        let bank = cmd.bank();
        let ch = self.channel_of_bank(bank);
        if ch >= self.channels.len() {
            return Err(ProtocolError::NoSuchBank {
                bank,
                banks: self.total_banks(),
            });
        }
        let local = rebase(cmd, bank % self.banks_per_channel);
        let delivery = self.chaos_delivery(ch, cmd, start);
        let arrival = delivery.arrival;
        if !self.faults.is_empty() && self.faults.free_at(bank, arrival) != arrival {
            return Err(ProtocolError::TooEarly {
                cmd: local,
                requested: arrival,
                earliest: self
                    .faults
                    .free_at(bank, self.channels[ch].earliest(&local, arrival)),
            });
        }
        let outcome = self.channels[ch].issue_at(&local, arrival)?;
        self.commands += 1;
        self.last_delivery = self.last_delivery.max(arrival);
        if self.chaos.is_some() {
            let penalized = start
                .saturating_add(self.shift_of(ch, cmd))
                .saturating_add(delivery.extra);
            let st = &mut self.chaos_stats[ch];
            if delivery.extra > 0 {
                st.degraded_commands = st.degraded_commands.saturating_add(1);
                if delivery.channel_mult >= delivery.device_mult {
                    st.brownout_penalty_cycles =
                        st.brownout_penalty_cycles.saturating_add(delivery.extra);
                } else {
                    st.devfail_penalty_cycles =
                        st.devfail_penalty_cycles.saturating_add(delivery.extra);
                }
            }
            if let Some((from, end)) = delivery.outage {
                st.deferred_commands = st.deferred_commands.saturating_add(1);
                st.deferred_cycles = st
                    .deferred_cycles
                    .saturating_add(arrival.saturating_sub(penalized));
                if self.seen_outages[ch].insert(from) {
                    let st = &mut self.chaos_stats[ch];
                    st.outages_observed = st.outages_observed.saturating_add(1);
                    st.mttr_cycles = st.mttr_cycles.saturating_add(end.saturating_sub(from));
                    st.last_recovery_at = Some(end);
                }
            }
        }
        if let Some(data) = outcome.data {
            self.bank_data_cycles[bank] = self.bank_data_cycles[bank].saturating_add(data.len());
        }
        if let Some(record) = &mut self.record {
            record.push(CommandRecord {
                cycle: arrival,
                cmd: *cmd,
            });
        }
        Ok(outcome)
    }
}

impl CommandPort for MemorySystem {
    fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle {
        MemorySystem::earliest(self, cmd, now)
    }

    fn issue_at(&mut self, cmd: &Command, start: Cycle) -> Result<Outcome, ProtocolError> {
        MemorySystem::issue_at(self, cmd, start)
    }

    fn open_row(&self, bank: usize) -> Option<u64> {
        MemorySystem::open_row(self, bank)
    }

    fn timing(&self) -> &Timing {
        MemorySystem::timing(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_channel() -> MemorySystem {
        MemorySystem::new(
            DeviceConfig::default(),
            Topology {
                channels: 2,
                ..Topology::single()
            },
        )
    }

    #[test]
    fn single_channel_matches_the_bare_device_cycle_for_cycle() {
        let cfg = DeviceConfig::default();
        let mut dev = Rdram::new(cfg.clone());
        let mut sys = MemorySystem::single(cfg);
        for cmd in [
            Command::activate(0, 0),
            Command::read(0, 0),
            Command::read(0, 16),
            Command::activate(3, 7),
            Command::write(3, 0),
            Command::precharge(0),
        ] {
            let td = dev.earliest(&cmd, 0);
            let ts = MemorySystem::earliest(&sys, &cmd, 0);
            assert_eq!(td, ts, "{cmd:?}");
            let od = dev.issue_at(&cmd, td).unwrap();
            let os = MemorySystem::issue_at(&mut sys, &cmd, ts).unwrap();
            assert_eq!(od, os, "{cmd:?}");
        }
        assert_eq!(sys.stats(), *dev.stats());
    }

    #[test]
    fn channels_have_independent_buses() {
        let mut sys = two_channel();
        // Banks 0 and 8 live on different channels: both ACTs start at 0
        // (one shared ROW bus would serialize them by tPACK).
        let a = Command::activate(0, 0);
        let b = Command::activate(8, 0);
        assert_eq!(MemorySystem::earliest(&sys, &a, 0), 0);
        MemorySystem::issue_at(&mut sys, &a, 0).unwrap();
        assert_eq!(MemorySystem::earliest(&sys, &b, 0), 0);
        MemorySystem::issue_at(&mut sys, &b, 0).unwrap();
        assert_eq!(sys.channel_stats(0).activates, 1);
        assert_eq!(sys.channel_stats(1).activates, 1);
        assert_eq!(sys.stats().activates, 2);
    }

    #[test]
    fn accepted_commands_sum_the_command_counters_of_every_channel() {
        let mut sys = two_channel();
        let issue = |sys: &mut MemorySystem, cmd: Command| {
            let at = MemorySystem::earliest(sys, &cmd, 0);
            MemorySystem::issue_at(sys, &cmd, at)
        };
        for cmd in [
            Command::activate(0, 0),
            Command::activate(8, 3),
            Command::read(0, 0),
            Command::write(8, 16).with_auto_precharge(),
            Command::precharge(0),
        ] {
            issue(&mut sys, cmd).unwrap();
        }
        // A rejected command (the bank is already closed) is not counted.
        assert!(issue(&mut sys, Command::precharge(0)).is_err());
        let s = sys.stats();
        assert_eq!(sys.commands_accepted(), 5);
        assert_eq!(
            sys.commands_accepted(),
            s.activates + s.precharges + s.read_packets + s.write_packets
        );
    }

    #[test]
    fn same_channel_banks_still_share_buses() {
        let mut sys = two_channel();
        let a = Command::activate(0, 0);
        let b = Command::activate(1, 0);
        MemorySystem::issue_at(&mut sys, &a, 0).unwrap();
        // tRR applies within the channel's single device.
        assert_eq!(MemorySystem::earliest(&sys, &b, 0), sys.timing().t_rr,);
    }

    #[test]
    fn row_penalty_delays_delivery_not_launch() {
        let mut sys = MemorySystem::new(
            DeviceConfig::default(),
            Topology {
                channels: 2,
                devices_per_channel: 1,
                remote_penalty: vec![0, 20],
            },
        );
        let act = Command::activate(8, 0); // channel 1, penalized
        let launch = MemorySystem::earliest(&sys, &act, 0);
        assert_eq!(launch, 0, "launch is immediate; delivery is late");
        MemorySystem::issue_at(&mut sys, &act, launch).unwrap();
        // The device saw the ACT at cycle 20: a COL is gated by tRCD
        // measured from delivery.
        let col = Command::read(8, 0);
        let t = MemorySystem::earliest(&sys, &col, 0);
        assert_eq!(t, 20 + sys.timing().t_rcd + 1);
    }

    #[test]
    fn local_channel_pays_no_penalty() {
        let sys = MemorySystem::new(
            DeviceConfig::default(),
            Topology {
                channels: 2,
                devices_per_channel: 1,
                remote_penalty: vec![0, 20],
            },
        );
        let act = Command::activate(0, 0);
        assert_eq!(MemorySystem::earliest(&sys, &act, 0), 0);
    }

    #[test]
    fn data_cycles_accumulate_per_global_bank() {
        let mut sys = two_channel();
        for (bank, row) in [(0usize, 0u64), (9, 0)] {
            let act = Command::activate(bank, row);
            let t = MemorySystem::earliest(&sys, &act, 0);
            MemorySystem::issue_at(&mut sys, &act, t).unwrap();
            let col = Command::read(bank, 0);
            let t = MemorySystem::earliest(&sys, &col, 0);
            MemorySystem::issue_at(&mut sys, &col, t).unwrap();
        }
        let per_bank = sys.bank_data_cycles();
        assert_eq!(per_bank.len(), 16);
        assert_eq!(per_bank[0], sys.timing().t_pack);
        assert_eq!(per_bank[9], sys.timing().t_pack);
        assert_eq!(per_bank[1], 0);
    }

    #[test]
    fn the_record_holds_global_banks_and_delivery_cycles() {
        let mut sys = two_channel();
        let act = Command::activate(8, 3);
        MemorySystem::issue_at(&mut sys, &act, 0).unwrap();
        assert!(sys.take_commands().is_empty(), "nothing recorded yet");
        sys.record_commands();
        MemorySystem::issue_at(&mut sys, &Command::precharge(8), 40).unwrap();
        // A rejected command is not recorded.
        assert!(MemorySystem::issue_at(&mut sys, &Command::precharge(8), 80).is_err());
        let recs = sys.take_commands();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].cmd, Command::precharge(8), "the global bank");
        assert_eq!(recs[0].cycle, 40);
        assert!(sys.take_commands().is_empty(), "taking empties the record");
    }

    #[test]
    fn refresh_timer_walks_the_global_bank_space() {
        use rdram::refresh::RefreshTimer;
        let mut sys = two_channel();
        // A timer over the flattened 16-bank geometry.
        let flat = DeviceConfig {
            devices: 2,
            ..DeviceConfig::default()
        };
        let mut timer = RefreshTimer::new(&flat);
        let mut now = timer.interval();
        for _ in 0..16 {
            let done = timer.refresh_now(&mut sys, now).unwrap();
            now = done.max(now) + timer.interval();
        }
        // Banks rotate fastest: 16 refreshes touch every bank once, 8 on
        // each channel.
        assert_eq!(sys.channel_stats(0).activates, 8);
        assert_eq!(sys.channel_stats(1).activates, 8);
    }

    #[test]
    fn busy_windows_speak_global_banks_and_bound_issue() {
        let mut sys = two_channel();
        // Global bank 8 (channel 1, local 0) is busy for [0, 100) of every
        // 1000 cycles.
        sys.set_faults(FaultInjector::new(
            &faults::FaultPlan::parse("busy:8:1000:100").unwrap(),
            7,
        ));
        let blocked = Command::activate(8, 0);
        assert_eq!(MemorySystem::earliest(&sys, &blocked, 0), 100);
        let clear = Command::activate(0, 0);
        assert_eq!(MemorySystem::earliest(&sys, &clear, 0), 0);
        // A delivery inside any window, the first or a later one, is
        // refused with the channel-local command and the window's end.
        for (requested, earliest) in [(50, 100), (1050, 1100)] {
            let err = MemorySystem::issue_at(&mut sys, &blocked, requested).unwrap_err();
            assert_eq!(
                err,
                ProtocolError::TooEarly {
                    cmd: Command::activate(0, 0),
                    requested,
                    earliest
                }
            );
        }
        assert_eq!(sys.commands_accepted(), 0);
        MemorySystem::issue_at(&mut sys, &blocked, 100).unwrap();
    }

    #[test]
    fn out_of_range_bank_is_rejected_globally() {
        let mut sys = two_channel();
        let err = MemorySystem::issue_at(&mut sys, &Command::activate(16, 0), 0).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::NoSuchBank {
                bank: 16,
                banks: 16
            }
        ));
    }

    #[test]
    fn split_by_channel_localizes_banks_and_keeps_order() {
        let records = [
            CommandRecord {
                cycle: 0,
                cmd: Command::activate(9, 3),
            },
            CommandRecord {
                cycle: 4,
                cmd: Command::activate(0, 1),
            },
            CommandRecord {
                cycle: 12,
                cmd: Command::read(9, 16).with_auto_precharge(),
            },
            CommandRecord {
                cycle: 20,
                cmd: Command::precharge(17), // beyond channel 1: dropped
            },
        ];
        let split = split_by_channel(&records, 2, 8);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].len(), 1);
        assert_eq!(split[0][0].cmd, Command::activate(0, 1));
        assert_eq!(split[1].len(), 2);
        assert_eq!(split[1][0].cycle, 0);
        assert_eq!(split[1][0].cmd, Command::activate(1, 3));
        assert_eq!(split[1][1].cmd, Command::read(1, 16).with_auto_precharge());
    }

    fn chaos_system(spec: &str) -> MemorySystem {
        let mut sys = two_channel();
        sys.set_chaos(FaultInjector::new(
            &faults::FaultPlan::parse(spec).unwrap(),
            7,
        ));
        sys
    }

    /// Read one word from `bank` starting no earlier than `at`,
    /// returning the launch cycle of the COL command.
    fn read_once(sys: &mut MemorySystem, bank: usize, row: u64, at: Cycle) -> Cycle {
        let act = Command::activate(bank, row);
        let t = MemorySystem::earliest(sys, &act, at);
        MemorySystem::issue_at(sys, &act, t).unwrap();
        let col = Command::read(bank, 0);
        let t = MemorySystem::earliest(sys, &col, at);
        MemorySystem::issue_at(sys, &col, t).unwrap();
        t
    }

    #[test]
    fn chaosless_injector_is_ignored() {
        let sys = chaos_system("busy:0:100:10");
        assert!(!sys.has_chaos());
        assert!(sys.chaos_stats_total().is_clean());
    }

    #[test]
    fn brownout_penalizes_only_its_channel_and_window() {
        // Channel 1 (banks 8..16) browns out over [0, 10_000) at 3x.
        let mut sys = chaos_system("brownout:1:0:10000:3");
        assert!(sys.has_chaos());
        read_once(&mut sys, 0, 0, 0);
        assert!(sys.chaos_stats()[0].is_clean(), "channel 0 is healthy");
        read_once(&mut sys, 8, 0, 0);
        let t_pack = sys.timing().t_pack;
        let st = sys.chaos_stats()[1];
        assert_eq!(st.degraded_commands, 1);
        assert_eq!(st.brownout_penalty_cycles, 2 * t_pack);
        assert_eq!(st.devfail_penalty_cycles, 0);
        assert_eq!(st.outages_observed, 0);
        // Totals are the exact per-channel sum.
        assert_eq!(sys.chaos_stats_total().lost_cycles(), 2 * t_pack);
        // After the window the channel is healthy again.
        read_once(&mut sys, 9, 0, 20_000);
        assert_eq!(sys.chaos_stats()[1].degraded_commands, 1);
    }

    #[test]
    fn outage_defers_delivery_and_timestamps_recovery() {
        // Channel 0 fully out over [0, 400).
        let mut sys = chaos_system("outage:0:0:400");
        let act = Command::activate(0, 0);
        // Launch is immediate; delivery waits for recovery.
        assert_eq!(MemorySystem::earliest(&sys, &act, 0), 0);
        MemorySystem::issue_at(&mut sys, &act, 0).unwrap();
        let st = sys.chaos_stats()[0];
        assert_eq!(st.deferred_commands, 1);
        assert_eq!(st.deferred_cycles, 400);
        assert_eq!(st.outages_observed, 1);
        assert_eq!(st.mttr_cycles, 400, "MTTR equals the injected window");
        assert_eq!(st.last_recovery_at, Some(400));
        // A COL against the opened row is gated by delivery at 400.
        let col = Command::read(0, 0);
        let t = MemorySystem::earliest(&sys, &col, 0);
        MemorySystem::issue_at(&mut sys, &col, t).unwrap();
        let st = sys.chaos_stats()[0];
        // Second deferred command reuses the already-counted window.
        assert!(st.deferred_commands >= 1);
        assert_eq!(st.outages_observed, 1, "each window counts once");
        // The other channel never saw it.
        assert!(sys.chaos_stats()[1].is_clean());
    }

    #[test]
    fn devfail_degrades_one_device_forever() {
        // Two devices per channel: banks 0..8 device 0, 8..16 device 1,
        // all on one channel.
        let cfg = DeviceConfig {
            devices: 2,
            ..DeviceConfig::default()
        };
        let topo = Topology {
            channels: 1,
            devices_per_channel: 2,
            remote_penalty: Vec::new(),
        };
        let mut sys = MemorySystem::new(cfg, topo);
        sys.set_chaos(FaultInjector::new(
            &faults::FaultPlan::parse("devfail:0:1:0:2").unwrap(),
            7,
        ));
        let t_pack = sys.timing().t_pack;
        read_once(&mut sys, 0, 0, 0);
        assert_eq!(sys.chaos_stats()[0].devfail_penalty_cycles, 0);
        read_once(&mut sys, 8, 0, 0);
        let st = sys.chaos_stats()[0];
        assert_eq!(st.devfail_penalty_cycles, t_pack);
        assert_eq!(st.brownout_penalty_cycles, 0);
        // Still degraded much later: the failure is permanent.
        read_once(&mut sys, 9, 0, 1 << 20);
        assert_eq!(sys.chaos_stats()[0].devfail_penalty_cycles, 2 * t_pack);
    }

    #[test]
    fn chaos_earliest_agrees_with_issue_at() {
        let mut sys = chaos_system("brownout:0:0:5000:4;outage:1:100:300");
        for (bank, at) in [(0usize, 0u64), (1, 50), (8, 0), (9, 150), (2, 6000)] {
            let act = Command::activate(bank, 0);
            let t = MemorySystem::earliest(&sys, &act, at);
            assert!(t >= at);
            MemorySystem::issue_at(&mut sys, &act, t)
                .unwrap_or_else(|e| panic!("bank {bank} at {at}: {e:?}"));
            let col = Command::read(bank, 0);
            let t = MemorySystem::earliest(&sys, &col, at);
            MemorySystem::issue_at(&mut sys, &col, t)
                .unwrap_or_else(|e| panic!("bank {bank} COL at {at}: {e:?}"));
        }
        // Both channels saw chaos; totals absorb both.
        let total = sys.chaos_stats_total();
        assert_eq!(
            total.lost_cycles(),
            sys.chaos_stats()[0].lost_cycles() + sys.chaos_stats()[1].lost_cycles()
        );
        assert_eq!(total.outages_observed, 1);
    }

    /// The first launch in `now..=last` whose shaped delivery the channel
    /// accepts, found by trying every launch in turn.
    fn first_acceptable_by_scan(
        sys: &MemorySystem,
        cmd: &Command,
        now: Cycle,
        last: Cycle,
    ) -> Option<Cycle> {
        let bank = cmd.bank();
        let ch = sys.channel_of_bank(bank);
        let local = rebase(cmd, bank % sys.banks_per_channel);
        (now..=last).find(|&launch| {
            let arrival = sys.chaos_delivery(ch, cmd, launch).arrival;
            sys.faults
                .free_at(bank, sys.channels[ch].earliest(&local, arrival))
                == arrival
        })
    }

    /// Two channels of two devices each, under a random chaos plan over the
    /// first few thousand cycles (outages that may overlap, brownouts,
    /// device failures), a random remote ROW penalty on channel 1 and, half
    /// the time, a busy window on one bank. Returns the system and a
    /// description of its plans.
    fn random_chaos_system(rng: &mut rand::rngs::StdRng) -> (MemorySystem, String) {
        use rand::Rng;
        let cfg = DeviceConfig {
            devices: 2,
            ..DeviceConfig::default()
        };
        let topo = Topology {
            channels: 2,
            devices_per_channel: 2,
            remote_penalty: vec![0, rng.gen_range(0..40)],
        };
        let mut sys = MemorySystem::new(cfg, topo);
        let clauses: Vec<String> = (0..rng.gen_range(1..7))
            .map(|_| {
                let ch = rng.gen_range(0..2usize);
                let from = rng.gen_range(0..2500u64);
                match rng.gen_range(0..3) {
                    0 => format!("outage:{ch}:{from}:{}", rng.gen_range(1..600u64)),
                    1 => format!(
                        "brownout:{ch}:{from}:{}:{}",
                        rng.gen_range(1..1600u64),
                        rng.gen_range(2..6u64)
                    ),
                    _ => format!(
                        "devfail:{ch}:{}:{from}:{}",
                        rng.gen_range(0..2usize),
                        rng.gen_range(2..5u64)
                    ),
                }
            })
            .collect();
        let chaos = clauses.join(";");
        sys.set_chaos(FaultInjector::new(
            &faults::FaultPlan::parse(&chaos).unwrap(),
            7,
        ));
        let mut spec = format!("{chaos}, penalty {:?}", sys.topo.remote_penalty);
        if rng.gen_bool(0.5) {
            let period = rng.gen_range(16..400u64);
            let busy = format!(
                "busy:{}:{period}:{}",
                rng.gen_range(0..32usize),
                rng.gen_range(1..period)
            );
            sys.set_faults(FaultInjector::new(
                &faults::FaultPlan::parse(&busy).unwrap(),
                7,
            ));
            spec = format!("{spec}, faults {busy}");
        }
        (sys, spec)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// Under chaos, `earliest` is exactly the first launch whose
        /// delivery the channel accepts: a scan of every launch from `now`
        /// finds none earlier, and the answer issues.
        #[test]
        fn chaos_earliest_is_the_first_acceptable_launch(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut sys, spec) = random_chaos_system(&mut rng);
            let mut now = 0;
            for _ in 0..60 {
                // Even banks only, so no ACT meets an open neighbour.
                let bank = 2 * rng.gen_range(0..16usize);
                let cmd = match sys.open_row(bank) {
                    None => Command::activate(bank, rng.gen_range(0..4u64)),
                    Some(_) if rng.gen_bool(0.3) => Command::precharge(bank),
                    Some(_) if rng.gen_bool(0.5) => Command::read(bank, 0),
                    Some(_) => Command::write(bank, 0),
                };
                let got = MemorySystem::earliest(&sys, &cmd, now);
                proptest::prop_assert_eq!(
                    first_acceptable_by_scan(&sys, &cmd, now, got),
                    Some(got),
                    "{:?} from {} under {}", cmd, now, spec
                );
                MemorySystem::issue_at(&mut sys, &cmd, got)
                    .unwrap_or_else(|e| panic!("{cmd:?} at {got} under {spec}: {e:?}"));
                now = now.max(got.saturating_sub(rng.gen_range(0..300)));
            }
        }
    }

    #[test]
    fn a_device_failure_mid_search_keeps_the_launch_it_makes_acceptable() {
        // Channel 0 of a two-device system: bank 9 lives on device 1, which
        // fails at 1519 and stretches each COL delivery by one tPACK.
        let spec = "brownout:1:642:1537:5;devfail:0:1:1519:2";
        let system = || {
            MemorySystem::new(
                DeviceConfig {
                    devices: 2,
                    ..DeviceConfig::default()
                },
                Topology {
                    channels: 2,
                    devices_per_channel: 2,
                    remote_penalty: Vec::new(),
                },
            )
        };
        let act = Command::activate(9, 0);
        let col = Command::read(9, 0);
        // How long after its ACT the bank accepts a COL.
        let mut probe = system();
        MemorySystem::issue_at(&mut probe, &act, 0).unwrap();
        let gap = MemorySystem::earliest(&probe, &col, 0);
        // Open the bank so that it accepts a COL from 1522 on.
        let mut sys = system();
        sys.set_chaos(FaultInjector::new(
            &faults::FaultPlan::parse(spec).unwrap(),
            7,
        ));
        MemorySystem::issue_at(&mut sys, &act, 1522 - gap).unwrap();
        assert_eq!(sys.timing().t_pack, 4);
        // Launched at 1510 the COL arrives at 1510, too early; launched at
        // 1519 it arrives at 1523, which the bank accepts.
        assert_eq!(MemorySystem::earliest(&sys, &col, 1510), 1519);
        MemorySystem::issue_at(&mut sys, &col, 1519).unwrap();
        assert_eq!(sys.chaos_stats()[0].devfail_penalty_cycles, 4);
    }

    #[test]
    fn the_search_costs_a_probe_per_segment_however_long_the_outage() {
        for len in [3_000u64, 20_000, 160_000] {
            let mut sys = chaos_system(&format!("outage:1:500:{len};brownout:1:100:1000:3"));
            let act = Command::activate(8, 0);
            MemorySystem::issue_at(&mut sys, &act, 600).unwrap();
            assert_eq!(
                sys.last_delivery(),
                500 + len,
                "deferred to the outage's end"
            );
            // The ROW bus is taken at the recovery cycle, so the next ACT
            // on channel 1 waits for the outage to end.
            let next = Command::activate(10, 0);
            let before = sys.search_steps();
            let t = MemorySystem::earliest(&sys, &next, 600);
            assert_eq!(t, 500 + len + sys.timing().t_rr);
            assert_eq!(sys.search_steps() - before, 2, "outage {len}");
        }
    }

    #[test]
    #[should_panic(expected = "must equal")]
    fn device_count_mismatch_is_rejected() {
        let _ = MemorySystem::new(
            DeviceConfig::default(),
            Topology {
                channels: 2,
                devices_per_channel: 4,
                remote_penalty: Vec::new(),
            },
        );
    }
}
