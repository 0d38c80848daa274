//! The Direct RDRAM device timing model.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::{
    Bank, Bus, ColOp, Command, Cycle, DataBus, DeviceConfig, DeviceStats, Dir, Interval, Location,
    ProtocolError, RowOp, SenseAmps, Timing,
};

/// Result of issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Outcome {
    /// Cycles the command packet occupied its command bus.
    pub cmd_packet: Interval,
    /// For COL commands, the cycles the DATA packet occupies the data bus.
    /// Read data is *valid at* `data.start`; write data must be driven then.
    pub data: Option<Interval>,
}

/// What a controller must do before a column access can reach `loc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPlan {
    /// An open, different row must be precharged first.
    pub needs_precharge: bool,
    /// The target row must be activated first.
    pub needs_activate: bool,
}

impl AccessPlan {
    /// The access hits the open page (no ROW commands needed).
    pub fn is_page_hit(&self) -> bool {
        !self.needs_precharge && !self.needs_activate
    }
}

/// The two-phase command interface shared by a single device and any
/// aggregate that routes commands to devices (the `memsys` crate's
/// multi-channel `MemorySystem`): ask [`earliest`](CommandPort::earliest)
/// when a command could legally start, commit it with
/// [`issue_at`](CommandPort::issue_at), and query row state and timing.
///
/// Scheduler-side helpers that drive "a memory" without caring whether it
/// is one chip or N channels — the refresh timer, most prominently — are
/// generic over this trait.
pub trait CommandPort {
    /// Earliest cycle `>= now` at which `cmd` may start.
    fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle;

    /// Issue `cmd` with its packet starting at cycle `start`.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] when `start` is illegal or the bank state does
    /// not admit the command.
    fn issue_at(&mut self, cmd: &Command, start: Cycle) -> Result<Outcome, ProtocolError>;

    /// The row currently open in `bank`, if any.
    fn open_row(&self, bank: usize) -> Option<u64>;

    /// The timing parameters commands are scheduled under.
    fn timing(&self) -> &Timing;
}

impl CommandPort for Rdram {
    fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle {
        Rdram::earliest(self, cmd, now)
    }

    fn issue_at(&mut self, cmd: &Command, start: Cycle) -> Result<Outcome, ProtocolError> {
        Rdram::issue_at(self, cmd, start)
    }

    fn open_row(&self, bank: usize) -> Option<u64> {
        Rdram::open_row(self, bank)
    }

    fn timing(&self) -> &Timing {
        Rdram::timing(self)
    }
}

/// A single Direct RDRAM device.
///
/// The device exposes a two-phase protocol to its (single) memory
/// controller: [`earliest`](Rdram::earliest) computes the first cycle at
/// which a command could legally start, and [`issue_at`](Rdram::issue_at)
/// commits it, reserving bus time and updating bank state. Every timing rule
/// of the paper's Figure 2 is enforced at issue time, so a controller bug
/// surfaces as a [`ProtocolError`] rather than silently optimistic results.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct Rdram {
    cfg: DeviceConfig,
    banks: Vec<Bank>,
    row_bus: Bus,
    col_bus: Bus,
    data_bus: DataBus,
    /// Start of the most recent ACT per device (`tRR` is a per-device rule).
    last_act_dev: Vec<Option<Cycle>>,
    stats: DeviceStats,
}

impl Rdram {
    /// Create a device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DeviceConfig::validate`]; device
    /// construction happens once at simulation setup, where an invalid
    /// configuration is unrecoverable.
    pub fn new(cfg: DeviceConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "an invalid DeviceConfig is a programming error at system assembly time, caught before any simulation starts"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid device configuration: {e}");
        }
        Rdram {
            banks: vec![Bank::new(); cfg.total_banks()],
            row_bus: Bus::new(),
            col_bus: Bus::new(),
            data_bus: DataBus::new(),
            last_act_dev: vec![None; cfg.devices],
            stats: DeviceStats::default(),
            cfg,
        }
    }

    /// The device's timing parameters.
    pub fn timing(&self) -> &Timing {
        &self.cfg.timing
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Per-bank state (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        self.banks.get(bank).and_then(Bank::open_row)
    }

    /// The DATA bus (for turnaround and utilization inspection).
    pub fn data_bus(&self) -> &DataBus {
        &self.data_bus
    }

    /// What ROW work is needed before a COL access can reach `loc`.
    pub fn plan(&self, loc: Location) -> AccessPlan {
        match self.banks[loc.bank].amps() {
            SenseAmps::Open { row } if row == loc.row => AccessPlan {
                needs_precharge: false,
                needs_activate: false,
            },
            SenseAmps::Open { .. } => AccessPlan {
                needs_precharge: true,
                needs_activate: true,
            },
            SenseAmps::Closed => AccessPlan {
                needs_precharge: false,
                needs_activate: true,
            },
        }
    }

    /// Check that `bank` currently holds `row`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BankClosed`] if no row is open, or
    /// [`ProtocolError::WrongOpenRow`] if a different row is open.
    pub fn expect_open_row(&self, bank: usize, row: u64) -> Result<(), ProtocolError> {
        match self.banks[bank].amps() {
            SenseAmps::Open { row: r } if r == row => Ok(()),
            SenseAmps::Open { row: r } => Err(ProtocolError::WrongOpenRow { bank, open_row: r }),
            SenseAmps::Closed => Err(ProtocolError::BankClosed { bank }),
        }
    }

    /// Earliest cycle `>= now` at which `cmd` may start.
    ///
    /// This considers timing constraints only; *state* preconditions (the
    /// bank being open/closed as required) are validated by
    /// [`issue_at`](Rdram::issue_at). Calling `earliest` for a command whose
    /// state preconditions do not hold returns a cycle at which the command
    /// would still be rejected.
    pub fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle {
        let t = &self.cfg.timing;
        match cmd {
            Command::Row(RowOp::Activate { bank, .. }) => {
                let b = &self.banks[*bank];
                let trr = self.last_act_dev[self.device_of(*bank)]
                    .map_or(0, |a| a.saturating_add(t.t_rr));
                now.max(self.row_bus.next_free())
                    .max(b.earliest_activate(t))
                    .max(trr)
            }
            Command::Row(RowOp::Precharge { bank }) => now
                .max(self.row_bus.next_free())
                .max(self.banks[*bank].earliest_precharge(t)),
            Command::Col { op, .. } => {
                let b = &self.banks[op.bank()];
                let dir = op.dir();
                let data_delay = match dir {
                    Dir::Read => t.read_data_delay(),
                    Dir::Write => t.write_data_delay(),
                };
                // The COL packet must leave enough room for its DATA packet
                // to clear the data-bus constraints (occupancy + turnaround).
                let data_bound = self.data_bus.earliest(dir, t).saturating_sub(data_delay);
                now.max(self.col_bus.next_free())
                    .max(b.earliest_col())
                    .max(data_bound)
            }
        }
    }

    /// Issue `cmd` with its packet starting at cycle `start`.
    ///
    /// Returns the bus reservations made. `start` is typically the value
    /// returned by [`earliest`](Rdram::earliest); any later legal cycle is
    /// also accepted.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::NoSuchBank`] — bank index out of range.
    /// * [`ProtocolError::TooEarly`] — `start` violates a timing rule.
    /// * [`ProtocolError::BankAlreadyOpen`] — ACT to an open bank.
    /// * [`ProtocolError::AdjacentBankOpen`] — double-bank conflict.
    /// * [`ProtocolError::BankClosed`] — COL or PRER to a closed bank.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "event counters, one increment per issued packet, bounded by the run length"
    )]
    pub fn issue_at(&mut self, cmd: &Command, start: Cycle) -> Result<Outcome, ProtocolError> {
        let bank = cmd.bank();
        if bank >= self.banks.len() {
            return Err(ProtocolError::NoSuchBank {
                bank,
                banks: self.banks.len(),
            });
        }
        let earliest = self.earliest(cmd, 0);
        if start < earliest {
            return Err(ProtocolError::TooEarly {
                cmd: *cmd,
                requested: start,
                earliest,
            });
        }
        let t = self.cfg.timing;
        match cmd {
            Command::Row(RowOp::Activate { bank, row }) => {
                if let SenseAmps::Open { row: open } = self.banks[*bank].amps() {
                    return Err(ProtocolError::BankAlreadyOpen {
                        bank: *bank,
                        open_row: open,
                    });
                }
                if self.cfg.double_bank {
                    let neighbour = bank ^ 1;
                    if neighbour < self.banks.len()
                        && matches!(self.banks[neighbour].amps(), SenseAmps::Open { .. })
                    {
                        return Err(ProtocolError::AdjacentBankOpen {
                            bank: *bank,
                            neighbour,
                        });
                    }
                }
                let packet = Interval::with_len(start, t.t_pack);
                self.row_bus.reserve(packet);
                self.banks[*bank].record_activate(start, *row, &t);
                let dev = self.device_of(*bank);
                self.last_act_dev[dev] = Some(start);
                self.stats.activates += 1;
                Ok(Outcome {
                    cmd_packet: packet,
                    data: None,
                })
            }
            Command::Row(RowOp::Precharge { bank }) => {
                if self.banks[*bank].open_row().is_none() {
                    return Err(ProtocolError::BankClosed { bank: *bank });
                }
                let packet = Interval::with_len(start, t.t_pack);
                self.row_bus.reserve(packet);
                self.banks[*bank].record_precharge(start, &t);
                self.stats.precharges += 1;
                Ok(Outcome {
                    cmd_packet: packet,
                    data: None,
                })
            }
            Command::Col { op, auto_precharge } => {
                if self.banks[op.bank()].open_row().is_none() {
                    return Err(ProtocolError::BankClosed { bank: op.bank() });
                }
                Ok(self.issue_col(*op, *auto_precharge, start))
            }
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "event counters, one increment per issued packet, bounded by the run length; busy cycles sum non-overlapping DATA packets"
    )]
    fn issue_col(&mut self, op: ColOp, auto_precharge: bool, start: Cycle) -> Outcome {
        let t = self.cfg.timing;
        let bank = op.bank();
        let dir = op.dir();
        let packet = Interval::with_len(start, t.t_pack);
        let data_delay = match dir {
            Dir::Read => t.read_data_delay(),
            Dir::Write => t.write_data_delay(),
        };
        let data = Interval::with_len(start.saturating_add(data_delay), t.t_pack);

        self.col_bus.reserve(packet);
        self.data_bus.reserve(data, dir, &t);
        let is_hit = self.banks[bank].cols_since_act() > 0;
        self.banks[bank].record_col(packet);
        match dir {
            Dir::Read => {
                self.stats.read_packets += 1;
                if is_hit {
                    self.stats.read_hits += 1;
                }
            }
            Dir::Write => {
                self.stats.write_packets += 1;
                if is_hit {
                    self.stats.write_hits += 1;
                }
            }
        }
        self.stats.turnarounds = self.data_bus.turnarounds();
        self.stats.data_busy_cycles += data.len();

        if auto_precharge {
            // The PREX field of the COLX packet closes the page without
            // occupying the ROW bus; the precharge begins at the earliest
            // legal cycle after this access.
            let p = self.banks[bank].earliest_precharge(&t).max(start);
            self.banks[bank].record_precharge(p, &t);
            self.stats.auto_precharges += 1;
        }

        Outcome {
            cmd_packet: packet,
            data: Some(data),
        }
    }

    /// Which channel device a channel-wide bank index belongs to.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "cfg.banks is non-zero: DeviceConfig::validate checks it at construction"
    )]
    fn device_of(&self, bank: usize) -> usize {
        bank / self.cfg.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Rdram {
        Rdram::new(DeviceConfig::default())
    }

    fn issue(dev: &mut Rdram, cmd: Command, now: Cycle) -> (Cycle, Outcome) {
        let s = dev.earliest(&cmd, now);
        let o = dev.issue_at(&cmd, s).expect("legal command");
        (s, o)
    }

    #[test]
    fn page_miss_read_latency_is_trac_plus_trdly() {
        let mut dev = device();
        let (t_act, _) = issue(&mut dev, Command::activate(0, 0), 0);
        assert_eq!(t_act, 0);
        let (t_col, o) = issue(&mut dev, Command::read(0, 0), 0);
        // COL gated by tRCD + 1.
        assert_eq!(t_col, 12);
        // Data valid at ACT + tRAC + tRDLY = 22.
        assert_eq!(o.data.unwrap().start, 22);
    }

    #[test]
    fn page_hit_reads_stream_at_packet_rate() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let mut last_data_start = 0;
        for i in 0..4 {
            let (_, o) = issue(&mut dev, Command::read(0, i * 16), 0);
            let d = o.data.unwrap();
            if i > 0 {
                assert_eq!(d.start - last_data_start, 4, "packet {i} not back-to-back");
            }
            last_data_start = d.start;
        }
        assert_eq!(dev.stats().read_packets, 4);
        assert_eq!(dev.stats().read_hits, 3);
        assert_eq!(dev.stats().page_hit_rate(), Some(0.75));
    }

    #[test]
    fn trr_separates_acts_to_different_banks() {
        let mut dev = device();
        let (a0, _) = issue(&mut dev, Command::activate(0, 0), 0);
        let (a1, _) = issue(&mut dev, Command::activate(1, 0), 0);
        assert_eq!(a1 - a0, dev.timing().t_rr);
    }

    #[test]
    fn trc_separates_acts_to_same_bank() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        issue(&mut dev, Command::precharge(0), 0);
        let cmd = Command::activate(0, 1);
        let s = dev.earliest(&cmd, 0);
        assert_eq!(s, dev.timing().t_rc);
        dev.issue_at(&cmd, s).unwrap();
    }

    #[test]
    fn act_to_open_bank_is_rejected() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let cmd = Command::activate(0, 1);
        let s = dev.earliest(&cmd, 0);
        let err = dev.issue_at(&cmd, s).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::BankAlreadyOpen {
                bank: 0,
                open_row: 0
            }
        ));
    }

    #[test]
    fn col_to_closed_bank_is_rejected() {
        let mut dev = device();
        let cmd = Command::read(2, 0);
        let err = dev.issue_at(&cmd, dev.earliest(&cmd, 0)).unwrap_err();
        assert!(matches!(err, ProtocolError::BankClosed { bank: 2 }));
    }

    #[test]
    fn too_early_is_rejected_with_earliest() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let cmd = Command::read(0, 0);
        let err = dev.issue_at(&cmd, 5).unwrap_err();
        let ProtocolError::TooEarly {
            earliest,
            requested,
            ..
        } = err
        else {
            panic!("unexpected error {err:?}");
        };
        assert_eq!(requested, 5);
        assert_eq!(earliest, 12);
    }

    #[test]
    fn no_such_bank() {
        let mut dev = device();
        let err = dev.issue_at(&Command::activate(8, 0), 0).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::NoSuchBank { bank: 8, banks: 8 }
        ));
    }

    #[test]
    fn write_then_read_pays_turnaround() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let (_, wo) = issue(&mut dev, Command::write(0, 0), 0);
        let wdata = wo.data.unwrap();
        let (_, ro) = issue(&mut dev, Command::read(0, 16), 0);
        let rdata = ro.data.unwrap();
        assert_eq!(rdata.start - wdata.end, dev.timing().t_rw);
        assert_eq!(dev.stats().turnarounds, 1);
    }

    #[test]
    fn read_then_write_is_gapless() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let (_, ro) = issue(&mut dev, Command::read(0, 0), 0);
        let (_, wo) = issue(&mut dev, Command::write(0, 16), 0);
        assert_eq!(wo.data.unwrap().start, ro.data.unwrap().end);
        assert_eq!(dev.stats().turnarounds, 0);
    }

    #[test]
    fn auto_precharge_closes_page_and_gates_next_act() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let cmd = Command::read(0, 0).with_auto_precharge();
        let (s, _) = issue(&mut dev, cmd, 0);
        assert_eq!(dev.open_row(0), None);
        assert_eq!(dev.stats().auto_precharges, 1);
        // Precharge starts at max(tRAS after ACT, COL end - tCPOL) = 15;
        // next ACT is gated by tRC (34) from the first ACT, not by tRP.
        let next = Command::activate(0, 1);
        let e = dev.earliest(&next, 0);
        assert_eq!(e, dev.timing().t_rc);
        let _ = s;
    }

    #[test]
    fn plan_reflects_bank_state() {
        let mut dev = device();
        let loc = Location {
            bank: 0,
            row: 0,
            col: 0,
        };
        assert_eq!(
            dev.plan(loc),
            AccessPlan {
                needs_precharge: false,
                needs_activate: true
            }
        );
        issue(&mut dev, Command::activate(0, 0), 0);
        assert!(dev.plan(loc).is_page_hit());
        let other = Location {
            bank: 0,
            row: 1,
            col: 0,
        };
        assert_eq!(
            dev.plan(other),
            AccessPlan {
                needs_precharge: true,
                needs_activate: true
            }
        );
    }

    #[test]
    fn expect_open_row_diagnoses_state() {
        let mut dev = device();
        assert!(matches!(
            dev.expect_open_row(0, 0),
            Err(ProtocolError::BankClosed { bank: 0 })
        ));
        issue(&mut dev, Command::activate(0, 3), 0);
        assert!(dev.expect_open_row(0, 3).is_ok());
        assert!(matches!(
            dev.expect_open_row(0, 4),
            Err(ProtocolError::WrongOpenRow {
                bank: 0,
                open_row: 3
            })
        ));
    }

    #[test]
    fn double_bank_adjacency_is_enforced() {
        let cfg = DeviceConfig {
            double_bank: true,
            ..DeviceConfig::default()
        };
        let mut dev = Rdram::new(cfg);
        issue(&mut dev, Command::activate(0, 0), 0);
        let cmd = Command::activate(1, 0);
        let s = dev.earliest(&cmd, 0);
        let err = dev.issue_at(&cmd, s).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::AdjacentBankOpen {
                bank: 1,
                neighbour: 0
            }
        ));
        // Bank 2 is in a different pair and activates fine.
        issue(&mut dev, Command::activate(2, 0), 0);
    }

    #[test]
    fn issuing_later_than_earliest_is_accepted() {
        let mut dev = device();
        let act = Command::activate(0, 0);
        let e = dev.earliest(&act, 0);
        dev.issue_at(&act, e + 7).unwrap();
        let col = Command::read(0, 0);
        let e = dev.earliest(&col, 0);
        let o = dev.issue_at(&col, e + 3).unwrap();
        // Data still tracks the actual COL start, not the earliest.
        assert_eq!(
            o.data.unwrap().start,
            e + 3 + dev.timing().read_data_delay()
        );
    }

    #[test]
    fn earliest_never_precedes_now() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        for now in [0u64, 5, 100, 10_000] {
            for cmd in [
                Command::read(0, 0),
                Command::activate(1, 0),
                Command::precharge(0),
            ] {
                assert!(dev.earliest(&cmd, now) >= now, "{cmd:?} at {now}");
            }
        }
    }

    #[test]
    fn writes_to_different_banks_pipeline_then_turnaround_once() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        issue(&mut dev, Command::activate(1, 0), 0);
        // Start after both banks' tRCD windows so the COL packets are
        // data-bus-limited rather than activation-limited.
        let (_, w0) = issue(&mut dev, Command::write(0, 0), 20);
        let (_, w1) = issue(&mut dev, Command::write(1, 0), 20);
        // Back-to-back write data across banks.
        assert_eq!(w1.data.unwrap().start, w0.data.unwrap().end);
        let (_, r) = issue(&mut dev, Command::read(0, 16), 0);
        assert_eq!(
            r.data.unwrap().start - w1.data.unwrap().end,
            dev.timing().t_rw
        );
        assert_eq!(dev.stats().turnarounds, 1);
    }

    #[test]
    fn explicit_precharge_can_overlap_last_col_by_tcpol() {
        let mut dev = device();
        issue(&mut dev, Command::activate(0, 0), 0);
        let (c, _) = issue(&mut dev, Command::read(0, 0), 0);
        // The PRER may start tCPOL before the COL packet ends.
        let pre = Command::precharge(0);
        let e = dev.earliest(&pre, 0);
        assert_eq!(e, c + dev.timing().t_pack - dev.timing().t_cpol);
        dev.issue_at(&pre, e).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid device configuration")]
    fn invalid_config_panics() {
        let _ = Rdram::new(DeviceConfig {
            banks: 0,
            ..DeviceConfig::default()
        });
    }

    #[test]
    fn trr_applies_per_device_on_a_multi_device_channel() {
        let cfg = DeviceConfig {
            devices: 2,
            ..DeviceConfig::default()
        };
        let mut dev = Rdram::new(cfg);
        // Bank 0 lives on device 0, bank 8 on device 1: their ACTs are not
        // tRR-coupled, only serialized by the shared ROW bus (tPACK).
        let (a0, _) = issue(&mut dev, Command::activate(0, 0), 0);
        let (a1, _) = issue(&mut dev, Command::activate(8, 0), 0);
        assert_eq!(a1 - a0, dev.timing().t_pack);
        // A second ACT on device 0 still waits the full tRR.
        let (a2, _) = issue(&mut dev, Command::activate(1, 0), 0);
        assert_eq!(a2, a0 + dev.timing().t_rr);
    }

    #[test]
    fn channel_has_devices_times_banks() {
        let cfg = DeviceConfig {
            devices: 4,
            ..DeviceConfig::default()
        };
        assert_eq!(cfg.total_banks(), 32);
        let mut dev = Rdram::new(cfg);
        issue(&mut dev, Command::activate(31, 0), 0);
        let err = dev.issue_at(&Command::activate(32, 0), 0).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::NoSuchBank {
                bank: 32,
                banks: 32
            }
        ));
    }
}
