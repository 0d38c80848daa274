//! Cycle-resolved timeline reconstruction from a recorded command stream.
//!
//! The memory system records every accepted command as an
//! [`rdram::CommandRecord`]; this module *replays* that stream against the
//! same timing rules the device enforces ([`rdram::Bank`],
//! [`rdram::DataBus`]) to reconstruct what each bank and bus was doing on
//! every cycle — without adding a single instruction to the simulation hot
//! path. Because the replay re-derives the counters the device also keeps
//! ([`rdram::DeviceStats`]), [`reconcile`] doubles as an end-to-end audit
//! of the accounting: any divergence means either the replay or the device
//! mis-models the protocol.

use rdram::{Command, CommandRecord, Cycle, DeviceConfig, DeviceStats, Dir, RowOp, Timing};

/// What a bank is doing during a [`Span`]. Idle time is represented by the
/// absence of a span, not a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// An ACT is moving the row into the sense amps (`tRCD + 1` cycles).
    Activating,
    /// A row is open and serving column accesses.
    Open,
    /// The sense amps are precharging (`tRP` cycles).
    Precharging,
}

impl BankState {
    /// Human-readable label used in reports and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            BankState::Activating => "activating",
            BankState::Open => "open",
            BankState::Precharging => "precharging",
        }
    }
}

/// One contiguous residency of a bank in a non-idle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First cycle of the residency.
    pub start: Cycle,
    /// One past the last cycle of the residency.
    pub end: Cycle,
    /// What the bank was doing.
    pub state: BankState,
    /// The row involved, where meaningful (ACT target / open row).
    pub row: Option<u64>,
}

impl Span {
    /// Number of cycles covered.
    pub fn len(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers no cycles.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// What a bus carried during a [`BusSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// ROW bus: an ACT packet opening `row` in `bank`.
    Activate {
        /// Target bank.
        bank: usize,
        /// Row being opened.
        row: u64,
    },
    /// ROW bus: a PRER packet closing `bank`.
    Precharge {
        /// Target bank.
        bank: usize,
    },
    /// COL bus: a RD packet to `bank`.
    ColRead {
        /// Target bank.
        bank: usize,
    },
    /// COL bus: a WR packet to `bank`.
    ColWrite {
        /// Target bank.
        bank: usize,
    },
    /// DATA bus: a packet moving in `dir` for `bank`.
    Data {
        /// Transfer direction.
        dir: Dir,
        /// Bank the packet belongs to.
        bank: usize,
    },
}

impl BusOp {
    /// Human-readable label used in reports and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            BusOp::Activate { .. } => "ACT",
            BusOp::Precharge { .. } => "PRER",
            BusOp::ColRead { .. } => "RD",
            BusOp::ColWrite { .. } => "WR",
            BusOp::Data { dir: Dir::Read, .. } => "DATA rd",
            BusOp::Data {
                dir: Dir::Write, ..
            } => "DATA wr",
        }
    }

    /// The bank the operation concerns.
    pub fn bank(self) -> usize {
        match self {
            BusOp::Activate { bank, .. }
            | BusOp::Precharge { bank }
            | BusOp::ColRead { bank }
            | BusOp::ColWrite { bank }
            | BusOp::Data { bank, .. } => bank,
        }
    }
}

/// One packet's occupancy of a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusSpan {
    /// First cycle the packet occupies the bus.
    pub start: Cycle,
    /// One past the last occupied cycle.
    pub end: Cycle,
    /// What the packet carried.
    pub op: BusOp,
}

/// Counters re-derived from the command stream; field-for-field comparable
/// with [`rdram::DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DerivedCounts {
    /// ROW ACT packets replayed.
    pub activates: u64,
    /// Explicit ROW PRER packets replayed.
    pub precharges: u64,
    /// COL auto-precharges replayed.
    pub auto_precharges: u64,
    /// COL RD packets that hit the open page.
    pub read_hits: u64,
    /// COL WR packets that hit the open page.
    pub write_hits: u64,
    /// Read DATA packets replayed.
    pub read_packets: u64,
    /// Write DATA packets replayed.
    pub write_packets: u64,
    /// Write-to-read DATA-bus turnarounds observed.
    pub turnarounds: u64,
    /// Cycles the DATA bus carried packets.
    pub data_busy_cycles: u64,
}

impl DerivedCounts {
    /// Accumulate another replay's counters into this one: the
    /// multi-channel merge, where each channel's trace replays against its
    /// own bus triple and the sums compare against the channel-aggregated
    /// [`rdram::DeviceStats`].
    pub fn absorb(&mut self, other: &DerivedCounts) {
        self.activates = self.activates.saturating_add(other.activates);
        self.precharges = self.precharges.saturating_add(other.precharges);
        self.auto_precharges = self.auto_precharges.saturating_add(other.auto_precharges);
        self.read_hits = self.read_hits.saturating_add(other.read_hits);
        self.write_hits = self.write_hits.saturating_add(other.write_hits);
        self.read_packets = self.read_packets.saturating_add(other.read_packets);
        self.write_packets = self.write_packets.saturating_add(other.write_packets);
        self.turnarounds = self.turnarounds.saturating_add(other.turnarounds);
        self.data_busy_cycles = self.data_busy_cycles.saturating_add(other.data_busy_cycles);
    }
}

/// Per-bank replay state mirroring [`rdram::Bank`]'s bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct BankReplay {
    open: bool,
    row: u64,
    act_start: Cycle,
    last_act: Option<Cycle>,
    cols_since_act: u64,
}

/// What replaying one command record did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The command packet: ROW bus for ACT and PRER, COL bus for RD and WR.
    pub(crate) command: BusSpan,
    /// The DATA packet of a RD or WR.
    pub(crate) data: Option<BusSpan>,
    /// First cycle of a COL's auto-precharge, which holds the bank for
    /// `tRP` cycles without occupying a bus.
    pub(crate) auto_precharge: Option<Cycle>,
    /// A COL to a page an earlier COL since its ACT already used.
    hit: bool,
    /// A read DATA packet directly after a write one.
    turnaround: bool,
    /// Residency of the bank a PRER or auto-precharge closed.
    closed: [Option<Span>; 3],
}

/// Replays one channel's command record a record at a time against its
/// timing: the step [`Timeline::from_commands`] and the
/// [`diagram`](crate::diagram) renderer share.
#[derive(Debug, Clone)]
pub(crate) struct Replay {
    t: Timing,
    banks: Vec<BankReplay>,
    last_data_dir: Option<Dir>,
}

impl Replay {
    pub(crate) fn new(cfg: &DeviceConfig) -> Self {
        Replay {
            t: cfg.timing,
            banks: vec![BankReplay::default(); cfg.total_banks()],
            last_data_dir: None,
        }
    }

    /// Replay `rec`, or `None` when its bank lies outside the channel.
    ///
    /// Records arrive in issue order; per bus that order is also
    /// reservation order, and per bank it is chronological — both
    /// guaranteed by the device, which validates every command before
    /// reporting it.
    pub(crate) fn step(&mut self, rec: &CommandRecord) -> Option<Step> {
        let t = self.t;
        let c = rec.cycle;
        let bank = rec.cmd.bank();
        let b = self.banks.get_mut(bank)?;
        // A PRER keeps this command op; an ACT or COL replaces it below.
        let mut step = Step {
            command: BusSpan {
                start: c,
                end: c + t.t_pack,
                op: BusOp::Precharge { bank },
            },
            data: None,
            auto_precharge: None,
            hit: false,
            turnaround: false,
            closed: [None; 3],
        };
        match rec.cmd {
            Command::Row(RowOp::Activate { row, .. }) => {
                step.command.op = BusOp::Activate { bank, row };
                *b = BankReplay {
                    open: true,
                    row,
                    act_start: c,
                    last_act: Some(c),
                    cols_since_act: 0,
                };
            }
            Command::Row(RowOp::Precharge { .. }) => {
                step.closed = close_bank(b, c, t.t_rcd, t.t_rp);
            }
            Command::Col { op, auto_precharge } => {
                let dir = op.dir();
                let delay = match dir {
                    Dir::Read => t.read_data_delay(),
                    Dir::Write => t.write_data_delay(),
                };
                step.command.op = match dir {
                    Dir::Read => BusOp::ColRead { bank },
                    Dir::Write => BusOp::ColWrite { bank },
                };
                step.data = Some(BusSpan {
                    start: c + delay,
                    end: c + delay + t.t_pack,
                    op: BusOp::Data { dir, bank },
                });
                step.turnaround = self.last_data_dir == Some(Dir::Write) && dir == Dir::Read;
                self.last_data_dir = Some(dir);
                step.hit = b.cols_since_act > 0;
                b.cols_since_act += 1;
                if auto_precharge {
                    // The device starts the hidden precharge at the
                    // earliest legal cycle after the access: tRAS after
                    // the ACT, overlapping the COL packet by <= tCPOL.
                    let tras_bound = b.last_act.map_or(0, |a| a + t.t_ras);
                    let col_bound = (c + t.t_pack).saturating_sub(t.t_cpol);
                    let p = tras_bound.max(col_bound).max(c);
                    step.auto_precharge = Some(p);
                    step.closed = close_bank(b, p, t.t_rcd, t.t_rp);
                }
            }
        }
        Some(step)
    }
}

/// A full cycle-resolved reconstruction of one run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    banks: Vec<Vec<Span>>,
    row_bus: Vec<BusSpan>,
    col_bus: Vec<BusSpan>,
    data_bus: Vec<BusSpan>,
    counts: DerivedCounts,
    horizon: Cycle,
}

impl Timeline {
    /// Replay `records` (one channel's command record) against the timing
    /// in `cfg`.
    ///
    /// Malformed input (out-of-range banks) is skipped rather than
    /// panicking: the replay is a diagnostic tool and must never take the
    /// simulator down.
    pub fn from_commands(cfg: &DeviceConfig, records: &[CommandRecord]) -> Self {
        let mut tl = Timeline {
            banks: vec![Vec::new(); cfg.total_banks()],
            ..Timeline::default()
        };
        let mut replay = Replay::new(cfg);
        for rec in records {
            let Some(step) = replay.step(rec) else {
                continue;
            };
            let command = step.command;
            match step.data {
                Some(data) => {
                    tl.col_bus.push(command);
                    tl.data_bus.push(data);
                    tl.counts.data_busy_cycles += data.end - data.start;
                    tl.counts.turnarounds += u64::from(step.turnaround);
                    let (packets, hits) = if matches!(command.op, BusOp::ColRead { .. }) {
                        (&mut tl.counts.read_packets, &mut tl.counts.read_hits)
                    } else {
                        (&mut tl.counts.write_packets, &mut tl.counts.write_hits)
                    };
                    *packets += 1;
                    *hits += u64::from(step.hit);
                    tl.horizon = tl.horizon.max(data.end);
                    tl.counts.auto_precharges += u64::from(step.auto_precharge.is_some());
                }
                None if matches!(command.op, BusOp::Activate { .. }) => {
                    tl.row_bus.push(command);
                    tl.counts.activates += 1;
                    tl.horizon = tl.horizon.max(command.end);
                }
                None => {
                    tl.row_bus.push(command);
                    tl.counts.precharges += 1;
                }
            }
            tl.push_bank_spans(command.op.bank(), step.closed);
        }

        // Banks still open at the end of the stream stay resident until the
        // horizon (they were never precharged).
        let horizon = tl.horizon;
        for (bank, b) in replay.banks.iter_mut().enumerate() {
            let spans = open_residency(b, horizon, replay.t.t_rcd);
            tl.push_bank_spans(bank, spans);
        }
        tl
    }

    fn push_bank_spans(&mut self, bank: usize, spans: [Option<Span>; 3]) {
        for span in spans.into_iter().flatten() {
            if !span.is_empty() {
                self.horizon = self.horizon.max(span.end);
                if let Some(lane) = self.banks.get_mut(bank) {
                    lane.push(span);
                }
            }
        }
    }

    /// Per-bank residency spans, indexed by bank; spans within a bank are
    /// chronological and non-overlapping.
    pub fn bank_spans(&self) -> &[Vec<Span>] {
        &self.banks
    }

    /// ROW-bus packet occupancy, in reservation order.
    pub fn row_bus(&self) -> &[BusSpan] {
        &self.row_bus
    }

    /// COL-bus packet occupancy, in reservation order.
    pub fn col_bus(&self) -> &[BusSpan] {
        &self.col_bus
    }

    /// DATA-bus packet occupancy, in reservation order.
    pub fn data_bus(&self) -> &[BusSpan] {
        &self.data_bus
    }

    /// The re-derived counters.
    pub fn counts(&self) -> &DerivedCounts {
        &self.counts
    }

    /// One past the last cycle anything was happening.
    pub fn horizon(&self) -> Cycle {
        self.horizon
    }

    /// Total cycles banks spent in `state`, summed across banks.
    pub fn residency(&self, state: BankState) -> Cycle {
        self.banks
            .iter()
            .flatten()
            .filter(|s| s.state == state)
            .map(Span::len)
            .sum()
    }

    /// Length of every open-page residency span, across all banks.
    pub fn open_span_lengths(&self) -> Vec<Cycle> {
        self.banks
            .iter()
            .flatten()
            .filter(|s| s.state == BankState::Open)
            .map(Span::len)
            .collect()
    }

    /// Gap (idle cycles) between each consecutive pair of DATA packets.
    pub fn data_gaps(&self) -> Vec<Cycle> {
        self.data_bus
            .windows(2)
            .map(|w| w[1].start.saturating_sub(w[0].end))
            .collect()
    }
}

/// Residency spans for a bank being closed at cycle `p`:
/// activating from the ACT, open until `p`, precharging for `tRP`.
fn close_bank(b: &mut BankReplay, p: Cycle, t_rcd: Cycle, t_rp: Cycle) -> [Option<Span>; 3] {
    let mut spans = open_residency(b, p, t_rcd);
    spans[2] = Some(Span {
        start: p,
        end: p + t_rp,
        state: BankState::Precharging,
        row: None,
    });
    spans
}

/// Activating/open residency of a bank from its ACT up to `until`; resets
/// the replay state to closed.
fn open_residency(b: &mut BankReplay, until: Cycle, t_rcd: Cycle) -> [Option<Span>; 3] {
    let mut spans = [None, None, None];
    if b.open {
        let open_at = (b.act_start + t_rcd + 1).min(until);
        spans[0] = Some(Span {
            start: b.act_start,
            end: open_at,
            state: BankState::Activating,
            row: Some(b.row),
        });
        spans[1] = Some(Span {
            start: open_at,
            end: until,
            state: BankState::Open,
            row: Some(b.row),
        });
    }
    b.open = false;
    spans
}

/// Compare replayed counters against the device's own statistics.
///
/// Returns one human-readable line per mismatch; an empty vector means the
/// two accountings agree exactly. `elapsed`-dependent ratios are not
/// compared — they are derived from these integers.
pub fn reconcile(derived: &DerivedCounts, stats: &DeviceStats) -> Vec<String> {
    let pairs: [(&str, u64, u64); 9] = [
        ("activates", derived.activates, stats.activates),
        ("precharges", derived.precharges, stats.precharges),
        (
            "auto_precharges",
            derived.auto_precharges,
            stats.auto_precharges,
        ),
        ("read_hits", derived.read_hits, stats.read_hits),
        ("write_hits", derived.write_hits, stats.write_hits),
        ("read_packets", derived.read_packets, stats.read_packets),
        ("write_packets", derived.write_packets, stats.write_packets),
        ("turnarounds", derived.turnarounds, stats.turnarounds),
        (
            "data_busy_cycles",
            derived.data_busy_cycles,
            stats.data_busy_cycles,
        ),
    ];
    pairs
        .iter()
        .filter(|(_, d, s)| d != s)
        .map(|(name, d, s)| format!("{name}: timeline replay derived {d}, device counted {s}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdram::Rdram;

    /// Drive a device through `cmds` (at each command's earliest legal
    /// cycle); return the commands as issued and the final stats.
    fn drive(cmds: &[Command]) -> (DeviceConfig, Vec<CommandRecord>, DeviceStats) {
        let cfg = DeviceConfig::default();
        let mut dev = Rdram::new(cfg.clone());
        let mut records = Vec::new();
        for cmd in cmds {
            let cycle = dev.earliest(cmd, 0);
            dev.issue_at(cmd, cycle).expect("legal command");
            records.push(CommandRecord { cycle, cmd: *cmd });
        }
        (cfg, records, *dev.stats())
    }

    #[test]
    fn replay_reconciles_with_device_stats() {
        let (cfg, records, stats) = drive(&[
            Command::activate(0, 0),
            Command::read(0, 0),
            Command::read(0, 16),
            Command::write(0, 32),
            Command::read(0, 48), // write->read turnaround
            Command::precharge(0),
            Command::activate(1, 2),
            Command::read(1, 0).with_auto_precharge(),
        ]);
        let tl = Timeline::from_commands(&cfg, &records);
        let mismatches = reconcile(tl.counts(), &stats);
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert_eq!(tl.counts().turnarounds, 1);
        assert_eq!(tl.counts().auto_precharges, 1);
    }

    #[test]
    fn bank_residency_matches_the_protocol() {
        let (cfg, records, _) = drive(&[
            Command::activate(0, 7),
            Command::read(0, 0),
            Command::precharge(0),
        ]);
        let tl = Timeline::from_commands(&cfg, &records);
        let spans = &tl.bank_spans()[0];
        // ACT at 0: activating [0, 12), open [12, prer), precharging 10 cy.
        assert_eq!(spans[0].state, BankState::Activating);
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[0].end, 12);
        assert_eq!(spans[0].row, Some(7));
        assert_eq!(spans[1].state, BankState::Open);
        assert_eq!(spans[1].start, 12);
        assert_eq!(spans[2].state, BankState::Precharging);
        assert_eq!(spans[2].start, spans[1].end);
        assert_eq!(spans[2].len(), 10);
        // The PRER overlapped the COL packet by tCPOL: COL at 12 ends 16,
        // PRER from 15.
        assert_eq!(spans[2].start, 15);
        assert_eq!(tl.residency(BankState::Open), 3);
    }

    #[test]
    fn bus_spans_follow_the_data_delays() {
        let (cfg, records, _) = drive(&[
            Command::activate(0, 0),
            Command::read(0, 0),
            Command::write(0, 16),
        ]);
        let tl = Timeline::from_commands(&cfg, &records);
        assert_eq!(tl.row_bus().len(), 1);
        assert_eq!(tl.col_bus().len(), 2);
        assert_eq!(tl.data_bus().len(), 2);
        // COL RD at 12 -> data [22, 26); write data follows gaplessly.
        assert_eq!(tl.data_bus()[0].start, 22);
        assert_eq!(tl.data_bus()[0].op.label(), "DATA rd");
        assert_eq!(tl.data_bus()[1].start, 26);
        assert_eq!(tl.data_gaps(), vec![0]);
    }

    #[test]
    fn open_bank_at_end_of_stream_stays_resident_to_horizon() {
        let (cfg, records, _) = drive(&[Command::activate(0, 0), Command::read(0, 0)]);
        let tl = Timeline::from_commands(&cfg, &records);
        let spans = &tl.bank_spans()[0];
        assert_eq!(spans.len(), 2); // activating + open, never precharged
        assert_eq!(spans[1].end, tl.horizon());
        assert_eq!(tl.residency(BankState::Precharging), 0);
    }

    #[test]
    fn malformed_records_are_skipped_not_fatal() {
        let cfg = DeviceConfig::default();
        let records = [CommandRecord {
            cycle: 0,
            cmd: Command::activate(99, 0), // no such bank
        }];
        let tl = Timeline::from_commands(&cfg, &records);
        assert_eq!(tl.counts().activates, 0);
        assert_eq!(tl.horizon(), 0);
    }

    #[test]
    fn reconcile_reports_each_divergent_field() {
        let derived = DerivedCounts {
            activates: 3,
            ..DerivedCounts::default()
        };
        let stats = DeviceStats {
            activates: 2,
            turnarounds: 5,
            ..DeviceStats::default()
        };
        let lines = reconcile(&derived, &stats);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("activates"));
        assert!(lines[1].contains("turnarounds"));
    }
}
