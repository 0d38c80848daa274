//! Cycle attribution: decompose every interface cycle of a run into
//! exclusive cost categories.
//!
//! The paper's whole argument is about *where cycles go* — data transfer
//! vs. row activate/precharge overhead, bus turnaround, bank-conflict
//! stalls — yet aggregate counters alone cannot attribute a bandwidth loss
//! to its cause. This module classifies each cycle in `[0, total)` into
//! exactly one [`CycleCategory`], per bank and globally, from the same
//! replayed [`Timeline`] the reconciliation audit already trusts.
//!
//! The classification is a strict priority order, so categories are
//! exclusive by construction and always sum to the total:
//!
//! 1. **Data** — the DATA bus is carrying a packet (attributed to the
//!    packet's bank). Cross-checks against
//!    [`DeviceStats::data_busy_cycles`](rdram::DeviceStats).
//! 2. **Retry** — a fault-recovery cycle: an injected controller stall or
//!    a NACKed-DATA retry incident reported by the controller event
//!    stream.
//! 3. **Turnaround** — the write-to-read `tRW` gap the DATA bus enforces
//!    (attributed to the bank of the following read). The number of gaps
//!    cross-checks against [`DeviceStats::turnarounds`](rdram::DeviceStats).
//! 4. **Row overhead** — the bank that owns the *next* DATA packet is
//!    activating or precharging: the pipeline is exposed to row-access
//!    latency on the critical path.
//! 5. **Bank conflict** — some *other* bank is activating or precharging
//!    while the DATA bus waits: row overhead that a better access order
//!    could have hidden.
//! 6. **Idle** — nothing above applies.
//!
//! [`CycleAttribution::check_exact`] enforces the exact-reconciliation
//! invariant (categories sum to total, per-bank sums match the globals);
//! [`CycleAttribution::reconcile`] cross-checks against the device's own
//! statistics — the same zero-tolerance bar as the timeline replay.

use rdram::{Cycle, DeviceConfig, DeviceStats, Dir};

use crate::event::Event;
use crate::timeline::{BankState, BusOp, Timeline};

/// The exclusive cost categories a cycle can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleCategory {
    /// The DATA bus carried a packet.
    Data,
    /// Fault recovery: an injected stall or a NACK-retry incident.
    Retry,
    /// The write-to-read `tRW` turnaround gap on the DATA bus.
    Turnaround,
    /// The next DATA packet's bank was activating or precharging.
    RowOverhead,
    /// A different bank was activating or precharging while the bus waited.
    BankConflict,
    /// Nothing was happening.
    Idle,
}

impl CycleCategory {
    /// Stable label used in JSON artifacts and tables.
    pub fn label(self) -> &'static str {
        match self {
            CycleCategory::Data => "data",
            CycleCategory::Retry => "retry",
            CycleCategory::Turnaround => "turnaround",
            CycleCategory::RowOverhead => "row_overhead",
            CycleCategory::BankConflict => "bank_conflict",
            CycleCategory::Idle => "idle",
        }
    }
}

/// Cycle totals per category, used both globally and per bank.
///
/// For per-bank totals `idle` stays 0 (idleness is a property of the whole
/// interface, not of one bank) and `retry` only accumulates when the fault
/// incident named a bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryTotals {
    /// Cycles the DATA bus carried packets.
    pub data: u64,
    /// Fault-recovery cycles (injected stalls, NACK retries).
    pub retry: u64,
    /// Write-to-read turnaround cycles.
    pub turnaround: u64,
    /// Cycles exposed to the next packet's own row activate/precharge.
    pub row_overhead: u64,
    /// Cycles stalled behind another bank's activate/precharge.
    pub bank_conflict: u64,
    /// Cycles with nothing happening (global only).
    pub idle: u64,
}

impl CategoryTotals {
    /// Accumulate another accounting's cycles into this one (the
    /// per-channel merge).
    pub fn absorb(&mut self, other: &CategoryTotals) {
        self.data = self.data.saturating_add(other.data);
        self.retry = self.retry.saturating_add(other.retry);
        self.turnaround = self.turnaround.saturating_add(other.turnaround);
        self.row_overhead = self.row_overhead.saturating_add(other.row_overhead);
        self.bank_conflict = self.bank_conflict.saturating_add(other.bank_conflict);
        self.idle = self.idle.saturating_add(other.idle);
    }

    /// Sum across all categories.
    pub fn sum(&self) -> u64 {
        self.data
            .saturating_add(self.retry)
            .saturating_add(self.turnaround)
            .saturating_add(self.row_overhead)
            .saturating_add(self.bank_conflict)
            .saturating_add(self.idle)
    }
}

/// The full attribution of one run: global and per-bank category totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    total: Cycle,
    global: CategoryTotals,
    banks: Vec<CategoryTotals>,
    turnaround_gaps: u64,
}

/// Internal per-cycle mark codes used while sweeping.
const MARK_NONE: u8 = 0;
const MARK_DATA: u8 = 1;
const MARK_RETRY: u8 = 2;
const MARK_TURN: u8 = 3;

/// Sentinel for "no bank" in the per-cycle owner array.
const NO_BANK: u32 = u32::MAX;

impl CycleAttribution {
    /// Attribute every cycle in `[0, total)` of a run.
    ///
    /// `timeline` is the replayed command stream, `events` the controller
    /// event log (for fault-recovery cycles), and `total` the run's cycle
    /// count (which bounds the sweep; spans extending past it are clamped).
    pub fn from_run(
        cfg: &DeviceConfig,
        timeline: &Timeline,
        events: &[Event],
        total: Cycle,
    ) -> Self {
        let t_rw = cfg.timing.t_rw;
        let nbanks = timeline.bank_spans().len();
        let n = usize::try_from(total).unwrap_or(0);

        // Per-cycle mark + owning bank, filled in priority order: data
        // first, then fault recovery, then turnaround gaps.
        let mut mark = vec![MARK_NONE; n];
        let mut owner = vec![NO_BANK; n];

        let data = timeline.data_bus();
        for span in data {
            let bank = span.op.bank() as u32;
            let end = span.end.min(total) as usize;
            for c in (span.start.min(total) as usize)..end {
                mark[c] = MARK_DATA;
                owner[c] = bank;
            }
        }

        for event in events {
            let (cycle, bank) = match *event {
                Event::InjectedStall { cycle } => (cycle, NO_BANK),
                Event::DataNack { cycle, bank } => (cycle, bank.map_or(NO_BANK, |b| b as u32)),
                Event::FifoDepth { .. }
                | Event::FifoSwitch { .. }
                | Event::BankDegraded { .. }
                | Event::SpeculativeActivate { .. }
                | Event::Refresh { .. }
                | Event::WatchdogTrip { .. } => continue,
            };
            if let Some(c) = usize::try_from(cycle).ok().filter(|&c| c < n) {
                if mark[c] == MARK_NONE {
                    mark[c] = MARK_RETRY;
                    owner[c] = bank;
                }
            }
        }

        // Write-to-read gaps: the device enforces a gap of at least tRW
        // from the end of the write packet, so the tRW cycles immediately
        // before the read are the turnaround cost; anything earlier in the
        // gap is ordinary row overhead / idleness.
        let mut turnaround_gaps = 0u64;
        for pair in data.windows(2) {
            let (w, r) = (&pair[0], &pair[1]);
            let writes_then_reads = matches!(
                (w.op, r.op),
                (
                    BusOp::Data {
                        dir: Dir::Write,
                        ..
                    },
                    BusOp::Data { dir: Dir::Read, .. }
                )
            );
            if !writes_then_reads {
                continue;
            }
            turnaround_gaps += 1;
            let bank = r.op.bank() as u32;
            let from = r.start.saturating_sub(t_rw).max(w.end).min(total) as usize;
            let to = r.start.min(total) as usize;
            for c in from..to {
                if mark[c] == MARK_NONE {
                    mark[c] = MARK_TURN;
                    owner[c] = bank;
                }
            }
        }

        // Bank of the first DATA packet starting strictly after each cycle
        // (data spans are in reservation order, so starts are monotone).
        let mut next_bank = vec![NO_BANK; n];
        let mut nb = NO_BANK;
        let mut j = data.len();
        for c in (0..n).rev() {
            while j > 0 && data[j - 1].start > c as u64 {
                j -= 1;
                nb = data[j].op.bank() as u32;
            }
            next_bank[c] = nb;
        }

        // Sweep with one chronological span pointer per bank to answer "is
        // bank b activating/precharging at cycle c" in O(1) amortized.
        let mut ptrs = vec![0usize; nbanks];
        let overhead_at = |spans: &[crate::timeline::Span], p: &mut usize, c: u64| -> bool {
            while *p < spans.len() && spans[*p].end <= c {
                *p += 1;
            }
            spans.get(*p).is_some_and(|s| {
                s.start <= c
                    && match s.state {
                        BankState::Activating | BankState::Precharging => true,
                        BankState::Open => false,
                    }
            })
        };

        let mut global = CategoryTotals::default();
        let mut banks = vec![CategoryTotals::default(); nbanks];
        let lanes = timeline.bank_spans();
        for c in 0..n {
            match mark[c] {
                MARK_DATA => {
                    global.data += 1;
                    if let Some(b) = banks.get_mut(owner[c] as usize) {
                        b.data += 1;
                    }
                }
                MARK_RETRY => {
                    global.retry += 1;
                    if let Some(b) = banks.get_mut(owner[c] as usize) {
                        b.retry += 1;
                    }
                }
                MARK_TURN => {
                    global.turnaround += 1;
                    if let Some(b) = banks.get_mut(owner[c] as usize) {
                        b.turnaround += 1;
                    }
                }
                _ => {
                    // Row overhead on the critical-path bank beats a
                    // conflict on any other; otherwise the lowest busy
                    // bank carries the conflict.
                    let cu = c as u64;
                    let target = next_bank[c] as usize;
                    let mut busy: Option<usize> = None;
                    for bank in 0..nbanks {
                        if overhead_at(&lanes[bank], &mut ptrs[bank], cu) && busy.is_none() {
                            busy = Some(bank);
                        }
                    }
                    let on_target = target < nbanks && {
                        // The pointer for `target` is already advanced to
                        // cycle `c` by the loop above; re-check membership.
                        lanes[target].get(ptrs[target]).is_some_and(|s| {
                            s.start <= cu
                                && s.end > cu
                                && match s.state {
                                    BankState::Activating | BankState::Precharging => true,
                                    BankState::Open => false,
                                }
                        })
                    };
                    if on_target {
                        global.row_overhead += 1;
                        banks[target].row_overhead += 1;
                    } else if let Some(bank) = busy {
                        global.bank_conflict += 1;
                        banks[bank].bank_conflict += 1;
                    } else {
                        global.idle += 1;
                    }
                }
            }
        }

        CycleAttribution {
            total,
            global,
            banks,
            turnaround_gaps,
        }
    }

    /// Merge per-channel attributions into one system-wide accounting.
    ///
    /// Bank totals are concatenated in order, so with `parts[i]` covering
    /// channel `i` the merged per-bank index is the *global* bank index
    /// (`channel × banks_per_channel + local bank`). `total` and
    /// `turnaround_gaps` sum across parts: every channel's interface runs
    /// for the whole run, so a two-channel run of `T` cycles accounts for
    /// `2 × T` interface cycles. [`check_exact`](Self::check_exact) holds
    /// on the merge whenever it holds on every part, and
    /// [`reconcile`](Self::reconcile) cross-checks against the
    /// channel-aggregated device statistics.
    pub fn merge(parts: &[CycleAttribution]) -> CycleAttribution {
        let mut merged = CycleAttribution::default();
        for p in parts {
            merged.total = merged.total.saturating_add(p.total);
            merged.turnaround_gaps = merged.turnaround_gaps.saturating_add(p.turnaround_gaps);
            merged.global.absorb(&p.global);
            merged.banks.extend(p.banks.iter().copied());
        }
        merged
    }

    /// The cycle count the attribution covers.
    pub fn total(&self) -> Cycle {
        self.total
    }

    /// Global category totals.
    pub fn global(&self) -> &CategoryTotals {
        &self.global
    }

    /// Per-bank category totals, indexed by bank.
    pub fn banks(&self) -> &[CategoryTotals] {
        &self.banks
    }

    /// Number of write-to-read turnaround gaps observed.
    pub fn turnaround_gaps(&self) -> u64 {
        self.turnaround_gaps
    }

    /// Enforce the exact-reconciliation invariant: the global categories
    /// sum to the total cycle count, and every bank-attributable category
    /// sums across banks to its global figure (`retry` may exceed the
    /// per-bank sum when an incident named no bank; `idle` is global-only).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated identity.
    pub fn check_exact(&self) -> Result<(), String> {
        let sum = self.global.sum();
        if sum != self.total {
            return Err(format!(
                "attribution does not cover the run: categories sum to {sum}, total is {}",
                self.total
            ));
        }
        let by_bank = |f: fn(&CategoryTotals) -> u64| -> u64 { self.banks.iter().map(f).sum() };
        let exact: [(&str, u64, u64); 4] = [
            ("data", by_bank(|b| b.data), self.global.data),
            (
                "turnaround",
                by_bank(|b| b.turnaround),
                self.global.turnaround,
            ),
            (
                "row_overhead",
                by_bank(|b| b.row_overhead),
                self.global.row_overhead,
            ),
            (
                "bank_conflict",
                by_bank(|b| b.bank_conflict),
                self.global.bank_conflict,
            ),
        ];
        for (name, banks, global) in exact {
            if banks != global {
                return Err(format!(
                    "per-bank {name} cycles sum to {banks}, global is {global}"
                ));
            }
        }
        if by_bank(|b| b.retry) > self.global.retry {
            return Err(format!(
                "per-bank retry cycles exceed the global figure {}",
                self.global.retry
            ));
        }
        if self.banks.iter().any(|b| b.idle != 0) {
            return Err("idle cycles attributed to a bank".to_string());
        }
        Ok(())
    }

    /// Cross-check the attribution against the device's own statistics:
    /// data cycles must equal `data_busy_cycles` and turnaround gaps must
    /// equal `turnarounds`. Returns one line per mismatch; empty means the
    /// accountings agree exactly, under injected faults and chaos too: both
    /// read the same delivered command stream.
    pub fn reconcile(&self, stats: &DeviceStats) -> Vec<String> {
        let pairs: [(&str, u64, u64); 2] = [
            ("data_cycles", self.global.data, stats.data_busy_cycles),
            ("turnaround_gaps", self.turnaround_gaps, stats.turnarounds),
        ];
        pairs
            .iter()
            .filter(|(_, a, d)| a != d)
            .map(|(name, a, d)| format!("{name}: attribution derived {a}, device counted {d}"))
            .collect()
    }

    /// Render as a compact, deterministic JSON document (the
    /// `--attribution-out` artifact). Banks with no attributed cycles are
    /// omitted.
    pub fn to_json(&self) -> String {
        let cat = |t: &CategoryTotals| {
            format!(
                "{{\"data\":{},\"retry\":{},\"turnaround\":{},\"row_overhead\":{},\
                 \"bank_conflict\":{},\"idle\":{}}}",
                t.data, t.retry, t.turnaround, t.row_overhead, t.bank_conflict, t.idle
            )
        };
        let banks: Vec<String> = self
            .banks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.sum() > 0)
            .map(|(bank, t)| format!("{{\"bank\":{bank},\"categories\":{}}}", cat(t)))
            .collect();
        format!(
            "{{\"kind\":\"cycle-attribution\",\"total_cycles\":{},\"turnaround_gaps\":{},\
             \"global\":{},\"banks\":[{}]}}\n",
            self.total,
            self.turnaround_gaps,
            cat(&self.global),
            banks.join(",")
        )
    }

    /// Parse a document produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON or a missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
        if doc.get("kind").and_then(|v| v.as_str()) != Some("cycle-attribution") {
            return Err("not a cycle-attribution document (missing kind)".to_string());
        }
        let u64_of = |v: &serde_json::Value, name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("missing integer field `{name}`"))
        };
        let cat_of = |v: &serde_json::Value| -> Result<CategoryTotals, String> {
            Ok(CategoryTotals {
                data: u64_of(v, "data")?,
                retry: u64_of(v, "retry")?,
                turnaround: u64_of(v, "turnaround")?,
                row_overhead: u64_of(v, "row_overhead")?,
                bank_conflict: u64_of(v, "bank_conflict")?,
                idle: u64_of(v, "idle")?,
            })
        };
        let global = cat_of(
            doc.get("global")
                .ok_or_else(|| "missing `global` object".to_string())?,
        )?;
        let bank_list = doc
            .get("banks")
            .and_then(|v| v.as_array())
            .ok_or_else(|| "missing `banks` array".to_string())?;
        let mut sparse: Vec<(usize, CategoryTotals)> = Vec::with_capacity(bank_list.len());
        let mut max_bank = 0usize;
        for entry in bank_list {
            let bank = u64_of(entry, "bank")? as usize;
            let cats = cat_of(
                entry
                    .get("categories")
                    .ok_or_else(|| "bank entry missing `categories`".to_string())?,
            )?;
            max_bank = max_bank.max(bank + 1);
            sparse.push((bank, cats));
        }
        let mut banks = vec![CategoryTotals::default(); max_bank];
        for (bank, cats) in sparse {
            banks[bank] = cats;
        }
        Ok(CycleAttribution {
            total: u64_of(&doc, "total_cycles")?,
            global,
            banks,
            turnaround_gaps: u64_of(&doc, "turnaround_gaps")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdram::{Command, CommandRecord, Rdram};

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

    fn attribution_of(cmds: &[Command]) -> (CycleAttribution, DeviceStats) {
        let (cfg, records, stats) = drive(cmds);
        let tl = Timeline::from_commands(&cfg, &records);
        let total = tl.horizon();
        (CycleAttribution::from_run(&cfg, &tl, &[], total), stats)
    }

    #[test]
    fn categories_sum_to_total_and_reconcile() {
        let (attr, stats) = attribution_of(&[
            Command::activate(0, 0),
            Command::read(0, 0),
            Command::read(0, 16),
            Command::write(0, 32),
            Command::read(0, 48), // write->read turnaround
            Command::precharge(0),
            Command::activate(1, 2),
            Command::read(1, 0).with_auto_precharge(),
        ]);
        attr.check_exact().expect("exact partition");
        let mismatches = attr.reconcile(&stats);
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert_eq!(attr.turnaround_gaps(), 1);
        assert_eq!(attr.global().turnaround, 6, "tRW = 6 turnaround cycles");
        assert!(attr.global().row_overhead > 0, "the initial ACT is exposed");
    }

    #[test]
    fn startup_activate_is_row_overhead_not_idle() {
        let (attr, _) = attribution_of(&[Command::activate(0, 0), Command::read(0, 0)]);
        attr.check_exact().expect("exact partition");
        // Before the first DATA packet the target bank is activating: all
        // of that exposure is row overhead on bank 0, none of it idle.
        assert!(attr.global().row_overhead >= 12);
        assert_eq!(attr.banks()[0].row_overhead, attr.global().row_overhead);
        assert_eq!(attr.global().bank_conflict, 0);
    }

    #[test]
    fn overlapping_other_bank_work_is_a_conflict() {
        // Open bank 0, stream from it, then activate bank 1 whose ACT
        // cost is exposed while bank 0's data still owns the bus.
        let (attr, stats) = attribution_of(&[
            Command::activate(0, 0),
            Command::read(0, 0),
            Command::activate(1, 0),
            Command::read(1, 0),
            Command::read(0, 16),
        ]);
        attr.check_exact().expect("exact partition");
        assert!(attr.reconcile(&stats).is_empty());
        let by_bank: u64 = attr.banks().iter().map(|b| b.sum()).sum();
        assert_eq!(by_bank + attr.global().idle, attr.total());
    }

    #[test]
    fn fault_events_become_retry_cycles() {
        let (cfg, records, _) = drive(&[Command::activate(0, 0), Command::read(0, 0)]);
        let tl = Timeline::from_commands(&cfg, &records);
        let total = tl.horizon() + 4;
        let events = [
            // One stall inside a gap cycle, one on a data cycle (data
            // wins), one past the total (ignored).
            Event::InjectedStall { cycle: 1 },
            Event::DataNack {
                cycle: total - 2,
                bank: Some(0),
            },
            Event::InjectedStall { cycle: total + 100 },
        ];
        let attr = CycleAttribution::from_run(&cfg, &tl, &events, total);
        attr.check_exact().expect("exact partition");
        assert_eq!(attr.global().retry, 2);
        assert_eq!(attr.banks()[0].retry, 1, "only the NACK named a bank");
    }

    #[test]
    fn empty_run_is_all_idle() {
        let cfg = DeviceConfig::default();
        let tl = Timeline::from_commands(&cfg, &[]);
        let attr = CycleAttribution::from_run(&cfg, &tl, &[], 100);
        attr.check_exact().expect("exact partition");
        assert_eq!(attr.global().idle, 100);
        assert_eq!(attr.turnaround_gaps(), 0);
    }

    #[test]
    fn json_round_trips() {
        let (attr, _) = attribution_of(&[
            Command::activate(0, 0),
            Command::write(0, 0),
            Command::read(0, 16),
        ]);
        let json = attr.to_json();
        assert!(json.contains("\"kind\":\"cycle-attribution\""));
        let back = CycleAttribution::from_json(&json).expect("round trip");
        // Trailing all-zero banks are omitted from the document; everything
        // else survives exactly.
        assert_eq!(back.total(), attr.total());
        assert_eq!(back.global(), attr.global());
        assert_eq!(back.turnaround_gaps(), attr.turnaround_gaps());
        for (bank, totals) in attr.banks().iter().enumerate() {
            let parsed = back.banks().get(bank).copied().unwrap_or_default();
            assert_eq!(parsed, *totals, "bank {bank}");
        }
        back.check_exact().expect("parsed document stays exact");
        assert!(CycleAttribution::from_json("{}").is_err());
        assert!(CycleAttribution::from_json("not json").is_err());
    }

    #[test]
    fn clamping_respects_a_short_total() {
        let (cfg, records, _) = drive(&[Command::activate(0, 0), Command::read(0, 0)]);
        let tl = Timeline::from_commands(&cfg, &records);
        // Cut the run short of the data packet: categories still
        // partition the clamped window exactly.
        let attr = CycleAttribution::from_run(&cfg, &tl, &[], 5);
        attr.check_exact().expect("exact partition");
        assert_eq!(attr.total(), 5);
    }
}
