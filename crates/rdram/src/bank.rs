//! Per-bank sense-amp state and timing bookkeeping.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use serde::{Deserialize, Serialize};

use crate::{Cycle, Interval, Timing};

/// State of a bank's sense amplifiers (its row buffer / "page cache").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SenseAmps {
    /// The sense amps are precharged (or precharging) and hold no row.
    Closed,
    /// The sense amps hold `row` and column accesses may proceed.
    Open {
        /// The currently open row.
        row: u64,
    },
}

/// Timing state of one RDRAM bank.
///
/// A bank tracks when it was last activated, whether a row is open, and the
/// earliest cycles at which the next ACT, COL, or PRER may start. All
/// `earliest_*` methods return lower bounds from *this bank's* perspective;
/// the device combines them with bus availability and device-wide rules
/// (`tRR`, turnaround).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bank {
    amps: SenseAmps,
    /// Start cycle of the most recent ACT, if any.
    last_act: Option<Cycle>,
    /// Earliest cycle an ACT may start (precharge completion).
    ready_for_act: Cycle,
    /// Earliest cycle a COL packet to the open row may start.
    col_allowed: Cycle,
    /// Most recent COL packet interval to this bank, if any.
    last_col: Option<Interval>,
    /// COL packets issued since the last ACT (0 means the next COL is the
    /// page-miss access itself; later ones are page hits).
    cols_since_act: u64,
}

impl Bank {
    /// A fresh, precharged bank.
    pub fn new() -> Self {
        Bank {
            amps: SenseAmps::Closed,
            last_act: None,
            ready_for_act: 0,
            col_allowed: 0,
            last_col: None,
            cols_since_act: 0,
        }
    }

    /// Current sense-amp state.
    pub fn amps(&self) -> SenseAmps {
        self.amps
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        match self.amps {
            SenseAmps::Open { row } => Some(row),
            SenseAmps::Closed => None,
        }
    }

    /// Start cycle of the most recent ACT to this bank.
    pub fn last_act(&self) -> Option<Cycle> {
        self.last_act
    }

    /// Earliest cycle at which an ACT to this bank may start: the bank must
    /// be precharged (`tRP` after the PRER) and `tRC` must have elapsed since
    /// its previous ACT.
    ///
    /// The bank must be [`SenseAmps::Closed`]; activating an open bank is a
    /// protocol error the device reports separately.
    pub fn earliest_activate(&self, t: &Timing) -> Cycle {
        let trc_bound = self.last_act.map_or(0, |a| a.saturating_add(t.t_rc));
        self.ready_for_act.max(trc_bound)
    }

    /// Earliest cycle a COL packet to the open row may start
    /// (`ACT + tRCD + 1`; the `+1` reproduces the paper's
    /// `tRAC = tRCD + tCAC + 1` page-miss latency). Also serialized after the
    /// previous COL packet to this bank.
    pub fn earliest_col(&self) -> Cycle {
        let after_prev = self.last_col.map_or(0, |c| c.end);
        self.col_allowed.max(after_prev)
    }

    /// Earliest cycle a PRER to this bank may start: `tRAS` after the ACT
    /// that opened the row, and overlapping the final COL packet by at most
    /// `tCPOL`.
    pub fn earliest_precharge(&self, t: &Timing) -> Cycle {
        let tras_bound = self.last_act.map_or(0, |a| a.saturating_add(t.t_ras));
        let col_bound = self.last_col.map_or(0, |c| c.end.saturating_sub(t.t_cpol));
        tras_bound.max(col_bound)
    }

    /// Number of COL packets issued since the row was opened.
    pub fn cols_since_act(&self) -> u64 {
        self.cols_since_act
    }

    /// Record an ACT starting at `start` opening `row`.
    pub fn record_activate(&mut self, start: Cycle, row: u64, t: &Timing) {
        self.amps = SenseAmps::Open { row };
        self.last_act = Some(start);
        self.col_allowed = start.saturating_add(t.t_rcd).saturating_add(1);
        self.last_col = None;
        self.cols_since_act = 0;
    }

    /// Record a COL packet occupying `packet` on the COL bus.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "counts COL packets since the last activate, bounded by the run length"
    )]
    pub fn record_col(&mut self, packet: Interval) {
        self.last_col = Some(packet);
        self.cols_since_act += 1;
    }

    /// Record a PRER starting at `start`; the bank closes and may be
    /// re-activated `tRP` later.
    pub fn record_precharge(&mut self, start: Cycle, t: &Timing) {
        self.amps = SenseAmps::Closed;
        self.ready_for_act = self.ready_for_act.max(start.saturating_add(t.t_rp));
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timing {
        Timing::default()
    }

    #[test]
    fn fresh_bank_is_immediately_activatable() {
        let b = Bank::new();
        assert_eq!(b.amps(), SenseAmps::Closed);
        assert_eq!(b.earliest_activate(&t()), 0);
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn act_opens_row_and_gates_col_by_trcd_plus_one() {
        let mut b = Bank::new();
        b.record_activate(100, 7, &t());
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.earliest_col(), 100 + 11 + 1);
    }

    #[test]
    fn col_packets_serialize_per_bank() {
        let mut b = Bank::new();
        b.record_activate(0, 0, &t());
        b.record_col(Interval::with_len(20, 4));
        assert_eq!(b.earliest_col(), 24);
    }

    #[test]
    fn precharge_respects_tras_and_tcpol() {
        let mut b = Bank::new();
        b.record_activate(10, 0, &t());
        // No COL yet: bounded by tRAS alone.
        assert_eq!(b.earliest_precharge(&t()), 10 + 8);
        // A COL packet ending at 40 allows PRER from 39 (1 cycle overlap).
        b.record_col(Interval::with_len(36, 4));
        assert_eq!(b.earliest_precharge(&t()), 39);
    }

    #[test]
    fn precharge_closes_and_gates_next_act_by_trp_and_trc() {
        let mut b = Bank::new();
        b.record_activate(10, 0, &t());
        b.record_precharge(20, &t());
        assert_eq!(b.amps(), SenseAmps::Closed);
        // tRP bound: 20 + 10 = 30; tRC bound: 10 + 34 = 44. tRC dominates.
        assert_eq!(b.earliest_activate(&t()), 44);
    }

    #[test]
    fn reactivation_resets_col_gate() {
        let mut b = Bank::new();
        b.record_activate(0, 0, &t());
        b.record_col(Interval::with_len(12, 4));
        b.record_precharge(20, &t());
        b.record_activate(44, 3, &t());
        assert_eq!(b.open_row(), Some(3));
        assert_eq!(b.earliest_col(), 44 + 12);
    }
}
