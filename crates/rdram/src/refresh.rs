//! DRAM refresh scheduling.
//!
//! The paper's models ignore refresh ("refresh delays … are ignored, since
//! they can be overlapped with accesses to other banks"), which is accurate
//! to within a percent or two: a 64 Mbit Direct RDRAM refreshes each of its
//! rows once per 64 ms window, and a refresh is just an ACT/PRER pair the
//! controller interleaves with regular traffic. This module provides the
//! bookkeeping a controller needs to honour that obligation, so the claim
//! can be *measured* instead of assumed (see the refresh ablation).

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use serde::{Deserialize, Serialize};

use crate::{Command, CommandPort, Cycle, DeviceConfig, ProtocolError};

/// Tracks when rows fall due for refresh and walks banks/rows round-robin.
///
/// With the default 64 ms retention window, a device with `rows x banks`
/// rows must issue one refresh every `64 ms / (rows x banks)`; at 400 MHz
/// and the default geometry that is one refresh about every 3125 cycles.
///
/// ```
/// use rdram::{refresh::RefreshTimer, DeviceConfig};
///
/// let cfg = DeviceConfig::default();
/// let mut timer = RefreshTimer::new(&cfg);
/// assert!(!timer.due(0));
/// let interval = timer.interval();
/// assert!(timer.due(interval));
/// let (bank, row) = timer.take(interval);
/// assert_eq!((bank, row), (0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RefreshTimer {
    interval: Cycle,
    next_due: Cycle,
    bank: usize,
    row: u64,
    banks: usize,
    rows: u64,
    issued: u64,
}

/// 64 ms retention window in interface-clock cycles (2.5 ns each).
pub const RETENTION_CYCLES: Cycle = 25_600_000;

impl RefreshTimer {
    /// A timer for the given device geometry, spreading the retention
    /// window evenly over all rows of the channel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &DeviceConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "an invalid DeviceConfig is a programming error at system assembly time, caught before any simulation starts"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid device configuration: {e}");
        }
        let total_rows = (cfg.total_banks() as u64).saturating_mul(cfg.rows_per_bank);
        let interval = RETENTION_CYCLES.checked_div(total_rows).unwrap_or(1).max(1);
        RefreshTimer {
            interval,
            next_due: interval,
            bank: 0,
            row: 0,
            banks: cfg.total_banks(),
            rows: cfg.rows_per_bank,
            issued: 0,
        }
    }

    /// Cycles between successive refresh obligations.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Whether a refresh is due at `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_due
    }

    /// The first cycle at which [`due`](Self::due) holds.
    pub fn next_due(&self) -> Cycle {
        self.next_due
    }

    /// Refreshes performed so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The (bank, row) the next refresh will target, without claiming it.
    pub fn peek(&self) -> (usize, u64) {
        (self.bank, self.row)
    }

    /// Claim the due refresh, returning the (bank, row) to refresh and
    /// scheduling the next obligation. Banks rotate fastest so consecutive
    /// refreshes land on different banks and overlap with other traffic.
    ///
    /// # Panics
    ///
    /// Panics if no refresh is due (check [`due`](Self::due) first).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "bank and row wrap below banks and rows, non-zero by validation; next_due and issued advance once per refresh, bounded by the run length"
    )]
    pub fn take(&mut self, now: Cycle) -> (usize, u64) {
        assert!(self.due(now), "no refresh due at cycle {now}");
        let target = (self.bank, self.row);
        self.bank += 1;
        if self.bank == self.banks {
            self.bank = 0;
            self.row = (self.row + 1) % self.rows;
        }
        self.next_due += self.interval;
        self.issued += 1;
        target
    }

    /// Perform the due refresh on `dev` as an ACT/PRER pair, starting no
    /// earlier than `now`. Returns the cycle after which the bank is usable
    /// again. The bank must be closed (the controller precharges it first
    /// if its page is open).
    ///
    /// `dev` is anything implementing [`CommandPort`] — a single
    /// [`Rdram`](crate::Rdram) device or a multi-channel aggregate whose
    /// bank space this timer was built over.
    ///
    /// # Errors
    ///
    /// Propagates the device's [`ProtocolError`] if the bank is busy in a
    /// way that makes the ACT illegal (e.g. open sense amps).
    pub fn refresh_now<D: CommandPort>(
        &mut self,
        dev: &mut D,
        now: Cycle,
    ) -> Result<Cycle, ProtocolError> {
        let (bank, row) = self.take(now);
        if dev.open_row(bank).is_some() {
            let pre = Command::precharge(bank);
            let t = dev.earliest(&pre, now);
            dev.issue_at(&pre, t)?;
        }
        let act = Command::activate(bank, row);
        let t = dev.earliest(&act, now);
        dev.issue_at(&act, t)?;
        let pre = Command::precharge(bank);
        let t2 = dev.earliest(&pre, t);
        dev.issue_at(&pre, t2)?;
        Ok(t2.saturating_add(dev.timing().t_rp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rdram;

    #[test]
    fn interval_spreads_retention_over_all_rows() {
        let cfg = DeviceConfig::default();
        let t = RefreshTimer::new(&cfg);
        // 8 banks x 1024 rows = 8192 rows over 25.6M cycles.
        assert_eq!(t.interval(), RETENTION_CYCLES / 8192);
    }

    #[test]
    fn banks_rotate_fastest() {
        let cfg = DeviceConfig::default();
        let mut t = RefreshTimer::new(&cfg);
        let mut now = t.interval();
        let mut seen = Vec::new();
        for _ in 0..9 {
            seen.push(t.take(now));
            now += t.interval();
        }
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[7], (7, 0));
        assert_eq!(seen[8], (0, 1));
        assert_eq!(t.issued(), 9);
    }

    #[test]
    fn refresh_now_cycles_a_closed_bank() {
        let cfg = DeviceConfig::default();
        let mut dev = Rdram::new(cfg.clone());
        let mut t = RefreshTimer::new(&cfg);
        let now = t.interval();
        let done = t.refresh_now(&mut dev, now).unwrap();
        // ACT at `now`, PRER tRAS later, ready tRP after that.
        assert_eq!(done, now + 8 + 10);
        assert_eq!(dev.stats().activates, 1);
        assert_eq!(dev.stats().precharges, 1);
    }

    #[test]
    fn refresh_now_closes_an_open_bank_first() {
        let cfg = DeviceConfig::default();
        let mut dev = Rdram::new(cfg.clone());
        let act = Command::activate(0, 5);
        dev.issue_at(&act, 0).unwrap();
        let mut t = RefreshTimer::new(&cfg);
        let now = t.interval();
        let _ = t.refresh_now(&mut dev, now).unwrap();
        assert_eq!(dev.stats().precharges, 2);
        assert_eq!(dev.open_row(0), None);
    }

    #[test]
    #[should_panic(expected = "no refresh due")]
    fn take_requires_due() {
        let cfg = DeviceConfig::default();
        let mut t = RefreshTimer::new(&cfg);
        let _ = t.take(0);
    }
}
