//! The injector: a fault plan bound to a seed, answering per-cycle queries.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use rdram::Cycle;

use crate::{FaultClause, FaultPlan};

/// Iteration bound for the busy-window fixpoint in [`FaultInjector::free_at`].
/// Overlapping periodic windows converge in a handful of jumps; hitting the
/// bound means the windows tile (almost) all of time, which we report as
/// "never free" — the controllers' watchdogs then turn starvation into a
/// structured livelock error instead of a hang.
const FIXPOINT_BOUND: u32 = 10_000;

/// A [`FaultPlan`] bound to a seed.
///
/// Every query is a pure function of the plan, the seed, and the query
/// arguments, so a `(plan, seed)` pair replays identically.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    clauses: Vec<FaultClause>,
    seed: u64,
}

impl FaultInjector {
    /// Bind `plan` to `seed`.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        FaultInjector {
            clauses: plan.clauses.clone(),
            seed,
        }
    }

    /// An injector that injects nothing.
    pub fn inert() -> Self {
        FaultInjector::default()
    }

    /// Whether the injector has no clauses at all.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The bound seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the controller is fault-stalled (must not issue commands)
    /// at `now`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "every period is at least 1: the spec parser rejects zero and the seeded generators start at 64"
    )]
    pub fn stalled(&self, now: Cycle) -> bool {
        self.clauses.iter().any(|c| match *c {
            FaultClause::Stall { period, len } => now % period < len,
            FaultClause::BankBusy { .. }
            | FaultClause::DataNack { .. }
            | FaultClause::RefreshStorm { .. }
            | FaultClause::ChannelBrownout { .. }
            | FaultClause::ChannelOutage { .. }
            | FaultClause::DeviceFail { .. } => false,
        })
    }

    /// The first cycle at or after `from` at which the controller is
    /// [`stalled`](Self::stalled), or `None` when no clause ever stalls
    /// it.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "every period is at least 1: the spec parser rejects zero and the seeded generators start at 64, and period - phase is positive because phase < period"
    )]
    pub fn next_stall(&self, from: Cycle) -> Option<Cycle> {
        self.clauses
            .iter()
            .filter_map(|c| match *c {
                FaultClause::Stall { period, len } if len > 0 => {
                    let phase = from % period;
                    Some(if phase < len {
                        from
                    } else {
                        from.saturating_add(period - phase)
                    })
                }
                FaultClause::BankBusy { .. }
                | FaultClause::DataNack { .. }
                | FaultClause::RefreshStorm { .. }
                | FaultClause::Stall { .. }
                | FaultClause::ChannelBrownout { .. }
                | FaultClause::ChannelOutage { .. }
                | FaultClause::DeviceFail { .. } => None,
            })
            .min()
    }

    /// Whether the DATA packet of an access to `bank`, whose transfer ends
    /// at `data_end`, is NACKed on retry number `attempt` (0 = first try).
    ///
    /// Keyed on the transfer-end cycle so a retried access (different end
    /// cycle, different attempt number) re-rolls independently.
    pub fn nack_data(&self, bank: usize, data_end: Cycle, attempt: u32) -> bool {
        self.clauses.iter().any(|c| match *c {
            FaultClause::DataNack { permille, .. } => {
                let roll = mix(self.seed, bank as u64, data_end, u64::from(attempt)) % 1000;
                roll < u64::from(permille)
            }
            FaultClause::BankBusy { .. }
            | FaultClause::RefreshStorm { .. }
            | FaultClause::Stall { .. }
            | FaultClause::ChannelBrownout { .. }
            | FaultClause::ChannelOutage { .. }
            | FaultClause::DeviceFail { .. } => false,
        })
    }

    /// The largest retry budget any NACK clause grants (0 when no NACK
    /// clause is present).
    pub fn nack_retry_limit(&self) -> u32 {
        self.clauses
            .iter()
            .filter_map(|c| match *c {
                FaultClause::DataNack { max_retries, .. } => Some(max_retries),
                FaultClause::BankBusy { .. }
                | FaultClause::RefreshStorm { .. }
                | FaultClause::Stall { .. }
                | FaultClause::ChannelBrownout { .. }
                | FaultClause::ChannelOutage { .. }
                | FaultClause::DeviceFail { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether any busy/storm clause covers `bank` at cycle `t`.
    pub fn bank_busy(&self, bank: usize, t: Cycle) -> bool {
        self.clauses
            .iter()
            .any(|c| busy_window_end(c, bank, t).is_some())
    }

    /// Whether the injector carries any channel-scoped clause (the
    /// memory-system chaos path is a no-op otherwise).
    pub fn has_channel_faults(&self) -> bool {
        self.clauses.iter().any(FaultClause::is_channel_scoped)
    }

    /// The outage window `(from, end)` covering `channel` at cycle `t`,
    /// if any. A command launched at `t` inside the window is deferred to
    /// `end`; overlapping outages report the furthest end.
    pub fn outage_window(&self, channel: usize, t: Cycle) -> Option<(Cycle, Cycle)> {
        let mut hit: Option<(Cycle, Cycle)> = None;
        for c in &self.clauses {
            if let FaultClause::ChannelOutage {
                channel: ch,
                from,
                len,
            } = *c
            {
                let end = from.saturating_add(len);
                if ch == channel && (from..end).contains(&t) {
                    hit = Some(match hit {
                        Some((f, e)) => (f.min(from), e.max(end)),
                        None => (from, end),
                    });
                }
            }
        }
        hit
    }

    /// The brownout cycle-cost multiplier for `channel` at cycle `t`
    /// (1 = healthy; overlapping brownouts report the worst).
    pub fn channel_cost_mult(&self, channel: usize, t: Cycle) -> u64 {
        self.clauses
            .iter()
            .filter_map(|c| match *c {
                FaultClause::ChannelBrownout {
                    channel: ch,
                    from,
                    len,
                    mult,
                } => ((ch == channel) && (from..from.saturating_add(len)).contains(&t))
                    .then_some(mult),
                FaultClause::BankBusy { .. }
                | FaultClause::DataNack { .. }
                | FaultClause::RefreshStorm { .. }
                | FaultClause::Stall { .. }
                | FaultClause::ChannelOutage { .. }
                | FaultClause::DeviceFail { .. } => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// The degraded-mode cycle-cost multiplier for `device` on `channel`
    /// at cycle `t` (1 = healthy; a failed device stays degraded forever).
    pub fn device_cost_mult(&self, channel: usize, device: usize, t: Cycle) -> u64 {
        self.clauses
            .iter()
            .filter_map(|c| match *c {
                FaultClause::DeviceFail {
                    channel: ch,
                    device: dev,
                    from,
                    mult,
                } => (ch == channel && dev == device && t >= from).then_some(mult),
                FaultClause::BankBusy { .. }
                | FaultClause::DataNack { .. }
                | FaultClause::RefreshStorm { .. }
                | FaultClause::Stall { .. }
                | FaultClause::ChannelBrownout { .. }
                | FaultClause::ChannelOutage { .. } => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// The first cycle `>= t` at which `bank` is free of every busy and
    /// storm window.
    ///
    /// Monotone in `t` (`free_at(bank, a) <= free_at(bank, b)` for
    /// `a <= b`) and idempotent (`free_at(bank, free_at(bank, t)) ==
    /// free_at(bank, t)`). [`Cycle::MAX`] means "never": a permanently
    /// wedged bank, or windows that tile (almost) all of time. Schedulers
    /// that gate on it then starve, which the controllers' watchdogs turn
    /// into a livelock error.
    pub fn free_at(&self, bank: usize, mut t: Cycle) -> Cycle {
        if self.clauses.is_empty() {
            return t;
        }
        for _ in 0..FIXPOINT_BOUND {
            let mut moved = false;
            for c in &self.clauses {
                if let Some(end) = busy_window_end(c, bank, t) {
                    if end == Cycle::MAX {
                        return Cycle::MAX;
                    }
                    t = end;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
        Cycle::MAX
    }
}

/// If `clause` makes `bank` busy at `t`, the first cycle after the current
/// window ([`Cycle::MAX`] when the window never ends).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "every period is at least 1: the spec parser rejects zero and the seeded generators start at 64; len - phase is positive inside `then`, and t is a simulated cycle far below u64::MAX"
)]
fn busy_window_end(clause: &FaultClause, bank: usize, t: Cycle) -> Option<Cycle> {
    let (period, len) = match *clause {
        FaultClause::BankBusy {
            bank: b,
            period,
            len,
        } => {
            if b.is_some_and(|b| b != bank) {
                return None;
            }
            (period, len)
        }
        FaultClause::RefreshStorm { period, len } => (period, len),
        // Channel-scoped clauses are interpreted by the memory-system
        // router, not by per-device bank queries.
        FaultClause::DataNack { .. }
        | FaultClause::Stall { .. }
        | FaultClause::ChannelBrownout { .. }
        | FaultClause::ChannelOutage { .. }
        | FaultClause::DeviceFail { .. } => return None,
    };
    if len >= period {
        // The busy window covers the whole period: permanently busy.
        return Some(Cycle::MAX);
    }
    let phase = t % period;
    (phase < len).then(|| t + (len - phase))
}

/// Stateless splitmix64-style combine of the query coordinates.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(c.wrapping_mul(0x2545_f491_4f6c_dd1d));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(spec: &str) -> FaultInjector {
        FaultInjector::new(&FaultPlan::parse(spec).unwrap(), 42)
    }

    #[test]
    fn inert_injector_is_transparent() {
        let inj = FaultInjector::inert();
        assert!(inj.is_empty());
        for t in [0u64, 1, 99, 1 << 40] {
            assert_eq!(inj.free_at(0, t), t);
            assert!(!inj.stalled(t));
            assert!(!inj.nack_data(0, t, 0));
        }
        assert_eq!(inj.nack_retry_limit(), 0);
    }

    #[test]
    fn busy_windows_are_periodic_and_bank_scoped() {
        let inj = injector("busy:3:100:10");
        // Bank 3 is busy for cycles [0, 10) of each 100-cycle period.
        assert_eq!(inj.free_at(3, 0), 10);
        assert_eq!(inj.free_at(3, 9), 10);
        assert_eq!(inj.free_at(3, 10), 10);
        assert_eq!(inj.free_at(3, 99), 99);
        assert_eq!(inj.free_at(3, 205), 210);
        // Other banks are untouched.
        assert_eq!(inj.free_at(2, 0), 0);
        assert!(inj.bank_busy(3, 5) && !inj.bank_busy(2, 5));
    }

    #[test]
    fn wildcard_busy_and_storms_hit_every_bank() {
        for spec in ["busy:*:100:10", "storm:100:10"] {
            let inj = injector(spec);
            for bank in 0..8 {
                assert_eq!(inj.free_at(bank, 5), 10, "{spec} bank {bank}");
            }
        }
    }

    #[test]
    fn permanent_busy_reports_never_free() {
        let inj = injector("busy:0:1:1");
        assert_eq!(inj.free_at(0, 0), Cycle::MAX);
        assert_eq!(inj.free_at(0, 12345), Cycle::MAX);
        assert_eq!(inj.free_at(1, 12345), 12345);
    }

    #[test]
    fn overlapping_windows_converge_to_a_common_gap() {
        let inj = injector("busy:0:7:3;storm:11:4");
        for t in 0..2000u64 {
            let free = inj.free_at(0, t);
            assert!(free >= t);
            assert!(!inj.bank_busy(0, free), "free_at({t}) = {free} still busy");
            // Idempotent and monotone.
            assert_eq!(inj.free_at(0, free), free);
            assert!(inj.free_at(0, t + 1) >= free || free > t);
        }
    }

    #[test]
    fn stalls_follow_their_window() {
        let inj = injector("stall:50:5");
        for t in 0..200u64 {
            assert_eq!(inj.stalled(t), t % 50 < 5, "cycle {t}");
        }
        // Stalls do not make banks busy.
        assert_eq!(inj.free_at(0, 2), 2);
    }

    #[test]
    fn next_stall_is_the_first_stalled_cycle() {
        let inj = injector("stall:50:5;stall:70:3;busy:0:10:2");
        for t in 0..400u64 {
            let first = (t..).find(|&u| inj.stalled(u));
            assert_eq!(inj.next_stall(t), first, "from {t}");
        }
        assert_eq!(injector("busy:0:10:2").next_stall(7), None);
        assert_eq!(FaultInjector::inert().next_stall(0), None);
    }

    #[test]
    fn nack_rate_tracks_permille_and_is_deterministic() {
        let inj = injector("nack:250:3");
        assert_eq!(inj.nack_retry_limit(), 3);
        let hits = (0..4000u64)
            .filter(|&t| inj.nack_data(t as usize % 8, t * 4, 0))
            .count();
        // 25% +- 5% over 4000 rolls.
        assert!((800..=1200).contains(&hits), "hits = {hits}");
        // Same coordinates, same answer; different attempt re-rolls.
        assert_eq!(inj.nack_data(3, 400, 0), inj.nack_data(3, 400, 0));
        let varies = (0..100u32).any(|a| inj.nack_data(3, 400, a) != inj.nack_data(3, 400, 0));
        assert!(varies, "attempt number never changed the roll");
    }

    #[test]
    fn channel_queries_follow_their_windows() {
        let inj = injector("brownout:0:100:50:3;outage:1:40:20;devfail:0:2:80:4");
        assert!(inj.has_channel_faults());
        // Brownout multiplies only channel 0 inside [100, 150).
        assert_eq!(inj.channel_cost_mult(0, 99), 1);
        assert_eq!(inj.channel_cost_mult(0, 100), 3);
        assert_eq!(inj.channel_cost_mult(0, 149), 3);
        assert_eq!(inj.channel_cost_mult(0, 150), 1);
        assert_eq!(inj.channel_cost_mult(1, 120), 1);
        // Outage covers channel 1 over [40, 60) only.
        assert_eq!(inj.outage_window(1, 39), None);
        assert_eq!(inj.outage_window(1, 40), Some((40, 60)));
        assert_eq!(inj.outage_window(1, 59), Some((40, 60)));
        assert_eq!(inj.outage_window(1, 60), None);
        assert_eq!(inj.outage_window(0, 50), None);
        // Device 2 on channel 0 degrades permanently from cycle 80.
        assert_eq!(inj.device_cost_mult(0, 2, 79), 1);
        assert_eq!(inj.device_cost_mult(0, 2, 80), 4);
        assert_eq!(inj.device_cost_mult(0, 2, 1 << 40), 4);
        assert_eq!(inj.device_cost_mult(0, 1, 500), 1);
        assert_eq!(inj.device_cost_mult(1, 2, 500), 1);
        // Channel clauses never leak into per-device bank queries.
        for bank in 0..8 {
            for t in 0..200u64 {
                assert!(!inj.bank_busy(bank, t));
                assert_eq!(inj.free_at(bank, t), t);
            }
        }
        assert!(!inj.stalled(120));
    }

    #[test]
    fn overlapping_channel_windows_report_the_worst() {
        let inj = injector("brownout:0:0:100:2;brownout:0:50:100:5;outage:0:10:20;outage:0:20:30");
        assert_eq!(inj.channel_cost_mult(0, 25), 2);
        assert_eq!(inj.channel_cost_mult(0, 75), 5);
        assert_eq!(inj.channel_cost_mult(0, 120), 5);
        // Overlapping outages merge to the widest covering span.
        assert_eq!(inj.outage_window(0, 25), Some((10, 50)));
        assert_eq!(inj.outage_window(0, 5), None);
        assert!(!injector("busy:0:10:2").has_channel_faults());
    }

    #[test]
    fn different_seeds_give_different_timelines() {
        let plan = FaultPlan::parse("nack:100:2").unwrap();
        let a = FaultInjector::new(&plan, 1);
        let b = FaultInjector::new(&plan, 2);
        let differs = (0..1000u64).any(|t| a.nack_data(0, t, 0) != b.nack_data(0, t, 0));
        assert!(differs);
    }
}
