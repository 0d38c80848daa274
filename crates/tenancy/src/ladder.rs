//! The graceful-degradation ladder: overload turns into throttling and
//! shedding in a fixed, class-ordered sequence.
//!
//! The ladder maps an [`OverloadSignal`] (queue fill, deadline-miss
//! streaks, active fault storms) onto a [`DegradeLevel`]. Escalation is
//! immediate; de-escalation requires the signal to stay below the level's
//! trigger for a configured number of consecutive observations
//! (hysteresis), so the system does not flap between shedding and
//! admitting under a sawtooth load.
//!
//! The class ordering is the ladder's contract and is what the property
//! suite checks: bandwidth-hungry tenants are throttled at
//! [`DegradeLevel::Throttle`] and shed at [`DegradeLevel::Shed`], while
//! latency-sensitive tenants keep full service until
//! [`DegradeLevel::Critical`] — a latency-sensitive request is never shed
//! at a cycle where bandwidth-hungry requests were still being admitted.

use crate::tenant::{Cycle, TenantClass};

/// Rung of the degradation ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Full service for every class.
    Normal,
    /// Bandwidth-hungry refills scaled down; everything still admitted.
    Throttle,
    /// Bandwidth-hungry arrivals shed; latency-sensitive service intact.
    Shed,
    /// Latency-sensitive arrivals shed too; the system protects itself.
    Critical,
}

impl DegradeLevel {
    /// Stable label for reports and goldens.
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::Throttle => "throttle",
            DegradeLevel::Shed => "shed",
            DegradeLevel::Critical => "critical",
        }
    }

    /// Refill scale (permille) the regulator should apply to
    /// bandwidth-hungry tenant buckets at this level.
    pub fn bh_throttle_permille(self) -> u64 {
        match self {
            DegradeLevel::Normal => 1000,
            DegradeLevel::Throttle => 500,
            DegradeLevel::Shed => 250,
            DegradeLevel::Critical => 125,
        }
    }

    /// Whether an arriving request of `class` is shed at this level.
    pub fn sheds(self, class: TenantClass) -> bool {
        match class {
            TenantClass::BandwidthHungry => self >= DegradeLevel::Shed,
            TenantClass::LatencySensitive => self >= DegradeLevel::Critical,
        }
    }
}

/// Instantaneous overload evidence the ladder reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadSignal {
    /// Aggregate admission-queue fill, in permille of total capacity.
    pub queue_fill_permille: u64,
    /// Consecutive completed requests that missed their deadline.
    pub miss_streak: u64,
    /// True while the executor is reporting injected faults (NACKs,
    /// stalls) — a fault storm escalates one rung sooner.
    pub fault_active: bool,
}

/// Ladder thresholds and hysteresis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderConfig {
    /// Queue fill (permille) at which throttling begins.
    pub throttle_fill_permille: u64,
    /// Queue fill (permille) at which bandwidth-hungry shedding begins.
    pub shed_fill_permille: u64,
    /// Queue fill (permille) at which latency-sensitive shedding begins.
    pub critical_fill_permille: u64,
    /// Deadline-miss streak that forces at least [`DegradeLevel::Shed`].
    pub shed_miss_streak: u64,
    /// Consecutive calm observations required to step down one rung.
    pub cool_observations: u64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            throttle_fill_permille: 500,
            shed_fill_permille: 750,
            critical_fill_permille: 950,
            shed_miss_streak: 8,
            cool_observations: 4,
        }
    }
}

/// One recorded ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderTransition {
    /// Cycle of the transition.
    pub now: Cycle,
    /// Level entered.
    pub to: DegradeLevel,
}

/// The degradation ladder state machine.
#[derive(Debug, Clone)]
pub struct Ladder {
    cfg: LadderConfig,
    level: DegradeLevel,
    calm: u64,
    transitions: Vec<LadderTransition>,
}

impl Ladder {
    /// A ladder starting at [`DegradeLevel::Normal`].
    pub fn new(cfg: LadderConfig) -> Self {
        Self {
            cfg,
            level: DegradeLevel::Normal,
            calm: 0,
            transitions: Vec::new(),
        }
    }

    /// Current level.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// Recorded transitions, in time order.
    pub fn transitions(&self) -> &[LadderTransition] {
        &self.transitions
    }

    /// The level `signal` calls for, ignoring hysteresis.
    fn target(&self, signal: &OverloadSignal) -> DegradeLevel {
        let fill = signal.queue_fill_permille;
        let mut level = if fill >= self.cfg.critical_fill_permille {
            DegradeLevel::Critical
        } else if fill >= self.cfg.shed_fill_permille {
            DegradeLevel::Shed
        } else if fill >= self.cfg.throttle_fill_permille {
            DegradeLevel::Throttle
        } else {
            DegradeLevel::Normal
        };
        if signal.miss_streak >= self.cfg.shed_miss_streak {
            level = level.max(DegradeLevel::Shed);
        }
        // A fault storm escalates one rung: slack that would be spent on
        // retries is reclaimed from bandwidth-hungry tenants first.
        if signal.fault_active {
            level = level.max(match level {
                DegradeLevel::Normal => DegradeLevel::Throttle,
                DegradeLevel::Throttle => DegradeLevel::Shed,
                other @ (DegradeLevel::Shed | DegradeLevel::Critical) => other,
            });
        }
        level
    }

    /// Feed one observation; returns the (possibly new) level.
    /// Escalation is immediate, de-escalation one rung at a time after
    /// `cool_observations` consecutive calm readings.
    pub fn observe(&mut self, now: Cycle, signal: &OverloadSignal) -> DegradeLevel {
        let target = self.target(signal);
        if target > self.level {
            self.level = target;
            self.calm = 0;
            self.transitions.push(LadderTransition { now, to: target });
        } else if target < self.level {
            self.calm += 1;
            if self.calm >= self.cfg.cool_observations {
                self.level = match self.level {
                    DegradeLevel::Critical => DegradeLevel::Shed,
                    DegradeLevel::Shed => DegradeLevel::Throttle,
                    DegradeLevel::Throttle | DegradeLevel::Normal => DegradeLevel::Normal,
                };
                self.calm = 0;
                self.transitions.push(LadderTransition {
                    now,
                    to: self.level,
                });
            }
        } else {
            self.calm = 0;
        }
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> OverloadSignal {
        OverloadSignal::default()
    }

    fn fill(p: u64) -> OverloadSignal {
        OverloadSignal {
            queue_fill_permille: p,
            ..OverloadSignal::default()
        }
    }

    #[test]
    fn escalates_immediately_with_fill() {
        let mut l = Ladder::new(LadderConfig::default());
        assert_eq!(l.observe(10, &fill(400)), DegradeLevel::Normal);
        assert_eq!(l.observe(20, &fill(600)), DegradeLevel::Throttle);
        assert_eq!(l.observe(30, &fill(990)), DegradeLevel::Critical);
        assert_eq!(l.transitions().len(), 2);
    }

    #[test]
    fn deescalates_one_rung_after_cooling() {
        let mut l = Ladder::new(LadderConfig::default());
        l.observe(0, &fill(990));
        assert_eq!(l.level(), DegradeLevel::Critical);
        for i in 0..3 {
            assert_eq!(l.observe(10 + i, &calm()), DegradeLevel::Critical);
        }
        assert_eq!(l.observe(20, &calm()), DegradeLevel::Shed);
        // The calm counter resets after each step down.
        for i in 0..3 {
            assert_eq!(l.observe(30 + i, &calm()), DegradeLevel::Shed);
        }
        assert_eq!(l.observe(40, &calm()), DegradeLevel::Throttle);
    }

    #[test]
    fn renewed_pressure_resets_the_cooldown() {
        let mut l = Ladder::new(LadderConfig::default());
        l.observe(0, &fill(800));
        assert_eq!(l.level(), DegradeLevel::Shed);
        l.observe(1, &calm());
        l.observe(2, &calm());
        l.observe(3, &fill(800)); // target == level: calm resets
        l.observe(4, &calm());
        l.observe(5, &calm());
        l.observe(6, &calm());
        assert_eq!(l.level(), DegradeLevel::Shed);
        l.observe(7, &calm());
        assert_eq!(l.level(), DegradeLevel::Throttle);
    }

    #[test]
    fn miss_streak_and_faults_escalate() {
        let mut l = Ladder::new(LadderConfig::default());
        let s = OverloadSignal {
            queue_fill_permille: 0,
            miss_streak: 8,
            fault_active: false,
        };
        assert_eq!(l.observe(0, &s), DegradeLevel::Shed);

        let mut l = Ladder::new(LadderConfig::default());
        let s = OverloadSignal {
            fault_active: true,
            ..OverloadSignal::default()
        };
        assert_eq!(l.observe(0, &s), DegradeLevel::Throttle);
        let s = OverloadSignal {
            queue_fill_permille: 600,
            fault_active: true,
            ..OverloadSignal::default()
        };
        assert_eq!(l.observe(1, &s), DegradeLevel::Shed);
    }

    #[test]
    fn shed_ordering_is_monotone_by_class() {
        // At every level, if latency-sensitive is shed then so is
        // bandwidth-hungry: the ladder can never prefer BH over LS.
        for level in [
            DegradeLevel::Normal,
            DegradeLevel::Throttle,
            DegradeLevel::Shed,
            DegradeLevel::Critical,
        ] {
            if level.sheds(TenantClass::LatencySensitive) {
                assert!(level.sheds(TenantClass::BandwidthHungry));
            }
            assert!(level.bh_throttle_permille() >= 125);
        }
        assert!(!DegradeLevel::Shed.sheds(TenantClass::LatencySensitive));
        assert!(DegradeLevel::Shed.sheds(TenantClass::BandwidthHungry));
    }
}
