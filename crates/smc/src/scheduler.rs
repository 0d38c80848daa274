//! MSU scheduling policies: which FIFO to service next.
//!
//! The paper's MSU "considers each FIFO in turn, performing as many accesses
//! as possible for the current FIFO before moving on" — [`RoundRobin`]. That
//! simplicity is also its weakness: the MSU cannot exploit the RDRAM's
//! independent banks when the current FIFO's bank is busy, and it pays
//! precharge/activate overheads at every page crossing. [`BankAware`]
//! implements the refinement studied in Hong's thesis: prefer a ready FIFO
//! whose next access hits an open page over one that needs a row cycle.

use rdram::{AccessPlan, Location};

use serde::{Deserialize, Serialize};

/// What the scheduler may inspect about one FIFO when choosing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoCandidate {
    /// FIFO index (stream program order).
    pub index: usize,
    /// Whether the FIFO can perform its next access right now.
    pub ready: bool,
    /// Where the FIFO's next access lands, if it has one.
    pub next_loc: Option<Location>,
    /// The ROW work that access would require, given current bank state.
    /// Set only for a ready FIFO: no policy weighs one it cannot select.
    pub plan: Option<AccessPlan>,
}

/// Scheduler input: the state of every FIFO plus the current service point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceView<'a> {
    /// FIFO currently being serviced, if any.
    pub current: Option<usize>,
    /// One candidate per FIFO, in stream order.
    pub fifos: &'a [FifoCandidate],
}

/// A FIFO-selection policy for the Memory Scheduling Unit.
///
/// Implementations must only return the index of a `ready` candidate, or
/// `None` when no FIFO is ready (the MSU idles for a cycle).
pub trait SchedulingPolicy: std::fmt::Debug + Send {
    /// Choose the FIFO to service next.
    fn select(&mut self, view: &ServiceView<'_>) -> Option<usize>;
}

/// The paper's policy: stay on the current FIFO while it can accept
/// accesses; otherwise advance cyclically to the next ready FIFO.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl SchedulingPolicy for RoundRobin {
    fn select(&mut self, view: &ServiceView<'_>) -> Option<usize> {
        let n = view.fifos.len();
        if let Some(c) = view.current {
            if view.fifos[c].ready {
                return Some(c);
            }
        }
        let start = view.current.map_or(0, |c| (c + 1) % n);
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| view.fifos[i].ready)
    }
}

/// Bank-aware selection (after Hong's thesis, Chapter 5): service the
/// current FIFO for as long as it can accept accesses — exactly like
/// [`RoundRobin`] — but when it *must* switch, pick the ready FIFO whose
/// next access needs the least ROW work: a page hit beats an activate,
/// which beats a precharge-then-activate (a bank conflict). Ties are broken
/// in circular order from the current FIFO.
///
/// Keeping the burst-service behaviour matters: a policy that preempts the
/// current FIFO for any page hit elsewhere bounces between read and write
/// FIFOs and pays a bus-turnaround (`tRW`) at each bounce, losing more than
/// the avoided row cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankAware;

fn row_work(plan: Option<AccessPlan>) -> u32 {
    match plan {
        Some(p) if p.is_page_hit() => 0,
        Some(p) if !p.needs_precharge => 1,
        Some(_) => 2,
        None => u32::MAX,
    }
}

impl SchedulingPolicy for BankAware {
    fn select(&mut self, view: &ServiceView<'_>) -> Option<usize> {
        let n = view.fifos.len();
        if let Some(c) = view.current {
            if view.fifos[c].ready {
                return Some(c);
            }
        }
        // Switch point: choose the cheapest ready candidate.
        let start = view.current.map_or(0, |c| (c + 1) % n);
        let mut best: Option<(u32, usize)> = None;
        for k in 0..n {
            let i = (start + k) % n;
            let f = &view.fifos[i];
            if !f.ready {
                continue;
            }
            let cost = row_work(f.plan);
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Serializable policy identifier, used in experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Policy {
    /// [`RoundRobin`] — the paper's scheduler.
    #[default]
    RoundRobin,
    /// [`BankAware`] — Hong's bank-conflict-avoiding refinement.
    BankAware,
}

impl Policy {
    /// Instantiate the scheduling policy.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            Policy::RoundRobin => Box::new(RoundRobin),
            Policy::BankAware => Box::new(BankAware),
        }
    }

    /// Short human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::BankAware => "bank-aware",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, ready: bool, plan: Option<AccessPlan>) -> FifoCandidate {
        FifoCandidate {
            index,
            ready,
            next_loc: Some(Location {
                bank: index,
                row: 0,
                col: 0,
            }),
            plan,
        }
    }

    const HIT: AccessPlan = AccessPlan {
        needs_precharge: false,
        needs_activate: false,
    };
    const MISS: AccessPlan = AccessPlan {
        needs_precharge: false,
        needs_activate: true,
    };
    const CONFLICT: AccessPlan = AccessPlan {
        needs_precharge: true,
        needs_activate: true,
    };

    #[test]
    fn round_robin_sticks_with_ready_current() {
        let fifos = [cand(0, true, Some(HIT)), cand(1, true, Some(HIT))];
        let mut p = RoundRobin;
        let view = ServiceView {
            current: Some(1),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), Some(1));
    }

    #[test]
    fn round_robin_advances_cyclically() {
        let fifos = [
            cand(0, true, Some(HIT)),
            cand(1, false, None),
            cand(2, false, None),
        ];
        let mut p = RoundRobin;
        let view = ServiceView {
            current: Some(1),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), Some(0)); // wraps 2 -> 0
    }

    #[test]
    fn round_robin_starts_at_zero_without_current() {
        let fifos = [cand(0, false, None), cand(1, true, Some(MISS))];
        let mut p = RoundRobin;
        let view = ServiceView {
            current: None,
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), Some(1));
    }

    #[test]
    fn round_robin_idles_when_nothing_ready() {
        let fifos = [cand(0, false, None), cand(1, false, None)];
        let mut p = RoundRobin;
        let view = ServiceView {
            current: Some(0),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), None);
    }

    #[test]
    fn bank_aware_prefers_page_hits_at_switch_points() {
        // Current FIFO 0 is exhausted; among the others, the page hit wins
        // even though FIFO 1 comes first in circular order.
        let fifos = [
            cand(0, false, None),
            cand(1, true, Some(CONFLICT)),
            cand(2, true, Some(HIT)),
            cand(3, true, Some(MISS)),
        ];
        let mut p = BankAware;
        let view = ServiceView {
            current: Some(0),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), Some(2));
    }

    #[test]
    fn bank_aware_retains_burst_service() {
        // A ready current FIFO is never preempted, even when it conflicts
        // and a hit exists elsewhere — preemption would cost a bus
        // turnaround per bounce.
        let fifos = [cand(0, true, Some(CONFLICT)), cand(1, true, Some(HIT))];
        let mut p = BankAware;
        let view = ServiceView {
            current: Some(0),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), Some(0));
    }

    #[test]
    fn bank_aware_breaks_ties_in_circular_order() {
        let fifos = [
            cand(0, true, Some(MISS)),
            cand(1, false, None),
            cand(2, true, Some(MISS)),
        ];
        let mut p = BankAware;
        let view = ServiceView {
            current: Some(1),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), Some(2));
    }

    #[test]
    fn bank_aware_idles_when_nothing_ready() {
        let fifos = [cand(0, false, None), cand(1, false, None)];
        let mut p = BankAware;
        let view = ServiceView {
            current: Some(0),
            fifos: &fifos,
        };
        assert_eq!(p.select(&view), None);
    }

    #[test]
    fn policy_enum_builds_and_names() {
        assert_eq!(Policy::RoundRobin.name(), "round-robin");
        assert_eq!(Policy::BankAware.name(), "bank-aware");
        let _ = Policy::RoundRobin.build();
        let _ = Policy::BankAware.build();
        assert_eq!(Policy::default(), Policy::RoundRobin);
    }
}
