//! Pluggable arbitration: which eligible tenant gets the SMC next.
//!
//! Arbitration is deliberately orthogonal to the MSU's intra-computation
//! access ordering — the MSU decides *how* a request's streams hit the
//! banks, the arbiter only decides *whose* request runs next on the
//! serially-owned controller. All policies implement one trait so they
//! can be swapped by name from the CLI and the campaign axes.
//!
//! Every policy sees only [`ArbiterView`]: the eligible queue heads plus
//! regulator token levels and the previously served tenant. Policies must
//! pick from the eligible set (the server re-checks), are pure integer
//! code, and never panic. No policy arbitrates by bank: the server runs
//! each request alone to completion, so there is no live bank state to
//! choose by.

use crate::tenant::Cycle;

/// Snapshot of one tenant's queue head, as the arbiter sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueView {
    /// Tenant id.
    pub tenant: usize,
    /// True when this tenant may be dispatched now (non-empty queue and
    /// regulator approval).
    pub eligible: bool,
    /// Arrival cycle of the queue head (meaningful when eligible).
    pub head_submitted_at: Cycle,
    /// Absolute deadline of the queue head (meaningful when eligible).
    pub head_deadline_at: Cycle,
    /// Tenant token-bucket level (may be negative while in debt).
    pub tokens: i64,
}

/// Everything a policy may consult when selecting the next tenant.
#[derive(Debug, Clone)]
pub struct ArbiterView<'a> {
    /// Tenant served by the previous dispatch, if any.
    pub last_served: Option<usize>,
    /// One entry per tenant, indexed by tenant id.
    pub queues: &'a [QueueView],
}

impl ArbiterView<'_> {
    fn eligible(&self) -> impl Iterator<Item = &QueueView> {
        self.queues.iter().filter(|q| q.eligible)
    }
}

/// An arbitration policy: picks the next tenant to dispatch.
pub trait ArbitrationPolicy {
    /// Stable policy name (CLI/campaign value).
    fn name(&self) -> &'static str;

    /// Tenant id to dispatch next, or `None` when nothing is eligible.
    fn select(&mut self, view: &ArbiterView<'_>) -> Option<usize>;
}

/// First-come first-served over queue-head arrival times; ties break on
/// the lower tenant id.
#[derive(Debug, Default, Clone)]
pub struct Fcfs;

impl ArbitrationPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn select(&mut self, view: &ArbiterView<'_>) -> Option<usize> {
        view.eligible()
            .min_by_key(|q| (q.head_submitted_at, q.tenant))
            .map(|q| q.tenant)
    }
}

/// Strict round-robin: scan upward from the previously served tenant.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin;

impl ArbitrationPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn select(&mut self, view: &ArbiterView<'_>) -> Option<usize> {
        let n = view.queues.len();
        if n == 0 {
            return None;
        }
        let start = view.last_served.map_or(0, |t| (t + 1) % n);
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&t| view.queues.get(t).is_some_and(|q| q.eligible))
    }
}

/// Budget-weighted: the eligible tenant with the most unspent tokens goes
/// first (keeps everyone near their configured share); ties break on the
/// earlier deadline, then the lower tenant id.
#[derive(Debug, Default, Clone)]
pub struct Regulated;

impl ArbitrationPolicy for Regulated {
    fn name(&self) -> &'static str {
        "regulated"
    }

    fn select(&mut self, view: &ArbiterView<'_>) -> Option<usize> {
        view.eligible()
            .max_by_key(|q| (q.tokens, std::cmp::Reverse((q.head_deadline_at, q.tenant))))
            .map(|q| q.tenant)
    }
}

/// Instantiate a policy by its stable name.
pub fn policy_by_name(name: &str) -> Result<Box<dyn ArbitrationPolicy>, String> {
    match name {
        "fcfs" => Ok(Box::new(Fcfs)),
        "rr" | "round-robin" => Ok(Box::new(RoundRobin)),
        "regulated" => Ok(Box::new(Regulated)),
        other => Err(format!(
            "unknown arbitration policy `{other}` (expected fcfs, rr, or regulated)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(tenant: usize, eligible: bool, at: Cycle, tokens: i64) -> QueueView {
        QueueView {
            tenant,
            eligible,
            head_submitted_at: at,
            head_deadline_at: at + 50,
            tokens,
        }
    }

    fn view(queues: &[QueueView], last: Option<usize>) -> ArbiterView<'_> {
        ArbiterView {
            last_served: last,
            queues,
        }
    }

    #[test]
    fn fcfs_picks_earliest_arrival_ties_on_id() {
        let qs = [q(0, true, 30, 10), q(1, true, 20, 10), q(2, true, 20, 99)];
        assert_eq!(Fcfs.select(&view(&qs, None)), Some(1));
        let none = [q(0, false, 1, 1)];
        assert_eq!(Fcfs.select(&view(&none, None)), None);
    }

    #[test]
    fn round_robin_rotates_past_the_last_served() {
        let qs = [q(0, true, 1, 0), q(1, true, 1, 0), q(2, true, 1, 0)];
        assert_eq!(RoundRobin.select(&view(&qs, None)), Some(0));
        assert_eq!(RoundRobin.select(&view(&qs, Some(0))), Some(1));
        assert_eq!(RoundRobin.select(&view(&qs, Some(2))), Some(0));
        let qs = [q(0, true, 1, 0), q(1, false, 1, 0), q(2, true, 1, 0)];
        assert_eq!(RoundRobin.select(&view(&qs, Some(0))), Some(2));
        assert_eq!(RoundRobin.select(&view(&[], None)), None);
    }

    #[test]
    fn regulated_prefers_tokens_then_deadline() {
        let qs = [q(0, true, 10, 5), q(1, true, 20, 50)];
        assert_eq!(Regulated.select(&view(&qs, None)), Some(1));
        // Equal tokens: earlier deadline (earlier arrival here) wins.
        let qs = [q(0, true, 30, 7), q(1, true, 10, 7)];
        assert_eq!(Regulated.select(&view(&qs, None)), Some(1));
    }

    #[test]
    fn policies_resolve_by_name() {
        for name in ["fcfs", "rr", "round-robin", "regulated"] {
            assert!(policy_by_name(name).is_ok(), "{name}");
        }
        // No policy can see a bank, so none is offered under that name.
        for name in ["lifo", "bank-aware"] {
            assert!(policy_by_name(name).is_err(), "{name}");
        }
    }
}
