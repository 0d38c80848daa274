//! Bounded admission queues with explicit backpressure.
//!
//! Each tenant owns one bounded FIFO of admitted requests. Offering a
//! request either admits it or returns
//! [`Admission::Rejected`] with a `retry_after` hint — the queue never
//! grows without bound and never panics, which is the robustness contract
//! the overload property suite leans on. Shedding decisions (class-based
//! drops under degradation) are made by the server *before* offering;
//! the queue itself only enforces capacity.
//!
//! The waiting/running split over a swappable ordering policy follows the
//! scheduler shape used by production LLM servers (see SNIPPETS.md):
//! requests wait here, at most one runs on the serially-owned SMC, and
//! the arbitration policy decides who goes next.

use std::collections::VecDeque;

use crate::tenant::Cycle;

/// One admitted unit of work: tenant id plus a per-tenant sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Tenant id (index into the mix).
    pub tenant: usize,
    /// Per-tenant sequence number, starting at 0.
    pub seq: u64,
    /// Cycle the request arrived at the serving layer.
    pub submitted_at: Cycle,
    /// Absolute deadline (`submitted_at + tenant deadline`).
    pub deadline_at: Cycle,
}

/// Outcome of offering a request to a bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted at `position` (0 = head) in the tenant's queue.
    Admitted {
        /// Depth at which the request was enqueued.
        position: usize,
    },
    /// Backpressure: the queue is full. The client should retry no
    /// earlier than `retry_after` cycles from now.
    Rejected {
        /// Suggested back-off before retrying, in cycles.
        retry_after: Cycle,
    },
}

/// One tenant's bounded admission queue.
#[derive(Debug, Clone)]
pub struct TenantQueue {
    capacity: usize,
    queue: VecDeque<Request>,
}

impl TenantQueue {
    /// An empty queue holding at most `capacity` requests (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            queue: VecDeque::new(),
        }
    }

    /// Offer a request. `retry_hint` is the back-off returned on
    /// rejection (the server passes its estimate of one service time).
    pub fn offer(&mut self, req: Request, retry_hint: Cycle) -> Admission {
        if self.queue.len() >= self.capacity {
            return Admission::Rejected {
                retry_after: retry_hint.max(1),
            };
        }
        let position = self.queue.len();
        self.queue.push_back(req);
        Admission::Admitted { position }
    }

    /// The request that would be served next, if any.
    pub fn head(&self) -> Option<&Request> {
        self.queue.front()
    }

    /// Remove and return the head request.
    pub fn pop(&mut self) -> Option<Request> {
        self.queue.pop_front()
    }

    /// Drop every queued request (critical-level shedding); returns the
    /// dropped requests for accounting.
    pub fn drain(&mut self) -> Vec<Request> {
        self.queue.drain(..).collect()
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tenant: usize, seq: u64, at: Cycle) -> Request {
        Request {
            tenant,
            seq,
            submitted_at: at,
            deadline_at: at + 100,
        }
    }

    #[test]
    fn admits_up_to_capacity_then_rejects_with_backoff() {
        let mut q = TenantQueue::new(2);
        assert_eq!(
            q.offer(req(0, 0, 10), 64),
            Admission::Admitted { position: 0 }
        );
        assert_eq!(
            q.offer(req(0, 1, 11), 64),
            Admission::Admitted { position: 1 }
        );
        assert_eq!(
            q.offer(req(0, 2, 12), 64),
            Admission::Rejected { retry_after: 64 }
        );
        // The queue did not grow past capacity.
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = TenantQueue::new(4);
        q.offer(req(0, 0, 1), 1);
        q.offer(req(0, 1, 2), 1);
        assert_eq!(q.head().map(|r| r.seq), Some(0));
        assert_eq!(q.pop().map(|r| r.seq), Some(0));
        assert_eq!(q.pop().map(|r| r.seq), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_empties_and_reports_drops() {
        let mut q = TenantQueue::new(4);
        q.offer(req(0, 0, 1), 1);
        q.offer(req(0, 1, 2), 1);
        let dropped = q.drain();
        assert_eq!(dropped.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_and_backoff_is_never_zero() {
        let mut q = TenantQueue::new(0);
        assert_eq!(
            q.offer(req(0, 0, 1), 0),
            Admission::Admitted { position: 0 }
        );
        assert_eq!(
            q.offer(req(0, 1, 2), 0),
            Admission::Rejected { retry_after: 1 }
        );
    }
}
