//! The forward-progress watchdog both memory controllers share.

use rdram::Cycle;

/// Default forward-progress watchdog threshold: cycles without a single
/// command issued or FIFO element moved before the controller declares
/// livelock. Generous — the worst legitimate gaps (refresh trains, injected
/// stall windows) are orders of magnitude shorter.
pub const DEFAULT_WATCHDOG_CYCLES: Cycle = 50_000;

/// Declares livelock when a controller's *progress key* stays unchanged
/// for a threshold of cycles while work remains.
///
/// The key is whatever the controller can compare cheaply that changes on
/// every step of progress: commands the memory system accepted, elements
/// moved, queue lengths. The first key observed always counts as progress.
/// So does the delivery of work already accepted: a command an outage
/// defers reaches its device only when the outage ends, and until then the
/// controller waits on it rather than starving.
///
/// ```
/// use smc::Watchdog;
///
/// let mut dog = Watchdog::new(10);
/// assert_eq!(dog.observe(0, 1, 0), None);
/// assert_eq!(dog.observe(9, 1, 0), None);
/// assert_eq!(dog.observe(10, 1, 0), Some(10), "no progress for 10 cycles");
/// assert_eq!(dog.observe(11, 2, 0), None, "a new key is progress");
/// assert_eq!(dog.observe(20, 2, 30), None, "a delivery due at 30");
/// assert_eq!(dog.observe(39, 2, 30), None);
/// assert_eq!(dog.observe(40, 2, 30), Some(10), "10 cycles past it");
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog<K> {
    limit: Cycle,
    last_key: Option<K>,
    last_progress: Cycle,
}

impl<K: PartialEq> Watchdog<K> {
    /// A watchdog that trips after `limit` cycles without progress.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: Cycle) -> Self {
        assert!(limit > 0, "the watchdog needs a nonzero threshold");
        Watchdog {
            limit,
            last_key: None,
            last_progress: 0,
        }
    }

    /// The controller has no work left at `now`; an idle controller is
    /// never livelocked.
    pub fn idle(&mut self, now: Cycle) {
        self.last_progress = now;
    }

    /// Forget the last key, so the next observation counts as progress
    /// (the controller was given new work).
    pub fn forget(&mut self) {
        self.last_key = None;
    }

    /// Observe the controller's progress key at `now`, with `delivery` the
    /// latest cycle at which work the memory system already accepted is
    /// delivered. Returns how long the controller has stalled once the key
    /// has stayed unchanged, and that delivery passed, for at least the
    /// threshold, and `None` otherwise.
    pub fn observe(&mut self, now: Cycle, key: K, delivery: Cycle) -> Option<Cycle> {
        if self.last_key.as_ref() != Some(&key) {
            self.last_key = Some(key);
            self.last_progress = now;
        }
        self.last_progress = self.last_progress.max(delivery);
        let stalled_for = self.stalled_for(now);
        (stalled_for >= self.limit).then_some(stalled_for)
    }

    /// Cycles since the last observed progress.
    pub fn stalled_for(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.last_progress)
    }

    /// The first cycle at which [`observe`](Self::observe) trips if the key
    /// stays unchanged. A controller that skips cycles must not skip past
    /// it, or the livelock trips late.
    ///
    /// ```
    /// use smc::Watchdog;
    ///
    /// let mut dog = Watchdog::new(10);
    /// assert_eq!(dog.observe(3, 1, 0), None);
    /// assert_eq!(dog.deadline(), 13);
    /// assert_eq!(dog.observe(dog.deadline(), 1, 0), Some(10));
    /// ```
    pub fn deadline(&self) -> Cycle {
        self.last_progress.saturating_add(self.limit)
    }
}
