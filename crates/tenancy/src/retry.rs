//! Closed-loop client retry: seeded, integer-only exponential backoff.
//!
//! When the admission queue answers `Rejected { retry_after }`, an open-loop
//! client drops the request on the floor; a closed-loop client waits and
//! resubmits, which turns backpressure into arrival-process shaping instead
//! of lost work. [`RetryPolicy`] decides *when* the resubmission happens:
//! an exponential backoff from a configurable base, capped, with
//! deterministic jitter derived from `(seed, tenant, seq, attempt)` — no
//! wall clock and no shared RNG state, so serve runs replay identically
//! under the campaign engine at any worker count.
//!
//! The serve loop always honors the server's `retry_after` hint: the actual
//! resubmission delay is `max(hint, backoff)`, and every decision is logged
//! as a [`RetryAudit`] so the property suite can assert that no client ever
//! resubmits earlier than its hint.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::tenant::Cycle;

/// Closed-loop retry policy for rejected requests.
///
/// `max_retries == 0` disables the closed loop entirely: rejected requests
/// are dropped exactly as before the policy existed, which keeps every
/// pre-existing serve golden byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Resubmissions allowed per request (its retry budget); 0 disables
    /// the closed loop.
    pub max_retries: u32,
    /// Backoff base in cycles: attempt `a` backs off about
    /// `base << a` cycles (before the cap and jitter).
    pub base: Cycle,
    /// Ceiling on the exponential backoff, in cycles.
    pub cap: Cycle,
    /// Jitter amplitude in permille of the backoff (0..=1000): the
    /// backoff is spread deterministically over `±spread/2` where
    /// `spread = backoff * jitter_permille / 1000`.
    pub jitter_permille: u64,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    /// The inert policy: rejected requests are dropped, never resubmitted.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base: 64,
            cap: 65_536,
            jitter_permille: 250,
            seed: 0,
        }
    }

    /// A closed-loop policy granting each request `max_retries`
    /// resubmissions, with default backoff shape and the given seed.
    pub fn with_budget(max_retries: u32, seed: u64) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::disabled()
        }
        .seeded(seed)
    }

    /// The same policy with a different jitter seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the closed loop is active.
    pub fn is_enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// Backoff (in cycles, always >= 1) before resubmission number
    /// `attempt` (0 = first retry) of request `(tenant, seq)`.
    ///
    /// Pure in its arguments and the policy fields: the same coordinates
    /// always produce the same backoff.
    pub fn backoff(&self, tenant: usize, seq: u64, attempt: u32) -> Cycle {
        let shift = attempt.min(32);
        let exp = self
            .base
            .max(1)
            .checked_shl(shift)
            .unwrap_or(self.cap)
            .min(self.cap.max(1));
        let spread = exp.saturating_mul(self.jitter_permille.min(1000)) / 1000;
        if spread == 0 {
            return exp.max(1);
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "the divisor is spread + 1, saturating, so it is at least 1"
        )]
        let roll =
            mix(self.seed, tenant as u64, seq, u64::from(attempt)) % spread.saturating_add(1);
        exp.saturating_sub(spread / 2).saturating_add(roll).max(1)
    }
}

/// One closed-loop resubmission decision, recorded by the serve loop.
///
/// The scheduling invariant `resubmit_at >= rejected_at + hint` (never
/// resubmit earlier than the server asked) is checked end to end by the
/// serve property suite over these records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAudit {
    /// Tenant id.
    pub tenant: usize,
    /// Request sequence number within the tenant.
    pub seq: u64,
    /// Which resubmission this is (0 = first retry).
    pub attempt: u32,
    /// Cycle the rejection came back.
    pub rejected_at: Cycle,
    /// The server's `retry_after` hint, in cycles.
    pub hint: Cycle,
    /// The policy's computed backoff, in cycles.
    pub backoff: Cycle,
    /// Cycle the client resubmits: `rejected_at + max(hint, backoff)`.
    pub resubmit_at: Cycle,
}

/// Stateless splitmix64-style combine of the jitter coordinates.
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

    #[test]
    fn disabled_policy_is_inert() {
        let p = RetryPolicy::disabled();
        assert!(!p.is_enabled());
        assert!(RetryPolicy::with_budget(3, 9).is_enabled());
    }

    #[test]
    fn backoff_is_deterministic_and_positive() {
        let p = RetryPolicy::with_budget(8, 1234);
        for tenant in 0..8 {
            for seq in 0..32u64 {
                for attempt in 0..8u32 {
                    let a = p.backoff(tenant, seq, attempt);
                    assert_eq!(a, p.backoff(tenant, seq, attempt));
                    assert!(a >= 1);
                }
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially_up_to_the_cap() {
        let p = RetryPolicy {
            jitter_permille: 0,
            ..RetryPolicy::with_budget(40, 0)
        };
        assert_eq!(p.backoff(0, 0, 0), 64);
        assert_eq!(p.backoff(0, 0, 1), 128);
        assert_eq!(p.backoff(0, 0, 4), 1024);
        // Capped, including shifts that would overflow.
        assert_eq!(p.backoff(0, 0, 12), 65_536);
        assert_eq!(p.backoff(0, 0, 39), 65_536);
    }

    #[test]
    fn jitter_spreads_but_stays_near_the_exponential() {
        let p = RetryPolicy::with_budget(4, 42); // 250 permille jitter
        let mut distinct = std::collections::BTreeSet::new();
        for seq in 0..256u64 {
            let b = p.backoff(1, seq, 0);
            // Within ±spread/2 + 1 of the 64-cycle base.
            assert!((48..=81).contains(&b), "backoff {b} out of band");
            distinct.insert(b);
        }
        assert!(distinct.len() > 4, "jitter never varied: {distinct:?}");
    }

    #[test]
    fn seeds_vary_the_jitter() {
        let a = RetryPolicy::with_budget(4, 1);
        let b = RetryPolicy::with_budget(4, 2);
        let differs = (0..64u64).any(|s| a.backoff(0, s, 0) != b.backoff(0, s, 0));
        assert!(differs);
    }
}
