//! Bandwidth limits for the Stream Memory Controller (Section 5.2).
//!
//! Two independent effects bound SMC performance:
//!
//! * the **startup delay** `Δ1` — before the first loop iteration, the
//!   processor waits for the head of the *last* read-stream while the MSU
//!   fills a whole FIFO for each earlier read-stream (Eqs. 5.16/5.17). It
//!   grows with FIFO depth, so it dominates for *short* vectors and deep
//!   FIFOs;
//! * the **bus-turnaround delay** `Δ2` — each round-robin service tour
//!   switches the data bus from writes back to reads once, costing `tRW`
//!   (Eq. 5.18). Deeper FIFOs mean fewer tours, so this bound *improves*
//!   with FIFO depth and dominates for long vectors.
//!
//! Both are converted to percent of peak via Eq. 5.15; the combined limit is
//! their minimum. Unlike the fast-page-mode SMC of the authors' earlier
//! system, DRAM page misses do not appear here: the Direct RDRAM overlaps
//! them with pipelined transfers, leaving turnaround as the asymptotic
//! limiter.

use rdram::WORDS_PER_PACKET;

use crate::explain::{StartupBreakdown, TurnaroundBreakdown};
use crate::{cache::StreamSystem, Organization};

/// Stream population of a computation: how many streams are read and
/// written, their common length (elements) and stride (words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Read-streams (`s_r`).
    pub reads: u64,
    /// Write-streams (`s_w`).
    pub writes: u64,
    /// Elements per stream (`L_s`).
    pub length: u64,
    /// Stride in 64-bit words (`σ`).
    pub stride: u64,
}

impl Workload {
    /// A unit-stride workload.
    pub fn unit(reads: u64, writes: u64, length: u64) -> Self {
        Workload {
            reads,
            writes,
            length,
            stride: 1,
        }
    }

    /// Total streams `s = s_r + s_w`.
    pub fn streams(&self) -> u64 {
        self.reads + self.writes
    }

    fn check(&self) {
        assert!(self.streams() >= 1, "workload needs at least one stream");
        assert!(self.length >= 1, "streams must be non-empty");
        assert!(self.stride >= 1, "stride must be at least 1");
    }
}

impl StreamSystem {
    /// Minimum cycles the DATA bus is busy transferring the workload: every
    /// element moves once, two per packet at unit stride, one per packet
    /// otherwise (the denominator term of Eq. 5.15).
    pub fn smc_busy_cycles(&self, w: &Workload) -> f64 {
        w.check();
        let packets_per_elem = if w.stride == 1 {
            1.0 / WORDS_PER_PACKET as f64
        } else {
            1.0
        };
        (w.streams() * w.length) as f64 * packets_per_elem * self.timing.t_pack as f64
    }

    /// Cycles of *useful* transfer at peak: used as the numerator of
    /// Eq. 5.15 so that non-unit strides are correctly capped at 50% of
    /// peak (half of every 128-bit packet is dead data).
    pub fn smc_useful_cycles(&self, w: &Workload) -> f64 {
        w.check();
        (w.streams() * w.length) as f64 * self.timing.t_pack as f64 / WORDS_PER_PACKET as f64
    }

    /// The terms of the startup delay `Δ1` (Eq. 5.16 for CLI, 5.17 for
    /// PI): the wait for the first element of the last read-stream while
    /// `s_r − 1` earlier read-FIFOs of depth `f` are filled, plus the first
    /// access's page-miss latency (and the initial precharge on PI).
    pub fn smc_startup_terms(
        &self,
        org: Organization,
        w: &Workload,
        fifo_depth: u64,
    ) -> StartupBreakdown {
        w.check();
        assert!(fifo_depth >= 1, "FIFO depth must be positive");
        let t = &self.timing;
        let fill_cycles = if w.reads == 0 {
            0.0
        } else {
            (w.reads - 1) as f64 * fifo_depth as f64 * t.t_pack as f64 / WORDS_PER_PACKET as f64
        };
        let first_access_cycles = match org {
            Organization::CacheLineInterleaved => t.t_rac as f64,
            Organization::PageInterleaved => (t.t_rac + t.t_rp) as f64,
        };
        StartupBreakdown {
            fill_cycles,
            first_access_cycles,
        }
    }

    /// Startup delay `Δ1`: the total of [`smc_startup_terms`](Self::smc_startup_terms).
    pub fn smc_startup_delay(&self, org: Organization, w: &Workload, fifo_depth: u64) -> f64 {
        self.smc_startup_terms(org, w, fifo_depth).total()
    }

    /// The terms of the bus-turnaround delay `Δ2` (Eq. 5.18): `tRW` once
    /// per service tour, `L_s (s−1) / (f s)` tours for the whole
    /// computation. No tours when nothing is written (the bus never
    /// reverses).
    pub fn smc_turnaround_terms(&self, w: &Workload, fifo_depth: u64) -> TurnaroundBreakdown {
        w.check();
        assert!(fifo_depth >= 1, "FIFO depth must be positive");
        let tours = if w.writes == 0 || w.streams() < 2 {
            0.0
        } else {
            let s = w.streams() as f64;
            w.length as f64 * (s - 1.0) / (fifo_depth as f64 * s)
        };
        TurnaroundBreakdown {
            tours,
            per_tour: self.timing.t_rw as f64,
        }
    }

    /// Total bus-turnaround delay `Δ2`: the total of
    /// [`smc_turnaround_terms`](Self::smc_turnaround_terms).
    pub fn smc_turnaround_delay(&self, w: &Workload, fifo_depth: u64) -> f64 {
        self.smc_turnaround_terms(w, fifo_depth).total()
    }

    /// The startup-delay bound as percent of peak (Eq. 5.15 with `Δ1`).
    pub fn smc_startup_bound(&self, org: Organization, w: &Workload, fifo_depth: u64) -> f64 {
        let delta = self.smc_startup_delay(org, w, fifo_depth);
        100.0 * self.smc_useful_cycles(w) / (delta + self.smc_busy_cycles(w))
    }

    /// The asymptotic (turnaround) bound as percent of peak (Eq. 5.15 with
    /// `Δ2`).
    pub fn smc_asymptotic_bound(&self, w: &Workload, fifo_depth: u64) -> f64 {
        let delta = self.smc_turnaround_delay(w, fifo_depth);
        100.0 * self.smc_useful_cycles(w) / (delta + self.smc_busy_cycles(w))
    }

    /// The combined SMC limit: the lower of the startup and asymptotic
    /// bounds. This is the dashed line of the paper's Figure 7.
    pub fn smc_combined_bound(&self, org: Organization, w: &Workload, fifo_depth: u64) -> f64 {
        self.smc_startup_bound(org, w, fifo_depth)
            .min(self.smc_asymptotic_bound(w, fifo_depth))
    }

    /// Bank-coverage limit for *strided* SMC accesses on a cacheline-
    /// interleaved system, as percent of **attainable** bandwidth (50% of
    /// peak for non-unit strides), following Hong's thesis analysis.
    ///
    /// At stride `σ >= L_c`, successive packets of a stream advance the
    /// cacheline index by `σ / L_c`, so the stream touches only
    /// `B / gcd(B, σ/L_c)` of the `B` banks. Each touched bank needs a full
    /// `tRC` row cycle per packet under the closed-page policy, so the
    /// steady-state packet period is
    /// `max(tPACK, tRR, tRC / banks_touched)` — this is why the paper's
    /// Figure 9 dips at stride multiples of 16 (two banks) and craters at
    /// multiples of 32 (one bank).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `banks` is zero.
    pub fn smc_strided_cli_attainable(&self, stride: u64, banks: u64) -> f64 {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(banks >= 1, "need at least one bank");
        let t = &self.timing;
        if stride < self.line_words {
            // Dense packets: the unit-stride machinery applies; the
            // asymptotic limit is ~100% of attainable.
            return 100.0;
        }
        let line_step = (stride / self.line_words).max(1);
        let touched = banks / gcd(banks, line_step % banks.max(1));
        let period = (t.t_pack as f64)
            .max(t.t_rr as f64)
            .max(t.t_rc as f64 / touched as f64);
        100.0 * t.t_pack as f64 / period
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Organization::{CacheLineInterleaved as Cli, PageInterleaved as Pi};

    fn sys() -> StreamSystem {
        StreamSystem::default()
    }

    #[test]
    fn copy_startup_is_just_the_first_access() {
        // copy has one read-stream: no FIFO prefill to wait for.
        let w = Workload::unit(1, 1, 128);
        let s = sys();
        assert_eq!(s.smc_startup_delay(Cli, &w, 128), 20.0);
        assert_eq!(s.smc_startup_delay(Pi, &w, 128), 30.0);
        // So the bound is flat in FIFO depth...
        let b8 = s.smc_startup_bound(Cli, &w, 8);
        let b128 = s.smc_startup_bound(Cli, &w, 128);
        assert!((b8 - b128).abs() < 1e-9);
        // ...and short copy still exceeds 95% of peak (paper Section 6).
        assert!(b128 > 95.0, "copy startup bound = {b128}");
    }

    #[test]
    fn startup_grows_with_reads_and_depth() {
        let s = sys();
        let vaxpy = Workload::unit(3, 1, 128);
        let d8 = s.smc_startup_delay(Cli, &vaxpy, 8);
        let d128 = s.smc_startup_delay(Cli, &vaxpy, 128);
        assert_eq!(d8, 2.0 * 8.0 * 2.0 + 20.0);
        assert_eq!(d128, 2.0 * 128.0 * 2.0 + 20.0);
        assert!(d128 > d8);
    }

    #[test]
    fn turnaround_shrinks_with_depth_and_vanishes_without_writes() {
        let s = sys();
        let daxpy = Workload::unit(2, 1, 1024);
        let d8 = s.smc_turnaround_delay(&daxpy, 8);
        let d128 = s.smc_turnaround_delay(&daxpy, 128);
        assert!(d8 > d128);
        assert_eq!(d8, 6.0 * 1024.0 * 2.0 / (8.0 * 3.0));
        let pure_read = Workload::unit(3, 0, 1024);
        assert_eq!(s.smc_turnaround_delay(&pure_read, 8), 0.0);
    }

    #[test]
    fn asymptotic_bound_approaches_100_percent() {
        let s = sys();
        let daxpy = Workload::unit(2, 1, 1024);
        let mut prev = 0.0;
        for f in [8, 16, 32, 64, 128, 1024] {
            let b = s.smc_asymptotic_bound(&daxpy, f);
            assert!(b > prev);
            prev = b;
        }
        assert!(prev > 99.0);
    }

    #[test]
    fn combined_bound_is_min_of_both() {
        let s = sys();
        let vaxpy_short = Workload::unit(3, 1, 128);
        for f in [8, 16, 32, 64, 128] {
            let c = s.smc_combined_bound(Pi, &vaxpy_short, f);
            let a = s.smc_asymptotic_bound(&vaxpy_short, f);
            let b = s.smc_startup_bound(Pi, &vaxpy_short, f);
            assert!((c - a.min(b)).abs() < 1e-12);
        }
        // Shallow FIFOs: turnaround dominates; deep FIFOs: startup dominates.
        let shallow = s.smc_combined_bound(Pi, &vaxpy_short, 8);
        assert!((shallow - s.smc_asymptotic_bound(&vaxpy_short, 8)).abs() < 1e-12);
        let deep = s.smc_combined_bound(Pi, &vaxpy_short, 128);
        assert!((deep - s.smc_startup_bound(Pi, &vaxpy_short, 128)).abs() < 1e-12);
    }

    #[test]
    fn non_unit_stride_caps_at_half_peak() {
        let s = sys();
        let strided = Workload {
            reads: 3,
            writes: 1,
            length: 1024,
            stride: 4,
        };
        let bound = s.smc_asymptotic_bound(&strided, 4096);
        assert!(bound <= 50.0 + 1e-9);
        assert!(bound > 49.0);
    }

    #[test]
    fn strided_cli_bound_matches_the_bank_coverage_analysis() {
        let s = sys();
        let b = |stride| s.smc_strided_cli_attainable(stride, 8);
        // Dense strides: full attainable.
        assert_eq!(b(1), 100.0);
        assert_eq!(b(2), 100.0);
        // Stride 4..12: all 8 banks touched, tRR-limited: 4/8 = 50%.
        assert_eq!(b(4), 50.0);
        assert_eq!(b(12), 50.0);
        // Stride 16: two banks, tRC-limited: 4/17 ≈ 23.5%.
        assert!((b(16) - 100.0 * 4.0 / 17.0).abs() < 1e-9);
        // Stride 32: one bank: 4/34 ≈ 11.8%.
        assert!((b(32) - 100.0 * 4.0 / 34.0).abs() < 1e-9);
        assert_eq!(b(48), b(16));
        assert_eq!(b(64), b(32));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn strided_bound_needs_banks() {
        let _ = sys().smc_strided_cli_attainable(4, 0);
    }

    #[test]
    fn smc_beats_natural_order_cacheline_limit() {
        // The paper: "An SMC always beats using natural-order cacheline
        // accesses for CLI memory organizations" (deep FIFOs, long vectors).
        let s = sys();
        for (sr, sw) in [(1, 1), (2, 1), (3, 1)] {
            let w = Workload::unit(sr, sw, 1024);
            let smc = s.smc_combined_bound(Cli, &w, 128);
            let cache = s.multi_stream(Cli, sr + sw, 1024, 1);
            assert!(smc > cache, "sr={sr}: smc {smc} !> cache {cache}");
        }
    }

    #[test]
    #[should_panic(expected = "FIFO depth")]
    fn zero_depth_rejected() {
        let _ = sys().smc_startup_delay(Cli, &Workload::unit(1, 1, 8), 0);
    }
}
