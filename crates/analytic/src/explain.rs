//! Human-readable derivations of the Section 5 bounds.
//!
//! [`explain_smc`] and [`explain_cache`] expose every intermediate term of
//! the bound computations — the FIFO fill time, the per-tour turnaround,
//! `T_pipe`, `T_init` — so a user can see *why* a configuration lands where
//! it does (the `smcsim --explain` flag prints these).

use std::fmt;

use crate::cache::StreamSystem;
use crate::smc::Workload;
use crate::Organization;

/// Breakdown of the SMC startup-delay bound (Eqs. 5.16/5.17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupBreakdown {
    /// Cycles spent filling the earlier read-FIFOs: `(s_r − 1)·f·tPACK/w_p`.
    pub fill_cycles: f64,
    /// First-access latency: `tRAC` (CLI) or `tRAC + tRP` (PI).
    pub first_access_cycles: f64,
}

impl StartupBreakdown {
    /// Total `Δ1`.
    pub fn total(&self) -> f64 {
        self.fill_cycles + self.first_access_cycles
    }
}

/// Breakdown of the SMC bus-turnaround bound (Eq. 5.18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurnaroundBreakdown {
    /// Round-robin service tours over the whole computation:
    /// `L_s (s−1)/(f·s)`.
    pub tours: f64,
    /// Turnaround cost per tour (`tRW`).
    pub per_tour: f64,
}

impl TurnaroundBreakdown {
    /// Total `Δ2`.
    pub fn total(&self) -> f64 {
        self.tours * self.per_tour
    }
}

/// Full derivation of the SMC bounds for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SmcExplanation {
    /// The workload the bounds describe.
    pub workload: Workload,
    /// Memory organization.
    pub org: Organization,
    /// FIFO depth in elements.
    pub fifo_depth: u64,
    /// Minimum DATA-bus busy cycles (the denominator of Eq. 5.15).
    pub busy_cycles: f64,
    /// Useful transfer cycles at peak (the numerator of Eq. 5.15).
    pub useful_cycles: f64,
    /// Startup-delay terms.
    pub startup: StartupBreakdown,
    /// Turnaround terms.
    pub turnaround: TurnaroundBreakdown,
    /// The startup bound, percent of peak.
    pub startup_bound: f64,
    /// The asymptotic (turnaround) bound, percent of peak.
    pub asymptotic_bound: f64,
    /// Their minimum — the combined limit.
    pub combined: f64,
}

/// Derive the SMC bounds with all intermediate terms.
pub fn explain_smc(
    sys: &StreamSystem,
    org: Organization,
    w: &Workload,
    fifo_depth: u64,
) -> SmcExplanation {
    SmcExplanation {
        workload: *w,
        org,
        fifo_depth,
        busy_cycles: sys.smc_busy_cycles(w),
        useful_cycles: sys.smc_useful_cycles(w),
        startup: sys.smc_startup_terms(org, w, fifo_depth),
        turnaround: sys.smc_turnaround_terms(w, fifo_depth),
        startup_bound: sys.smc_startup_bound(org, w, fifo_depth),
        asymptotic_bound: sys.smc_asymptotic_bound(w, fifo_depth),
        combined: sys.smc_combined_bound(org, w, fifo_depth),
    }
}

impl fmt::Display for SmcExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = &self.workload;
        writeln!(
            f,
            "SMC bounds on {} for {} read + {} write streams of {} elements \
             (stride {}), FIFO depth {}:",
            self.org.label(),
            w.reads,
            w.writes,
            w.length,
            w.stride,
            self.fifo_depth
        )?;
        writeln!(
            f,
            "  minimal transfer: {:.0} busy cycles ({:.0} useful at peak)",
            self.busy_cycles, self.useful_cycles
        )?;
        writeln!(
            f,
            "  startup delay Δ1 (Eq. 5.16/5.17) = fill {:.0} + first access {:.0} \
             = {:.0} cycles  →  {:.1}% bound",
            self.startup.fill_cycles,
            self.startup.first_access_cycles,
            self.startup.total(),
            self.startup_bound
        )?;
        writeln!(
            f,
            "  turnaround Δ2 (Eq. 5.18) = {:.1} tours x tRW {:.0} = {:.0} cycles  \
             →  {:.1}% bound",
            self.turnaround.tours,
            self.turnaround.per_tour,
            self.turnaround.total(),
            self.asymptotic_bound
        )?;
        write!(
            f,
            "  combined limit (Eq. 5.15): {:.1}% of peak",
            self.combined
        )
    }
}

/// Full derivation of the natural-order cacheline bound.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheExplanation {
    /// Memory organization.
    pub org: Organization,
    /// Streams, length, stride.
    pub s: u64,
    /// Elements per stream.
    pub ls: u64,
    /// Stride in words.
    pub stride: u64,
    /// `T_LCC` (Eq. 5.2).
    pub t_lcc: u64,
    /// `T_LCO` (Eq. 5.7).
    pub t_lco: u64,
    /// Steady-state tour cycles (`T_pipe`).
    pub tour_cycles: u64,
    /// Number of tours.
    pub tours: f64,
    /// Useful words per fetched line at this stride.
    pub useful_words_per_line: f64,
    /// The bound, percent of peak.
    pub percent: f64,
}

/// Derive the natural-order bound with all intermediate terms.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`StreamSystem::multi_stream`].
pub fn explain_cache(
    sys: &StreamSystem,
    org: Organization,
    s: u64,
    ls: u64,
    stride: u64,
) -> CacheExplanation {
    let useful = sys.useful_words_per_line(stride);
    CacheExplanation {
        org,
        s,
        ls,
        stride,
        t_lcc: sys.line_access_closed(),
        t_lco: sys.line_access_open(),
        tour_cycles: sys.tour_cycles(org, s),
        tours: (ls as f64 / useful).max(1.0),
        useful_words_per_line: useful,
        percent: sys.multi_stream(org, s, ls, stride),
    }
}

impl fmt::Display for CacheExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Natural-order cacheline bound on {} for {} streams of {} elements \
             (stride {}):",
            self.org.label(),
            self.s,
            self.ls,
            self.stride
        )?;
        writeln!(
            f,
            "  line transfers: T_LCC = {} cycles (page miss, Eq. 5.2), \
             T_LCO = {} cycles (page hit, Eq. 5.7)",
            self.t_lcc, self.t_lco
        )?;
        writeln!(
            f,
            "  steady-state tour (one line per stream): {} cycles; \
             {:.0} tours; {:.1} useful words per line",
            self.tour_cycles, self.tours, self.useful_words_per_line
        )?;
        write!(f, "  bound (Eqs. 5.4-5.11): {:.1}% of peak", self.percent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> StreamSystem {
        StreamSystem::default()
    }

    #[test]
    fn smc_terms_reassemble_the_bounds() {
        let w = Workload::unit(2, 1, 1024);
        for org in [
            Organization::CacheLineInterleaved,
            Organization::PageInterleaved,
        ] {
            for depth in [8u64, 64, 128] {
                let e = explain_smc(&sys(), org, &w, depth);
                // The breakdown must reproduce the bound values exactly.
                let startup = 100.0 * e.useful_cycles / (e.startup.total() + e.busy_cycles);
                assert!((startup - e.startup_bound).abs() < 1e-9);
                let asym = 100.0 * e.useful_cycles / (e.turnaround.total() + e.busy_cycles);
                assert!((asym - e.asymptotic_bound).abs() < 1e-9);
                assert!((e.combined - e.startup_bound.min(e.asymptotic_bound)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn displays_reference_the_equations() {
        let w = Workload::unit(3, 1, 128);
        let e = explain_smc(&sys(), Organization::PageInterleaved, &w, 32);
        let s = format!("{e}");
        assert!(s.contains("Eq. 5.16"));
        assert!(s.contains("Eq. 5.18"));
        assert!(s.contains("PI"));

        let c = explain_cache(&sys(), Organization::CacheLineInterleaved, 3, 1024, 1);
        let s = format!("{c}");
        assert!(s.contains("T_LCC = 24"));
        assert!(s.contains("Eqs. 5.4-5.11"));
    }

    #[test]
    fn cache_terms_match_the_model() {
        let e = explain_cache(&sys(), Organization::PageInterleaved, 8, 1024, 1);
        assert_eq!(e.tour_cycles, 72);
        assert_eq!(e.tours, 256.0);
        assert!((e.percent - 88.41).abs() < 0.1);
    }
}
