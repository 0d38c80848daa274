//! Closed-form effective-bandwidth bounds for streams on a Direct RDRAM —
//! the paper's Section 5.
//!
//! Two families of models are provided:
//!
//! * [`cache`] — upper bounds on the bandwidth of *natural-order cacheline
//!   accesses* (a conventional controller): Equations 5.1–5.11, for both
//!   memory organizations, single and multiple streams, unit and non-unit
//!   strides.
//! * [`smc`] — limits on Stream Memory Controller performance: the *startup
//!   delay* bound (Eq. 5.16/5.17) and the *bus-turnaround* asymptotic bound
//!   (Eq. 5.18), combined through Eq. 5.15.
//!
//! All bounds are expressed as **percent of peak bandwidth**; peak for the
//! default part is 1.6 GB/s (one 16-byte DATA packet per 4-cycle `tPACK`).
//!
//! ## Fidelity note
//!
//! The camera-ready equations 5.4 and 5.9 are ambiguous in the surviving
//! text of the paper; this implementation resolves them so that the model
//! reproduces the four bound values the paper states outright (Section 6):
//! 88.68% / 76.11% of peak for eight unit-stride streams on PI / CLI, and
//! 22.17% / 19.03% when the stride rises to four. See
//! [`cache::StreamSystem::tour_cycles`] for the resolved forms and the
//! crate's tests for the checks.
//!
//! # Example
//!
//! ```
//! use analytic::{cache::StreamSystem, Organization};
//!
//! let sys = StreamSystem::default();
//! // Eight unit-stride streams, natural-order cacheline accesses:
//! let pi = sys.multi_stream(Organization::PageInterleaved, 8, 1024, 1);
//! let cli = sys.multi_stream(Organization::CacheLineInterleaved, 8, 1024, 1);
//! assert!(pi > cli, "PI beats CLI for streaming");
//! assert!((88.68 - pi).abs() < 1.0);
//! assert!((76.11 - cli).abs() < 1.0);
//! ```

pub mod cache;
pub mod explain;
pub mod smc;

use serde::{Deserialize, Serialize};

/// The two RDRAM memory organizations the paper evaluates.
///
/// Each couples an interleaving scheme with the page policy that suits it:
/// cacheline interleaving runs closed-page, page interleaving runs
/// open-page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Organization {
    /// Successive cachelines in successive banks; closed-page policy.
    CacheLineInterleaved,
    /// Whole DRAM pages per bank; open-page policy.
    PageInterleaved,
}

impl Organization {
    /// Short label used in reports ("CLI" / "PI").
    pub fn label(self) -> &'static str {
        match self {
            Organization::CacheLineInterleaved => "CLI",
            Organization::PageInterleaved => "PI",
        }
    }
}

/// Convert an average per-word access time into percent of peak bandwidth
/// (the paper's Equation 5.1).
///
/// `avg_cycles_per_word` is the mean number of interface-clock cycles per
/// useful 64-bit word; at peak, a word moves every `tPACK / w_p` = 2 cycles.
///
/// # Panics
///
/// Panics if `avg_cycles_per_word` is not positive.
pub fn percent_of_peak(avg_cycles_per_word: f64, timing: &rdram::Timing) -> f64 {
    assert!(
        avg_cycles_per_word > 0.0,
        "average word time must be positive"
    );
    let peak_word_cycles = timing.t_pack as f64 / rdram::WORDS_PER_PACKET as f64;
    100.0 * peak_word_cycles / avg_cycles_per_word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_word_time_is_100_percent() {
        let t = rdram::Timing::default();
        assert!((percent_of_peak(2.0, &t) - 100.0).abs() < 1e-12);
        assert!((percent_of_peak(4.0, &t) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn organization_labels() {
        assert_eq!(Organization::CacheLineInterleaved.label(), "CLI");
        assert_eq!(Organization::PageInterleaved.label(), "PI");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_word_time_rejected() {
        let _ = percent_of_peak(0.0, &rdram::Timing::default());
    }
}
