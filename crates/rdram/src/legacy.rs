//! Conventional DRAM timing catalogue (the paper's Figure 1) and the Rambus
//! DRAM generations.
//!
//! The paper frames Direct RDRAM against the DRAMs of its day: fast-page
//! mode (FPM), Extended Data Out (EDO), Burst-EDO, and SDRAM. This module
//! reproduces the Figure 1 parameter table. Its FPM column times the `fpm`
//! crate's model of the authors' earlier SMC hardware, which contrasts the
//! two asymptotic regimes identified in Section 5.2: FPM SMC performance is
//! limited by DRAM *page misses*, while Direct RDRAM SMC performance is
//! limited by bus *turnaround*.

use serde::{Deserialize, Serialize};

/// Timing parameters of a conventional (pre-Rambus) DRAM, in nanoseconds.
///
/// Row `tPC` is the page-mode cycle time: the bank-occupancy cost of a
/// page-hit access. For the Direct RDRAM column of Figure 1, the packet
/// transfer time (10 ns) plays this role.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConventionalTiming {
    /// Device family name as printed in Figure 1.
    pub name: &'static str,
    /// Row-access time, ns.
    pub t_rac_ns: f64,
    /// Column-access time, ns.
    pub t_cac_ns: f64,
    /// Random read/write cycle time, ns.
    pub t_rc_ns: f64,
    /// Page-mode cycle time, ns.
    pub t_pc_ns: f64,
    /// Maximum interface frequency, MHz.
    pub max_freq_mhz: f64,
}

/// The five columns of the paper's Figure 1.
pub const FIGURE_1: [ConventionalTiming; 5] = [
    ConventionalTiming {
        name: "Fast-Page Mode",
        t_rac_ns: 50.0,
        t_cac_ns: 13.0,
        t_rc_ns: 95.0,
        t_pc_ns: 30.0,
        max_freq_mhz: 33.0,
    },
    ConventionalTiming {
        name: "EDO",
        t_rac_ns: 50.0,
        t_cac_ns: 13.0,
        t_rc_ns: 89.0,
        t_pc_ns: 20.0,
        max_freq_mhz: 50.0,
    },
    ConventionalTiming {
        name: "Burst-EDO",
        t_rac_ns: 52.0,
        t_cac_ns: 10.0,
        t_rc_ns: 90.0,
        t_pc_ns: 15.0,
        max_freq_mhz: 66.0,
    },
    ConventionalTiming {
        name: "SDRAM",
        t_rac_ns: 50.0,
        t_cac_ns: 9.0,
        t_rc_ns: 100.0,
        t_pc_ns: 10.0,
        max_freq_mhz: 100.0,
    },
    ConventionalTiming {
        name: "Direct RDRAM",
        t_rac_ns: 50.0,
        t_cac_ns: 20.0,
        t_rc_ns: 85.0,
        t_pc_ns: 10.0, // packet transfer time; tPC does not apply
        max_freq_mhz: 400.0,
    },
];

/// One generation of the Rambus DRAM family (the paper's Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RdramGeneration {
    /// Generation name.
    pub name: &'static str,
    /// External data-bus width in bits.
    pub bus_bits: u32,
    /// External clock in MHz (data moves on both edges).
    pub clock_mhz: f64,
    /// Peak bandwidth in MB/s.
    pub peak_mbytes_per_sec: f64,
    /// Whether the protocol supports multiple concurrent transactions.
    pub concurrent_transactions: bool,
}

/// The three Rambus generations the paper describes: Base (500–600 MB/s),
/// Concurrent (same peak, better utilization), and Direct (1.6 GB/s).
pub const RDRAM_GENERATIONS: [RdramGeneration; 3] = [
    RdramGeneration {
        name: "Base RDRAM",
        bus_bits: 8,
        clock_mhz: 250.0,
        peak_mbytes_per_sec: 500.0,
        concurrent_transactions: false,
    },
    RdramGeneration {
        name: "Concurrent RDRAM",
        bus_bits: 8,
        clock_mhz: 300.0,
        peak_mbytes_per_sec: 600.0,
        concurrent_transactions: true,
    },
    RdramGeneration {
        name: "Direct RDRAM",
        bus_bits: 16,
        clock_mhz: 400.0,
        peak_mbytes_per_sec: 1600.0,
        concurrent_transactions: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_matches_the_paper() {
        assert_eq!(FIGURE_1.len(), 5);
        let fpm = &FIGURE_1[0];
        assert_eq!(fpm.t_rac_ns, 50.0);
        assert_eq!(fpm.t_pc_ns, 30.0);
        let rdram = &FIGURE_1[4];
        assert_eq!(rdram.name, "Direct RDRAM");
        assert_eq!(rdram.t_cac_ns, 20.0);
        assert_eq!(rdram.t_rc_ns, 85.0);
        assert_eq!(rdram.max_freq_mhz, 400.0);
    }

    #[test]
    fn generations_match_the_papers_section_2_2() {
        assert_eq!(RDRAM_GENERATIONS.len(), 3);
        let direct = &RDRAM_GENERATIONS[2];
        // 16 bits on both edges of 400 MHz = 1.6 GB/s.
        assert_eq!(
            direct.peak_mbytes_per_sec,
            2.0 * direct.clock_mhz * (direct.bus_bits as f64 / 8.0)
        );
        assert!(!RDRAM_GENERATIONS[0].concurrent_transactions);
        assert!(RDRAM_GENERATIONS[1].concurrent_transactions);
    }
}
