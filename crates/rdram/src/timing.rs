//! Timing parameters of a Direct RDRAM part.
//!
//! Values follow the paper's Figure 2, which tabulates the "Min -50 -800"
//! 64M/72M Direct RDRAM part. All parameters are expressed in 400 MHz
//! interface-clock cycles (2.5 ns per cycle). The data *transfer* rate is
//! 800 MHz (both clock edges), so one 4-cycle DATA packet moves 16 bytes and
//! the peak bandwidth of a single device is 1.6 GB/s.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use serde::{Deserialize, Serialize};

use crate::Cycle;

/// Duration of one interface-clock cycle in nanoseconds.
pub const CYCLE_NS: f64 = 2.5;

/// Bytes carried by one DATA packet (16 bits on each of 8 clock edges x 2).
pub const PACKET_BYTES: u64 = 16;

/// Bytes per stream element: the paper models streams of 64-bit words.
pub const ELEM_BYTES: u64 = 8;

/// 64-bit words per DATA packet (`w_p` in the paper's equations).
pub const WORDS_PER_PACKET: u64 = PACKET_BYTES / ELEM_BYTES;

/// Timing parameters of a Direct RDRAM device, in interface-clock cycles.
///
/// The defaults ([`Timing::default`], equivalently [`Timing::direct_800_50`])
/// reproduce the paper's Figure 2. Construct custom parts with struct-update
/// syntax and check them with [`Timing::validate`]:
///
/// ```
/// use rdram::Timing;
///
/// let slow_core = Timing { t_rp: 12, ..Timing::default() };
/// slow_core.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Timing {
    /// Packet transfer time: every ROW, COL, and DATA packet occupies its bus
    /// for this many cycles (`tPACK`, 4 cycles = 10 ns).
    pub t_pack: Cycle,
    /// Minimum interval between a ROW ACT packet and the first COL packet to
    /// the newly opened row (`tRCD`, 11 cycles).
    pub t_rcd: Cycle,
    /// Page precharge time: minimum interval between a ROW PRER packet and a
    /// subsequent ACT to the same bank (`tRP`, 10 cycles).
    pub t_rp: Cycle,
    /// Column/precharge overlap: a PRER may overlap the final COL packet to
    /// the page by at most this much (`tCPOL`, 1 cycle).
    pub t_cpol: Cycle,
    /// Page-hit latency: delay from the start of a COL packet to valid data
    /// (`tCAC`, 8 cycles).
    pub t_cac: Cycle,
    /// Page-miss latency: delay from the start of a ROW ACT packet to valid
    /// data (`tRAC = tRCD + tCAC + 1` extra cycle, 20 cycles).
    pub t_rac: Cycle,
    /// Page-miss cycle time: minimum interval between successive ROW ACT
    /// packets to the *same bank* (`tRC`, 34 cycles).
    pub t_rc: Cycle,
    /// Row/row packet delay: minimum interval between consecutive ROW ACT
    /// packets to the same *device*, any bank (`tRR`, 8 cycles).
    pub t_rr: Cycle,
    /// Round-trip bus delay added to read page-hit latency, because the DATA
    /// packet travels opposite to the command (`tRDLY`, 2 cycles; no delay
    /// for writes).
    pub t_rdly: Cycle,
    /// Read/write bus turnaround: minimum gap on the DATA bus between the end
    /// of write data and the start of read data
    /// (`tRW = tPACK + tRDLY`, 6 cycles).
    pub t_rw: Cycle,
    /// Minimum interval between a ROW ACT packet and the PRER that closes the
    /// same row. Mentioned in the paper's prose but not tabulated; the
    /// datasheet minimum is 20 ns = 8 cycles, which satisfies the paper's
    /// stated invariant `tRAS + tRP < 2*tRR + tRAC`.
    pub t_ras: Cycle,
}

impl Timing {
    /// Timing of the -800/-50 Direct RDRAM part from the paper's Figure 2.
    pub const fn direct_800_50() -> Self {
        Timing {
            t_pack: 4,
            t_rcd: 11,
            t_rp: 10,
            t_cpol: 1,
            t_cac: 8,
            t_rac: 20,
            t_rc: 34,
            t_rr: 8,
            t_rdly: 2,
            t_rw: 6,
            t_ras: 8,
        }
    }

    /// Delay from the start of a COL WR packet to the start of its write DATA
    /// packet.
    ///
    /// The paper's Figure 2 does not tabulate a write delay; we launch write
    /// data `tCAC - tRDLY` after the COL packet so reads and writes occupy
    /// the DATA bus symmetrically and the write-to-read turnaround works out
    /// to exactly `tRW` (see DESIGN.md).
    pub fn write_data_delay(&self) -> Cycle {
        self.t_cac.saturating_sub(self.t_rdly)
    }

    /// Delay from the start of a COL RD packet to the start of its read DATA
    /// packet (`tCAC + tRDLY`).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a Figure 2 identity written as the paper prints it; every term is a timing parameter under 100 cycles"
    )]
    pub fn read_data_delay(&self) -> Cycle {
        self.t_cac + self.t_rdly
    }

    /// Peak data-bus bandwidth in bytes per interface-clock cycle.
    ///
    /// For the default part this is 16 bytes / 4 cycles = 4 B/cycle,
    /// i.e. 1.6 GB/s at 400 MHz.
    #[expect(
        clippy::float_arithmetic,
        reason = "display derivation for reports; no cycle count is computed from it"
    )]
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        PACKET_BYTES as f64 / self.t_pack as f64
    }

    /// Peak bandwidth in gigabytes per second.
    #[expect(
        clippy::float_arithmetic,
        reason = "display derivation for reports; no cycle count is computed from it"
    )]
    pub fn peak_gbytes_per_sec(&self) -> f64 {
        self.peak_bytes_per_cycle() / CYCLE_NS
    }

    /// Check internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated relation:
    ///
    /// * every parameter governing a packet or latency must be non-zero,
    /// * `tRAC = tRCD + tCAC + 1` (the paper's "extra cycle"),
    /// * `tRW = tPACK + tRDLY`,
    /// * `tRC >= tRAS + tRP` (a bank cannot re-activate before it has been
    ///   held open and precharged), and
    /// * `tRAS + tRP < 2*tRR + tRAC`, the paper's condition for precharge to
    ///   hide completely under pipelined accesses in the closed-page case.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the Figure 2 identities written as the paper prints them; every term is a timing parameter under 100 cycles"
    )]
    pub fn validate(&self) -> Result<(), String> {
        if self.t_pack == 0 {
            return Err("tPACK must be non-zero".into());
        }
        if self.t_cac == 0 || self.t_rcd == 0 || self.t_rp == 0 {
            return Err("tCAC, tRCD and tRP must be non-zero".into());
        }
        if self.t_rac != self.t_rcd + self.t_cac + 1 {
            return Err(format!(
                "tRAC ({}) must equal tRCD + tCAC + 1 ({})",
                self.t_rac,
                self.t_rcd + self.t_cac + 1
            ));
        }
        if self.t_rw != self.t_pack + self.t_rdly {
            return Err(format!(
                "tRW ({}) must equal tPACK + tRDLY ({})",
                self.t_rw,
                self.t_pack + self.t_rdly
            ));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must be at least tRAS + tRP ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_ras + self.t_rp >= 2 * self.t_rr + self.t_rac {
            return Err(format!(
                "tRAS + tRP ({}) must be less than 2*tRR + tRAC ({}) for \
                 precharge to overlap pipelined accesses",
                self.t_ras + self.t_rp,
                2 * self.t_rr + self.t_rac
            ));
        }
        Ok(())
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::direct_800_50()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_figure_2() {
        let t = Timing::default();
        assert_eq!(t.t_pack, 4);
        assert_eq!(t.t_rcd, 11);
        assert_eq!(t.t_rp, 10);
        assert_eq!(t.t_cpol, 1);
        assert_eq!(t.t_cac, 8);
        assert_eq!(t.t_rac, 20);
        assert_eq!(t.t_rc, 34);
        assert_eq!(t.t_rr, 8);
        assert_eq!(t.t_rdly, 2);
        assert_eq!(t.t_rw, 6);
    }

    #[test]
    fn default_validates() {
        Timing::default().validate().unwrap();
    }

    #[test]
    fn peak_bandwidth_is_1_6_gbytes_per_sec() {
        let t = Timing::default();
        assert_eq!(t.peak_bytes_per_cycle(), 4.0);
        assert!((t.peak_gbytes_per_sec() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn trac_relation_is_enforced() {
        let t = Timing {
            t_rac: 21,
            ..Timing::default()
        };
        let err = t.validate().unwrap_err();
        assert!(err.contains("tRAC"), "unexpected message: {err}");
    }

    #[test]
    fn trw_relation_is_enforced() {
        let t = Timing {
            t_rw: 7,
            ..Timing::default()
        };
        assert!(t.validate().unwrap_err().contains("tRW"));
    }

    #[test]
    fn precharge_overlap_invariant_is_enforced() {
        // tRAS large enough that tRAS + tRP >= 2*tRR + tRAC = 36.
        let t = Timing {
            t_ras: 26,
            t_rc: 40,
            ..Timing::default()
        };
        assert!(t.validate().unwrap_err().contains("tRAS"));
    }

    #[test]
    fn data_delays() {
        let t = Timing::default();
        assert_eq!(t.read_data_delay(), 10);
        assert_eq!(t.write_data_delay(), 6);
    }

    #[test]
    fn packet_word_constants() {
        assert_eq!(WORDS_PER_PACKET, 2);
        assert_eq!(PACKET_BYTES, 16);
        assert_eq!(ELEM_BYTES, 8);
    }
}
