//! Aggregate device statistics.

use serde::{Deserialize, Serialize};

use crate::Cycle;

/// Counters accumulated by the device as commands are issued.
///
/// These feed the effective-bandwidth and overhead metrics reported by the
/// simulation crate (page-hit rates, turnaround counts, bus utilization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    /// ROW ACT packets issued (each one is a page miss being serviced).
    pub activates: u64,
    /// Explicit ROW PRER packets issued.
    pub precharges: u64,
    /// Pages closed via a COL auto-precharge (closed-page policy).
    pub auto_precharges: u64,
    /// COL RD packets issued to an already-open row.
    pub read_hits: u64,
    /// COL WR packets issued to an already-open row.
    pub write_hits: u64,
    /// Read DATA packets transferred.
    pub read_packets: u64,
    /// Write DATA packets transferred.
    pub write_packets: u64,
    /// Write-to-read bus turnarounds paid.
    pub turnarounds: u64,
    /// Cycles the DATA bus carried packets.
    pub data_busy_cycles: Cycle,
}

impl DeviceStats {
    /// Total COL packets issued.
    pub fn col_packets(&self) -> u64 {
        self.read_packets + self.write_packets
    }

    /// Fraction of column accesses that hit an open page, in `[0, 1]`.
    ///
    /// Every DATA packet requires a COL packet; a COL packet whose bank had
    /// to be activated first is a page miss. Returns `None` if no column
    /// accesses have been issued.
    #[expect(
        clippy::float_arithmetic,
        reason = "display derivation for reports; no cycle count is computed from it"
    )]
    pub fn page_hit_rate(&self) -> Option<f64> {
        let total = self.col_packets();
        if total == 0 {
            return None;
        }
        Some((self.read_hits + self.write_hits) as f64 / total as f64)
    }

    /// DATA-bus utilization over `elapsed` cycles, in `[0, 1]`.
    #[expect(
        clippy::float_arithmetic,
        reason = "display derivation for reports; no cycle count is computed from it"
    )]
    pub fn data_bus_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.data_busy_cycles as f64 / elapsed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_none_when_idle() {
        assert_eq!(DeviceStats::default().page_hit_rate(), None);
    }

    #[test]
    fn hit_rate_counts_reads_and_writes() {
        let s = DeviceStats {
            read_packets: 6,
            write_packets: 2,
            read_hits: 3,
            write_hits: 1,
            ..DeviceStats::default()
        };
        assert_eq!(s.col_packets(), 8);
        assert_eq!(s.page_hit_rate(), Some(0.5));
    }

    #[test]
    fn utilization() {
        let s = DeviceStats {
            data_busy_cycles: 40,
            ..DeviceStats::default()
        };
        assert_eq!(s.data_bus_utilization(100), 0.4);
        assert_eq!(s.data_bus_utilization(0), 0.0);
    }

    #[test]
    fn hit_rate_none_even_after_row_activity() {
        // ACT/PRER traffic without any COL packets (e.g. a run aborted
        // before its first column access) must not fabricate a hit rate.
        let s = DeviceStats {
            activates: 12,
            precharges: 9,
            auto_precharges: 3,
            ..DeviceStats::default()
        };
        assert_eq!(s.col_packets(), 0);
        assert_eq!(s.page_hit_rate(), None);
        assert_eq!(s.data_bus_utilization(1_000), 0.0);
    }

    #[test]
    fn hit_rate_extremes_are_exact() {
        let all_miss = DeviceStats {
            read_packets: 5,
            write_packets: 3,
            ..DeviceStats::default()
        };
        assert_eq!(all_miss.page_hit_rate(), Some(0.0));
        let all_hit = DeviceStats {
            read_packets: 5,
            write_packets: 3,
            read_hits: 5,
            write_hits: 3,
            ..DeviceStats::default()
        };
        assert_eq!(all_hit.page_hit_rate(), Some(1.0));
    }

    #[test]
    fn utilization_is_exact_at_full_occupancy() {
        let s = DeviceStats {
            data_busy_cycles: 256,
            ..DeviceStats::default()
        };
        assert_eq!(s.data_bus_utilization(256), 1.0);
        // One-cycle runs divide cleanly too — no epsilon creep.
        let one = DeviceStats {
            data_busy_cycles: 1,
            ..DeviceStats::default()
        };
        assert_eq!(one.data_bus_utilization(1), 1.0);
        assert_eq!(one.data_bus_utilization(2), 0.5);
    }
}
