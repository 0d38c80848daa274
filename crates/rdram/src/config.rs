//! Device-level configuration: geometry, timing, and policy knobs.

use serde::{Deserialize, Serialize};

use crate::{Timing, PACKET_BYTES};

/// Configuration of a Direct RDRAM device.
///
/// The default reproduces the memory system the paper evaluates: a single
/// 64 Mbit part with eight independent banks and 1 KB pages, using the
/// -800/-50 timing of Figure 2.
///
/// ```
/// use rdram::DeviceConfig;
///
/// let cfg = DeviceConfig::default();
/// assert_eq!(cfg.banks, 8);
/// assert_eq!(cfg.page_bytes, 1024);
/// assert_eq!(cfg.capacity_bytes(), 8 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Timing parameters (see [`Timing`]).
    pub timing: Timing,
    /// Number of RDRAM devices ganged on the channel. The paper models one;
    /// a Direct Rambus channel supports up to 32, and `tRR` (the row-packet
    /// spacing) applies *per device*, so more devices expose more row
    /// concurrency — the reason Crisp reports ~95% efficiency on multimedia
    /// workloads with many devices while a single chip cannot get there.
    pub devices: usize,
    /// Number of independent banks per device. The paper models eight;
    /// "double bank" 16-bank parts are effectively eight because adjacent
    /// banks conflict.
    pub banks: usize,
    /// DRAM page (row) size in bytes. 1 KB = 128 64-bit words (`L_P`).
    pub page_bytes: u64,
    /// Rows per bank. Only bounds the address space; it does not affect
    /// timing.
    pub rows_per_bank: u64,
    /// Model the "double bank" adjacency constraint of 16-bank cores, where
    /// two adjacent banks share sense amps and cannot be open simultaneously.
    pub double_bank: bool,
}

impl DeviceConfig {
    /// Total addressable capacity in bytes across all devices.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank * self.page_bytes
    }

    /// Banks on the whole channel (`devices x banks`). Address maps and the
    /// `Rdram` model index banks channel-wide; bank `i` belongs to device
    /// `i / banks`.
    pub fn total_banks(&self) -> usize {
        self.devices * self.banks
    }

    /// 64-bit words per DRAM page (`L_P` in the paper's equations).
    pub fn words_per_page(&self) -> u64 {
        self.page_bytes / crate::ELEM_BYTES
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: timing must
    /// validate, there must be at least one bank and one row, and the page
    /// size must be a non-zero multiple of the 16-byte DATA packet.
    pub fn validate(&self) -> Result<(), String> {
        self.timing.validate()?;
        if self.devices == 0 {
            return Err("the channel needs at least one device".into());
        }
        if self.banks == 0 {
            return Err("device must have at least one bank".into());
        }
        if self.rows_per_bank == 0 {
            return Err("device must have at least one row per bank".into());
        }
        if self.page_bytes == 0 || !self.page_bytes.is_multiple_of(PACKET_BYTES) {
            return Err(format!(
                "page size ({} B) must be a non-zero multiple of the packet size ({} B)",
                self.page_bytes, PACKET_BYTES
            ));
        }
        if self.double_bank && !self.banks.is_multiple_of(2) {
            return Err("double-bank devices need an even bank count".into());
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            timing: Timing::default(),
            devices: 1,
            banks: 8,
            page_bytes: 1024,
            rows_per_bank: 1024,
            double_bank: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_device() {
        let cfg = DeviceConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.words_per_page(), 128);
        assert!(!cfg.double_bank);
    }

    #[test]
    fn rejects_zero_banks() {
        let cfg = DeviceConfig {
            banks: 0,
            ..DeviceConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("bank"));
    }

    #[test]
    fn rejects_unaligned_page() {
        let cfg = DeviceConfig {
            page_bytes: 1000,
            ..DeviceConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("page size"));
    }

    #[test]
    fn rejects_odd_double_bank() {
        let cfg = DeviceConfig {
            banks: 7,
            double_bank: true,
            ..DeviceConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("even"));
    }

    #[test]
    fn capacity() {
        let cfg = DeviceConfig::default();
        assert_eq!(cfg.capacity_bytes(), 8 * 1024 * 1024);
    }
}
