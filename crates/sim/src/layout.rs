//! Vector placement in physical memory.
//!
//! The paper's modeling assumptions (Section 4.1): vectors are aligned to
//! cacheline boundaries and distinct vectors share no DRAM pages (for PI,
//! no banks). Section 4.2 simulates two placements — bases *aligned* to the
//! same bank (maximal conflicts) and *staggered* across banks.

use kernels::Kernel;
use rdram::ELEM_BYTES;

use crate::{Alignment, MemorySystem, SystemConfig};

/// Compute base byte addresses for a kernel's vectors.
///
/// Every vector gets a region that is a multiple of one full bank rotation
/// (`banks x page_bytes`), so *aligned* bases all map to bank 0 under both
/// interleavings. *Staggered* bases add one interleaving unit per vector —
/// a cacheline for CLI, a page for PI — so vector `k` starts in bank `k mod
/// banks`.
///
/// # Panics
///
/// Panics if `n` or `stride` is zero, or the layout exceeds the device's
/// address space. A run reports the latter as a configuration error.
pub fn vector_bases(kernel: Kernel, n: u64, stride: u64, cfg: &SystemConfig) -> Vec<u64> {
    fit_vectors(kernel, n, stride, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// The bases of [`vector_bases`], or why they do not fit: `n` or `stride`
/// is zero, or the layout needs more bytes than the system can address
/// (the message names both counts).
pub(crate) fn fit_vectors(
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
) -> Result<Vec<u64>, String> {
    if n == 0 || stride == 0 {
        return Err("need a non-empty computation".to_string());
    }
    let rotation = cfg.device.total_banks() as u64 * cfg.device.page_bytes;
    let span = (0..kernel.vectors())
        .map(|v| kernel.vector_len(v, n, stride) * ELEM_BYTES)
        .max()
        .expect("kernels have at least one vector");
    let region = span.div_ceil(rotation) * rotation;
    let stagger_unit = match (cfg.alignment, cfg.memory) {
        (Alignment::Aligned, _) => 0,
        (Alignment::Staggered, MemorySystem::CacheLineInterleaved) => cfg.line_bytes,
        (Alignment::Staggered, MemorySystem::PageInterleaved) => cfg.device.page_bytes,
    };
    let bases: Vec<u64> = (0..kernel.vectors() as u64)
        .map(|v| v * (region + rotation) + v * stagger_unit)
        .collect();
    let top = bases.last().expect("at least one vector") + span;
    // NUMA placement homes every address on one channel, so only one
    // channel's capacity is addressable; the other placements expose the
    // whole system.
    let addressable = match cfg.placement {
        memsys::Placement::Numa { .. } if cfg.channels > 1 => cfg.device.capacity_bytes(),
        memsys::Placement::ChannelInterleaved { .. }
        | memsys::Placement::DeviceSequential
        | memsys::Placement::Numa { .. } => {
            cfg.device.capacity_bytes() * cfg.channels.max(1) as u64
        }
    };
    if top > addressable {
        return Err(format!(
            "layout needs {top} bytes but only {addressable} are addressable"
        ));
    }
    Ok(bases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdram::AddressMap;

    fn map(cfg: &SystemConfig) -> AddressMap {
        AddressMap::new(cfg.memory.interleave(cfg.line_bytes), &cfg.device).unwrap()
    }

    #[test]
    fn aligned_bases_share_bank_zero() {
        for mem in [
            MemorySystem::CacheLineInterleaved,
            MemorySystem::PageInterleaved,
        ] {
            let cfg = SystemConfig::natural_order(mem).with_alignment(crate::Alignment::Aligned);
            let bases = vector_bases(Kernel::Vaxpy, 1024, 1, &cfg);
            let m = map(&cfg);
            for b in &bases {
                assert_eq!(m.decode(*b).bank, 0, "{mem:?} base {b}");
            }
        }
    }

    #[test]
    fn staggered_bases_rotate_banks() {
        for mem in [
            MemorySystem::CacheLineInterleaved,
            MemorySystem::PageInterleaved,
        ] {
            let cfg = SystemConfig::natural_order(mem);
            let bases = vector_bases(Kernel::Vaxpy, 1024, 1, &cfg);
            let m = map(&cfg);
            let banks: Vec<usize> = bases.iter().map(|b| m.decode(*b).bank).collect();
            assert_eq!(banks, vec![0, 1, 2], "{mem:?}");
        }
    }

    #[test]
    fn vectors_never_share_pages() {
        let cfg = SystemConfig::natural_order(MemorySystem::PageInterleaved);
        let bases = vector_bases(Kernel::Hydro, 1024, 4, &cfg);
        let span = Kernel::Hydro.vector_len(1, 1024, 4) * 8;
        for w in bases.windows(2) {
            assert!(w[0] + span <= w[1], "vectors overlap: {w:?}");
            assert!(w[0] / 1024 != w[1] / 1024);
        }
    }

    #[test]
    #[should_panic(expected = "are addressable")]
    fn oversized_layout_is_rejected() {
        let cfg = SystemConfig::natural_order(MemorySystem::PageInterleaved);
        let _ = vector_bases(Kernel::Vaxpy, 200_000, 4, &cfg);
    }
}
