//! A set-associative cache model for the conventional system.
//!
//! The paper's natural-order bounds assume every stream keeps its current
//! cacheline resident ("per-stream linefill buffers"), and it explicitly
//! leaves the cost of *cache conflicts* unmeasured: "using natural-order
//! cacheline accesses for these strides is likely to generate many cache
//! conflicts, because the vectors leave a larger footprint. Measuring the
//! negative performance impact of these conflicts is beyond the scope of
//! this study." This model measures it: a configurable set-associative
//! cache with LRU replacement, whose conflict misses turn into extra line
//! transfers in the [`BaselineController`](crate::BaselineController)
//! schedule.

use serde::{Deserialize, Serialize};

/// Configuration of the modeled data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// The i860XP's 16 KB, 32-byte-line, 4-way data cache — the processor
    /// of the authors' proof-of-concept system.
    pub const fn i860xp() -> Self {
        CacheConfig {
            capacity_bytes: 16 * 1024,
            line_bytes: 32,
            ways: 4,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / self.line_bytes / self.ways as u64
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: all fields must be
    /// positive, sizes powers of two, and the capacity divisible by
    /// `line_bytes x ways`.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 || self.line_bytes == 0 || self.ways == 0 {
            return Err("cache dimensions must be positive".into());
        }
        if !self.line_bytes.is_power_of_two() || !self.capacity_bytes.is_power_of_two() {
            return Err("cache and line sizes must be powers of two".into());
        }
        if !self
            .capacity_bytes
            .is_multiple_of(self.line_bytes * self.ways as u64)
        {
            return Err("capacity must divide evenly into sets".into());
        }
        if self.sets() == 0 {
            return Err("cache must have at least one set".into());
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::i860xp()
    }
}

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was resident.
    Hit,
    /// The line was absent; `evicted` carries the displaced dirty line's
    /// address when a writeback is owed.
    Miss {
        /// Dirty line displaced by the fill, if any.
        evicted_dirty: Option<u64>,
    },
}

/// A set-associative, write-allocate, LRU cache.
///
/// ```
/// use baseline::cache::{CacheConfig, CacheModel, CacheOutcome};
///
/// let mut c = CacheModel::new(CacheConfig::i860xp());
/// assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
/// assert_eq!(c.access(8, false), CacheOutcome::Hit); // same 32-byte line
/// ```
#[derive(Debug, Clone)]
pub struct CacheModel {
    cfg: CacheConfig,
    /// Per set: (line address, dirty), most recently used last.
    sets: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl CacheModel {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CacheConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "an invalid CacheConfig is a programming error at system assembly time, caught before any simulation starts"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid cache configuration: {e}");
        }
        CacheModel {
            sets: vec![Vec::with_capacity(cfg.ways); cfg.sets() as usize],
            cfg,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access the byte at `addr` (`store` marks the line dirty); returns
    /// whether the line was resident and any dirty eviction.
    pub fn access(&mut self, addr: u64, store: bool) -> CacheOutcome {
        let line = addr / self.cfg.line_bytes;
        let set_idx = (line % self.cfg.sets()) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = set.remove(pos);
            set.push((line, dirty || store));
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        let evicted_dirty = if set.len() == self.cfg.ways {
            let (victim, dirty) = set.remove(0);
            if dirty {
                self.writebacks += 1;
                Some(victim * self.cfg.line_bytes)
            } else {
                None
            }
        } else {
            None
        };
        set.push((line, store));
        CacheOutcome::Miss { evicted_dirty }
    }

    /// Lines still dirty in the cache (for final flushes), in no particular
    /// order.
    pub fn dirty_lines(&self) -> Vec<u64> {
        self.sets
            .iter()
            .flatten()
            .filter(|&&(_, dirty)| dirty)
            .map(|&(line, _)| line * self.cfg.line_bytes)
            .collect()
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions observed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss ratio in `[0, 1]`, or `None` before any access.
    #[expect(
        clippy::float_arithmetic,
        reason = "display derivation for reports; no cycle count is computed from it"
    )]
    pub fn miss_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            return None;
        }
        Some(self.misses as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheModel {
        // 4 sets x 2 ways x 32 B lines = 256 B.
        CacheModel::new(CacheConfig {
            capacity_bytes: 256,
            line_bytes: 32,
            ways: 2,
        })
    }

    #[test]
    fn i860xp_geometry() {
        let cfg = CacheConfig::i860xp();
        cfg.validate().unwrap();
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = tiny();
        // Three lines mapping to set 0 (multiples of 4 lines = 128 B).
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        assert!(matches!(c.access(128, false), CacheOutcome::Miss { .. }));
        // Touch line 0 so line 128 becomes LRU.
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert!(matches!(c.access(256, false), CacheOutcome::Miss { .. }));
        // 128 was evicted; 0 survived.
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert!(matches!(c.access(128, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_evictions_report_writebacks() {
        let mut c = tiny();
        assert!(matches!(
            c.access(0, true),
            CacheOutcome::Miss {
                evicted_dirty: None
            }
        ));
        let _ = c.access(128, false);
        // Evicts dirty line 0.
        match c.access(256, false) {
            CacheOutcome::Miss {
                evicted_dirty: Some(addr),
            } => assert_eq!(addr, 0),
            other @ (CacheOutcome::Hit | CacheOutcome::Miss { .. }) => {
                panic!("expected dirty eviction, got {other:?}")
            }
        }
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn dirty_lines_enumerates_residents() {
        let mut c = tiny();
        let _ = c.access(0, true);
        let _ = c.access(32, false);
        let mut dirty = c.dirty_lines();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0]);
    }

    #[test]
    fn power_of_two_footprints_conflict() {
        // Stride of one full cache (256 B) maps every access to one set:
        // with 2 ways, 3 streams thrash.
        let mut c = tiny();
        let mut misses = 0;
        for i in 0..32u64 {
            for v in 0..3u64 {
                if matches!(
                    c.access(v * 256 + i * 768, false),
                    CacheOutcome::Miss { .. }
                ) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 96, "every access conflicts");
        assert_eq!(c.miss_ratio(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn bad_geometry_rejected() {
        let _ = CacheModel::new(CacheConfig {
            capacity_bytes: 100,
            line_bytes: 32,
            ways: 1,
        });
    }
}
