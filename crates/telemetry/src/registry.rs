//! The integer-only metrics registry.
//!
//! All accumulation is `u64` arithmetic — consistent with the repository's
//! integer-cycle lint — and histogram buckets are powers of two, so the
//! registry never needs floating point. Derived ratios (hit rates,
//! utilization percentages) are computed by *reporting* layers from the raw
//! counters, never stored here.

use crate::catalog::{MetricDef, MetricId, MetricKind, CATALOG};

/// Number of histogram buckets: bucket `b` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zero, bucket 64 is the final
/// `>= 2^63` overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for a value: 0 for 0, otherwise `b` such that the value is
/// in `[2^(b-1), 2^b)` — i.e. the bit length of the value.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Count in bucket `b` (zero for out-of-range `b`).
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets.get(b).copied().unwrap_or(0)
    }

    /// Inclusive upper bound of bucket `b` (the largest value that bucket
    /// can hold): 0 for the zero bucket, `2^b - 1` for interior buckets,
    /// `u64::MAX` for the overflow bucket.
    pub fn bucket_upper(b: usize) -> u64 {
        match b {
            0 => 0,
            1..=63 => (1u64 << b) - 1,
            _ => u64::MAX,
        }
    }

    /// Nearest-rank percentile query, in permille (`500` = p50, `990` =
    /// p99, `1000` = max). Returns `None` when the histogram is empty.
    ///
    /// The answer is the inclusive upper bound of the bucket holding the
    /// rank, clamped into `[min, max]` — so the result is *exact* whenever
    /// the rank lands in the first or last non-empty bucket (in particular
    /// for single-sample histograms and for p1000, which always returns
    /// the true maximum), and otherwise overstates by less than the
    /// bucket's width (a factor of two).
    pub fn percentile(&self, permille: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let permille = permille.min(1000);
        // Smallest 1-based rank covering the requested fraction.
        let product = u128::from(permille) * u128::from(self.count);
        let rank = (product.div_ceil(1000).max(1)) as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return Some(Self::bucket_upper(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// `(bucket index, count)` for every non-empty bucket, in order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }
}

/// One metric's stored state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Counter(u64),
    Gauge(u64),
    Histogram(Box<Log2Histogram>),
}

/// A flat, catalog-indexed metrics registry.
///
/// Construction allocates one slot per [`CATALOG`] entry; all operations
/// are array indexing. Writes through a mismatched kind (e.g.
/// [`observe`](Registry::observe) on a counter) are ignored rather than
/// panicking — the catalog's unit tests keep call sites honest.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    slots: Vec<Slot>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with every catalog metric at zero.
    pub fn new() -> Self {
        let slots = CATALOG
            .iter()
            .map(|def| match def.kind {
                MetricKind::Counter => Slot::Counter(0),
                MetricKind::Gauge => Slot::Gauge(0),
                MetricKind::Histogram => Slot::Histogram(Box::default()),
            })
            .collect();
        Registry { slots }
    }

    /// Add `delta` to a counter.
    pub fn add(&mut self, id: MetricId, delta: u64) {
        if let Some(Slot::Counter(v)) = self.slots.get_mut(id.index()) {
            *v = v.saturating_add(delta);
        }
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Set a gauge.
    pub fn set(&mut self, id: MetricId, value: u64) {
        if let Some(Slot::Gauge(v)) = self.slots.get_mut(id.index()) {
            *v = value;
        }
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, id: MetricId, value: u64) {
        if let Some(Slot::Histogram(h)) = self.slots.get_mut(id.index()) {
            h.observe(value);
        }
    }

    /// Current value of a counter or gauge (zero for histograms).
    pub fn value(&self, id: MetricId) -> u64 {
        match self.slots.get(id.index()) {
            Some(Slot::Counter(v)) | Some(Slot::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram stored under `id`, if that metric is one.
    pub fn histogram(&self, id: MetricId) -> Option<&Log2Histogram> {
        match self.slots.get(id.index()) {
            Some(Slot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render the registry as JSON Lines: one self-describing JSON object
    /// per metric, scalars and histograms alike, all values integers.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (def, slot) in CATALOG.iter().zip(&self.slots) {
            out.push_str(&render_line(def, slot));
            out.push('\n');
        }
        out
    }

    /// Every `(definition, value)` pair for scalar metrics, in catalog
    /// order — the input for table renderers.
    pub fn scalars(&self) -> Vec<(&'static MetricDef, u64)> {
        CATALOG
            .iter()
            .zip(&self.slots)
            .filter_map(|(def, slot)| match slot {
                Slot::Counter(v) | Slot::Gauge(v) => Some((def, *v)),
                Slot::Histogram(_) => None,
            })
            .collect()
    }

    /// Every `(definition, histogram)` pair, in catalog order.
    pub fn histograms(&self) -> Vec<(&'static MetricDef, &Log2Histogram)> {
        CATALOG
            .iter()
            .zip(&self.slots)
            .filter_map(|(def, slot)| match slot {
                Slot::Histogram(h) => Some((def, h.as_ref())),
                Slot::Counter(_) | Slot::Gauge(_) => None,
            })
            .collect()
    }
}

fn render_line(def: &MetricDef, slot: &Slot) -> String {
    let head = format!(
        "{{\"metric\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\"",
        def.name,
        def.kind.label(),
        def.unit
    );
    match slot {
        Slot::Counter(v) | Slot::Gauge(v) => format!("{head},\"value\":{v}}}"),
        Slot::Histogram(h) => {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(b, c)| format!("{{\"log2\":{b},\"count\":{c}}}"))
                .collect();
            format!(
                "{head},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                buckets.join(",")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Zero gets its own bucket; 1 is the first power-of-two bucket;
        // each bucket b covers [2^(b-1), 2^b).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for b in 1..64usize {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(hi), b, "upper edge of bucket {b}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [0, 1, 3, 8, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1020);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 1); // the one
        assert_eq!(h.bucket(2), 1); // 3
        assert_eq!(h.bucket(4), 2); // both 8s
        assert_eq!(h.bucket(10), 1); // 1000 in [512, 1024)
        assert_eq!(h.nonzero_buckets().len(), 5);
    }

    #[test]
    fn percentile_on_empty_histogram_is_none() {
        let h = Log2Histogram::default();
        for p in [0, 500, 950, 990, 1000] {
            assert_eq!(h.percentile(p), None);
        }
    }

    #[test]
    fn percentile_on_single_sample_is_exact() {
        let mut h = Log2Histogram::default();
        h.observe(37);
        for p in [0, 1, 500, 950, 990, 1000] {
            assert_eq!(h.percentile(p), Some(37), "p{p}");
        }
    }

    #[test]
    fn percentile_in_saturating_bucket_returns_exact_max() {
        let mut h = Log2Histogram::default();
        h.observe(1);
        h.observe(u64::MAX); // lands in the >= 2^63 overflow bucket
        h.observe(u64::MAX - 5);
        assert_eq!(h.percentile(1000), Some(u64::MAX));
        // p667 rank = 2 of 3 -> overflow bucket, clamped to observed max.
        assert_eq!(h.percentile(667), Some(u64::MAX));
        assert_eq!(h.percentile(333), Some(1));
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let mut h = Log2Histogram::default();
        for v in [0, 0, 0, 0, 0, 0, 0, 0, 0, 100] {
            h.observe(v);
        }
        assert_eq!(h.percentile(500), Some(0), "median of mostly zeros");
        assert_eq!(h.percentile(900), Some(0), "rank 9 still in bucket 0");
        assert_eq!(h.percentile(950), Some(100), "rank 10 is the outlier");
        assert_eq!(h.percentile(1000), Some(100));
        // Out-of-range permille clamps to 1000.
        assert_eq!(h.percentile(5000), Some(100));
    }

    #[test]
    fn bucket_upper_brackets_bucket_index() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX - 1, u64::MAX] {
            let b = bucket_index(v);
            assert!(Log2Histogram::bucket_upper(b) >= v);
            if b > 0 {
                assert!(Log2Histogram::bucket_upper(b - 1) < v);
            }
        }
    }

    #[test]
    fn registry_accumulates_by_kind() {
        let mut r = Registry::new();
        r.inc(MetricId::Activates);
        r.add(MetricId::Activates, 4);
        r.set(MetricId::BankCount, 8);
        r.observe(MetricId::FifoOccupancy, 17);
        assert_eq!(r.value(MetricId::Activates), 5);
        assert_eq!(r.value(MetricId::BankCount), 8);
        let h = r.histogram(MetricId::FifoOccupancy).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket(5), 1); // 17 in [16, 32)
    }

    #[test]
    fn mismatched_kinds_are_ignored_not_panics() {
        let mut r = Registry::new();
        r.observe(MetricId::Activates, 3); // counter: ignored
        r.add(MetricId::FifoOccupancy, 3); // histogram: ignored
        r.set(MetricId::Activates, 3); // counter via gauge API: ignored
        assert_eq!(r.value(MetricId::Activates), 0);
        assert_eq!(r.histogram(MetricId::FifoOccupancy).unwrap().count(), 0);
    }

    #[test]
    fn jsonl_is_one_valid_json_object_per_metric() {
        let mut r = Registry::new();
        r.add(MetricId::RunCycles, 1234);
        r.observe(MetricId::OpenSpanCycles, 40);
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), CATALOG.len());
        for line in &lines {
            let v = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("metric").and_then(|m| m.as_str()).is_some());
            assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
        }
        assert!(text.contains(
            "\"metric\":\"run.cycles\",\"kind\":\"counter\",\"unit\":\"cycles\",\"value\":1234"
        ));
        assert!(text.contains("\"buckets\":[{\"log2\":6,\"count\":1}]"));
    }

    #[test]
    fn scalars_and_histograms_partition_the_catalog() {
        let r = Registry::new();
        assert_eq!(r.scalars().len() + r.histograms().len(), CATALOG.len());
    }
}
