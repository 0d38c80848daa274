//! Grid expansion: turn a [`CampaignSpec`]'s axes into the deterministic,
//! deduplicated list of [`RunPoint`]s it describes.

use std::collections::BTreeSet;

use crate::params::{expansion_order, Param, Val};
use crate::spec::{CampaignSpec, RunPoint};

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — the basis of deterministic run IDs. Chosen over
/// `DefaultHasher` because the standard library's hasher is explicitly
/// not stable across releases, and run IDs must match committed goldens
/// forever.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET_BASIS, bytes)
}

/// FNV-1a 64-bit hash of `bytes` starting from an explicit offset `basis`,
/// for callers that fold a seed into the hash.
pub fn fnv1a64_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Expand `spec` into its run points.
///
/// The walk nests the axes in [`expansion_order`] (kernel, memory, order,
/// fifo, then the rest in record order), which is part of the store
/// format: it fixes the record order of every campaign, independent of
/// worker count. A parameter whose collapse rule holds for the point built
/// so far is pinned to its default instead of walking its axis (natural
/// order ignores `fifo`, a clean run pins `fault_seed` to 0, ...), so the
/// grid is free of synonymous points before dedup even runs. Points
/// matching any exclusion clause are dropped, and exact duplicates (e.g. a
/// repeated axis value) are collapsed to their first occurrence.
pub fn expand(spec: &CampaignSpec) -> Vec<RunPoint> {
    let axes: Vec<(&Param, Vec<Val<'_>>)> = expansion_order()
        .map(|param| (param, (param.axis)(&spec.axes)))
        .collect();
    let mut seen = BTreeSet::new();
    let mut points = Vec::new();
    walk(&axes, &mut RunPoint::default(), &mut |point| {
        if !spec.exclude.iter().any(|x| x.matches(point)) && seen.insert(point.key()) {
            points.push(point.clone());
        }
    });
    points
}

/// Set the first axis of `axes` on `point` to each of its values in turn
/// (or to its default, when its collapse rule holds) and recurse on the
/// rest; at the bottom, hand the finished point to `leaf`.
fn walk(axes: &[(&Param, Vec<Val<'_>>)], point: &mut RunPoint, leaf: &mut dyn FnMut(&RunPoint)) {
    let Some(((param, values), rest)) = axes.split_first() else {
        return leaf(point);
    };
    let pinned = param.collapse.is_some_and(|c| (c.holds)(point));
    let values = if pinned {
        std::slice::from_ref(&param.default)
    } else {
        values.as_slice()
    };
    for value in values {
        (param.set)(point, value);
        walk(rest, point, leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axes, Exclude, Order};

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn default_spec_is_a_single_point() {
        let spec = CampaignSpec::named("t");
        let points = expand(&spec);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].kernel, "daxpy");
        assert_eq!(points[0].order, Order::Smc { fifo: 64 });
    }

    #[test]
    fn explicitly_empty_axis_yields_zero_points() {
        let mut spec = CampaignSpec::named("t");
        spec.axes.kernels = Vec::new();
        assert!(expand(&spec).is_empty());
        let mut spec = CampaignSpec::named("t");
        spec.axes.fifos = Vec::new();
        assert!(expand(&spec).is_empty(), "smc points need a fifo depth");
        // Natural-order points pin `fifo`, so they do not.
        spec.axes.orders = vec!["natural".into()];
        assert_eq!(expand(&spec).len(), 1);
    }

    #[test]
    fn duplicate_axis_values_dedupe_not_double_run() {
        let mut spec = CampaignSpec::named("t");
        spec.axes.kernels = vec!["copy".into(), "copy".into()];
        spec.axes.lengths = vec![128, 128, 1024];
        let points = expand(&spec);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].n, 128);
        assert_eq!(points[1].n, 1024);
    }

    #[test]
    fn excludes_can_filter_to_zero() {
        let mut spec = CampaignSpec::named("t");
        spec.exclude.push(Exclude {
            fields: vec![("kernel", Val::Str("daxpy".into()))],
        });
        assert!(expand(&spec).is_empty());
    }

    #[test]
    fn expansion_order_is_deterministic() {
        let mut spec = CampaignSpec::named("t");
        spec.axes = Axes {
            kernels: vec!["copy".into(), "daxpy".into()],
            orders: vec!["smc".into(), "natural".into()],
            memories: vec!["cli".into(), "pi".into()],
            fifos: vec![16, 64],
            lengths: vec![128, 1024],
            ..Axes::default()
        };
        let a = expand(&spec);
        let b = expand(&spec);
        assert_eq!(a, b);
        // 2 kernels x 2 memories x (2 fifos + 1 natural) x 2 lengths.
        assert_eq!(a.len(), 2 * 2 * 3 * 2);
        // Kernel is the outermost axis.
        assert!(a[..12].iter().all(|p| p.kernel == "copy"));
        assert!(a[12..].iter().all(|p| p.kernel == "daxpy"));
    }
}
