//! Prometheus-style text exposition of the metrics registry.
//!
//! Renders every catalog metric in the Prometheus text format (v0.0.4):
//! `# HELP` / `# TYPE` comment pairs followed by samples, with histograms
//! expanded into cumulative `_bucket{le="..."}` series plus `_sum` and
//! `_count`. All values are integers — the registry is integer-only, and
//! the log2 bucket upper bounds are exact `u64`s, so no floats appear in
//! the output (Prometheus parses integer literals fine).
//!
//! [`parse`] is the matching validator: it checks the structural rules a
//! scraper relies on (every sample declared by a TYPE, cumulative bucket
//! monotonicity, `+Inf` equal to `_count`) so CI can gate the artifact.

use crate::registry::{Log2Histogram, Registry};

/// Prefix applied to every exposed metric name.
pub const NAME_PREFIX: &str = "smcsim_";

/// Mangle a dotted catalog name into a Prometheus metric name:
/// `device.data_busy_cycles` becomes `smcsim_device_data_busy_cycles`.
pub fn exposition_name(catalog_name: &str) -> String {
    let mut out = String::with_capacity(NAME_PREFIX.len() + catalog_name.len());
    out.push_str(NAME_PREFIX);
    for ch in catalog_name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a registry in the Prometheus text exposition format.
pub fn to_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for (def, value) in registry.scalars() {
        let name = exposition_name(def.name);
        out.push_str(&format!("# HELP {name} {}\n", def.help));
        out.push_str(&format!("# TYPE {name} {}\n", def.kind.label()));
        out.push_str(&format!("{name} {value}\n"));
    }
    for (def, hist) in registry.histograms() {
        let name = exposition_name(def.name);
        out.push_str(&format!("# HELP {name} {}\n", def.help));
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for (b, c) in hist.nonzero_buckets() {
            cum += c;
            // The overflow bucket's upper bound is the +Inf series itself.
            if b < crate::registry::HISTOGRAM_BUCKETS - 1 {
                let le = Log2Histogram::bucket_upper(b);
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count()));
        out.push_str(&format!("{name}_sum {}\n", hist.sum()));
        out.push_str(&format!("{name}_count {}\n", hist.count()));
    }
    out
}

/// What [`parse`] learned about an exposition document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// `# TYPE`-declared metric families.
    pub families: usize,
    /// Sample lines (non-comment, non-blank).
    pub samples: usize,
    /// Families declared as histograms.
    pub histograms: usize,
}

/// Split `name{labels} value` / `name value` into its parts.
fn split_sample(line: &str) -> Option<(&str, Option<&str>, &str)> {
    let (head, value) = line.rsplit_once(' ')?;
    let head = head.trim_end();
    if let Some(open) = head.find('{') {
        let close = head.rfind('}')?;
        if close < open {
            return None;
        }
        Some((&head[..open], Some(&head[open + 1..close]), value))
    } else {
        Some((head, None, value))
    }
}

/// Base family for a sample name: strips `_bucket`/`_sum`/`_count` when the
/// remainder is a declared histogram family.
fn family_of<'a>(name: &'a str, histograms: &[String]) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if histograms.iter().any(|h| h == base) {
                return base;
            }
        }
    }
    name
}

/// Validate a Prometheus text exposition document.
///
/// Checks that every sample belongs to a `# TYPE`-declared family, that
/// every value is a `u64` integer, that each histogram's `_bucket` series
/// is cumulative (non-decreasing in `le` order with integer bounds in
/// increasing order), and that the `+Inf` bucket equals `_count`.
///
/// # Errors
///
/// A human-readable message naming the first offending line or family.
pub fn parse(text: &str) -> Result<ExpositionSummary, String> {
    let mut families: Vec<String> = Vec::new();
    let mut histograms: Vec<String> = Vec::new();
    let mut samples = 0usize;
    /// Running validation state for one histogram family.
    struct BucketState {
        family: String,
        last_bound: Option<u64>,
        last_cum: u64,
        inf: Option<u64>,
        count: Option<u64>,
    }
    let mut bucket_state: Vec<BucketState> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if name.is_empty() || kind.is_empty() {
                return Err(format!("line {}: malformed TYPE comment", lineno + 1));
            }
            if families.iter().any(|f| f == name) {
                return Err(format!("line {}: duplicate TYPE for {name}", lineno + 1));
            }
            families.push(name.to_string());
            if kind == "histogram" {
                histograms.push(name.to_string());
                bucket_state.push(BucketState {
                    family: name.to_string(),
                    last_bound: None,
                    last_cum: 0,
                    inf: None,
                    count: None,
                });
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value) =
            split_sample(line).ok_or_else(|| format!("line {}: malformed sample", lineno + 1))?;
        let family = family_of(name, &histograms);
        if !families.iter().any(|f| f == family) {
            return Err(format!(
                "line {}: sample {name} has no TYPE declaration",
                lineno + 1
            ));
        }
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {}: non-integer value `{value}`", lineno + 1))?;
        samples += 1;

        if let Some(state) = bucket_state.iter_mut().find(|s| s.family == family) {
            if name.ends_with("_bucket") {
                let le = labels
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {}: bucket without le label", lineno + 1))?;
                if le == "+Inf" {
                    state.inf = Some(value);
                } else {
                    let bound: u64 = le.parse().map_err(|_| {
                        format!("line {}: non-integer bucket bound `{le}`", lineno + 1)
                    })?;
                    if state.last_bound.is_some_and(|prev| bound <= prev) {
                        return Err(format!(
                            "line {}: bucket bounds not increasing for {family}",
                            lineno + 1
                        ));
                    }
                    if value < state.last_cum {
                        return Err(format!(
                            "line {}: cumulative bucket counts decreased for {family}",
                            lineno + 1
                        ));
                    }
                    state.last_bound = Some(bound);
                    state.last_cum = value;
                }
            } else if name.ends_with("_count") {
                state.count = Some(value);
            }
        }
    }

    for state in &bucket_state {
        let family = &state.family;
        let (Some(inf), Some(count)) = (state.inf, state.count) else {
            return Err(format!("histogram {family} is missing +Inf or _count"));
        };
        if inf != count {
            return Err(format!(
                "histogram {family}: +Inf bucket {inf} != _count {count}"
            ));
        }
        if state.last_cum > inf {
            return Err(format!(
                "histogram {family}: finite buckets exceed +Inf ({} > {inf})",
                state.last_cum
            ));
        }
    }

    Ok(ExpositionSummary {
        families: families.len(),
        samples,
        histograms: histograms.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MetricId, CATALOG};

    #[test]
    fn name_mangling_replaces_dots() {
        assert_eq!(
            exposition_name("device.data_busy_cycles"),
            "smcsim_device_data_busy_cycles"
        );
    }

    #[test]
    fn full_registry_round_trips_through_the_validator() {
        let mut r = Registry::new();
        r.add(MetricId::RunCycles, 1234);
        r.set(MetricId::BankCount, 8);
        for v in [0, 3, 17, 17, 40_000] {
            r.observe(MetricId::ServeLatencyCycles, v);
        }
        let text = to_prometheus(&r);
        let summary = parse(&text).expect("valid exposition");
        assert_eq!(summary.families, CATALOG.len());
        let hist_count = CATALOG
            .iter()
            .filter(|d| d.kind == crate::catalog::MetricKind::Histogram)
            .count();
        assert_eq!(summary.histograms, hist_count);
        assert!(text.contains("smcsim_run_cycles 1234\n"));
        assert!(text.contains("smcsim_serve_latency_cycles_count 5\n"));
        assert!(text.contains("smcsim_serve_latency_cycles_bucket{le=\"+Inf\"} 5\n"));
        // 0 -> bucket 0 (le="0"), 3 -> bucket 2 (le="3"), 17s -> bucket 5
        // (le="31"), 40000 -> bucket 16 (le="65535"); cumulative counts.
        assert!(text.contains("smcsim_serve_latency_cycles_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("smcsim_serve_latency_cycles_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("smcsim_serve_latency_cycles_bucket{le=\"31\"} 4\n"));
        assert!(text.contains("smcsim_serve_latency_cycles_bucket{le=\"65535\"} 5\n"));
    }

    #[test]
    fn validator_rejects_undeclared_samples() {
        let err = parse("mystery_metric 3\n").unwrap_err();
        assert!(err.contains("no TYPE declaration"), "{err}");
    }

    #[test]
    fn validator_rejects_non_integer_values() {
        let text = "# TYPE m gauge\nm 1.5\n";
        let err = parse(text).unwrap_err();
        assert!(err.contains("non-integer"), "{err}");
    }

    #[test]
    fn validator_rejects_non_cumulative_histograms() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"3\"} 2\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        let err = parse(text).unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }

    #[test]
    fn validator_rejects_inf_count_mismatch() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 4\n\
                    h_sum 9\nh_count 5\n";
        let err = parse(text).unwrap_err();
        assert!(err.contains("!= _count"), "{err}");
    }

    #[test]
    fn validator_rejects_duplicate_type() {
        let text = "# TYPE m gauge\n# TYPE m counter\nm 1\n";
        assert!(parse(text).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn empty_histograms_still_expose_inf_sum_count() {
        let text = to_prometheus(&Registry::new());
        let summary = parse(&text).expect("valid exposition");
        assert!(summary.samples > 0);
        assert!(text.contains("smcsim_smc_fifo_occupancy_bucket{le=\"+Inf\"} 0\n"));
    }
}
