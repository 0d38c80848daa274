//! Sample summaries and host measurements.

/// Median of `samples` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(samples, n=4)`); both equal the sample for a
/// single sample, 0 when empty.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    match len {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let at = |i: usize| {
                let m = i * (len + 1);
                let j = (m / 4).clamp(1, len - 1);
                let delta = (m as f64 - 4.0 * j as f64) / 4.0;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (at(1), at(3))
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// A message when `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
