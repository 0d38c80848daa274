//! Figure 8: cacheline-fill performance for strided single-stream accesses.
//!
//! The analytic single-stream bounds (Eqs. 5.2/5.3 and 5.7/5.8) over
//! strides 1–32, cross-checked against the simulated natural-order
//! controller.

use serde::Serialize;

use crate::report::{pct, Table};
use crate::{MemorySystem, SystemConfig};

/// One stride sample.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig8Row {
    /// Stride in 64-bit words.
    pub stride: u64,
    /// Analytic CLI bound, percent of peak.
    pub cli_bound: f64,
    /// Analytic PI bound, percent of peak.
    pub pi_bound: f64,
    /// Simulated natural-order CLI, percent of peak.
    pub cli_sim: f64,
    /// Simulated natural-order PI, percent of peak.
    pub pi_sim: f64,
}

/// The figure's data.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// Samples at each stride.
    pub rows: Vec<Fig8Row>,
}

/// Strides plotted in the paper (1 to 32).
pub fn strides() -> Vec<u64> {
    (1..=32).collect()
}

/// Compute the figure: analytic bounds plus a simulated cross-check using a
/// single-read-stream kernel (`scale`'s read side alone would add a write
/// stream, so we run a one-stream read via a custom descriptor through the
/// baseline controller; `run_kernel` with `Fill` is the write analogue).
pub fn run() -> Fig8 {
    let sys = SystemConfig::natural_order(MemorySystem::CacheLineInterleaved).stream_system();
    let rows = super::grid::sweep(&strides(), |&stride| {
        let cli_bound = sys.single_stream(analytic::Organization::CacheLineInterleaved, stride);
        let pi_bound = sys.single_stream(analytic::Organization::PageInterleaved, stride);
        // Simulated single-stream read at this stride: model the stream
        // as the read half of `scale` by running a read-only schedule.
        let cli_sim = simulate_single(MemorySystem::CacheLineInterleaved, stride);
        let pi_sim = simulate_single(MemorySystem::PageInterleaved, stride);
        Fig8Row {
            stride,
            cli_bound,
            pi_bound,
            cli_sim,
            pi_sim,
        }
    });
    Fig8 { rows }
}

/// Simulate a single read stream of 1024 elements in natural order, with a
/// *blocking* controller (one outstanding miss) — the assumption behind the
/// analytic single-stream model.
fn simulate_single(memory: MemorySystem, stride: u64) -> f64 {
    use baseline::BaselineController;
    use smc::StreamDescriptor;

    let cfg = SystemConfig::natural_order(memory);
    let (map, mut dev) = cfg.build_memory().expect("valid system");
    let n = 1024;
    let streams = vec![StreamDescriptor::read("x", 0, stride, n)];
    let mut ctl = BaselineController::new(streams, map, cfg.memory.line_policy(), cfg.line_bytes)
        .with_max_in_flight(1);
    let r = ctl.run_to_completion(&mut dev).expect("fault-free run");
    crate::percent_peak_of(n, r.last_data_cycle, cfg.device.timing.t_pack)
}

impl Fig8 {
    /// Render the figure as an SVG line chart.
    pub fn to_svg(&self) -> String {
        use crate::plot::{LineChart, Series};
        let series = |name: &str, f: &dyn Fn(&Fig8Row) -> f64| {
            Series::new(
                name,
                self.rows.iter().map(|r| (r.stride as f64, f(r))).collect(),
            )
        };
        LineChart::new(
            "Figure 8: cacheline fills for strided single streams",
            "stride (64-bit words)",
            "% of peak bandwidth",
        )
        .with_y_range(0.0, 100.0)
        .with_series(series("CLI bound", &|r| r.cli_bound))
        .with_series(series("PI bound", &|r| r.pi_bound))
        .with_series(series("CLI sim", &|r| r.cli_sim))
        .with_series(series("PI sim", &|r| r.pi_sim))
        .render_svg()
    }

    /// Export the series as CSV.
    pub fn to_csv(&self) -> String {
        let mut t = Table::new(
            ["stride", "cli_bound", "pi_bound", "cli_sim", "pi_sim"]
                .map(String::from)
                .to_vec(),
        );
        for r in &self.rows {
            t.row(vec![
                r.stride.to_string(),
                format!("{:.3}", r.cli_bound),
                format!("{:.3}", r.pi_bound),
                format!("{:.3}", r.cli_sim),
                format!("{:.3}", r.pi_sim),
            ]);
        }
        t.to_csv()
    }

    /// Render the stride table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "stride".into(),
            "CLI bound %".into(),
            "PI bound %".into(),
            "CLI sim %".into(),
            "PI sim %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.stride.to_string(),
                pct(r.cli_bound),
                pct(r.pi_bound),
                pct(r.cli_sim),
                pct(r.pi_sim),
            ]);
        }
        format!(
            "Figure 8: cacheline fill performance for strided single-stream reads\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_fall_with_stride_then_flatten_on_cli() {
        let f = run();
        let at = |s: u64| f.rows.iter().find(|r| r.stride == s).copied().unwrap();
        assert!(at(1).cli_bound > at(2).cli_bound);
        assert!(at(2).cli_bound > at(4).cli_bound);
        assert!((at(4).cli_bound - at(32).cli_bound).abs() < 1e-9);
        // Large strides deliver ~10% or less of potential (paper text).
        assert!(at(8).cli_bound < 10.0);
    }

    #[test]
    fn simulation_tracks_the_bounds() {
        // The analytic bounds assume back-to-back line fills (Eq. 5.3); the
        // blocking simulation additionally exposes each fill's tail latency,
        // so it lands below the bound but in the same regime.
        let f = run();
        for r in &f.rows {
            for (sim, bound, org) in [
                (r.cli_sim, r.cli_bound, "CLI"),
                (r.pi_sim, r.pi_bound, "PI"),
            ] {
                assert!(
                    sim <= bound + 2.0,
                    "stride {}: {org} sim {sim} above bound {bound}",
                    r.stride
                );
                assert!(
                    sim > 0.5 * bound,
                    "stride {}: {org} sim {sim} far below bound {bound}",
                    r.stride
                );
            }
        }
    }

    #[test]
    fn pi_dominates_cli_at_every_stride() {
        for r in run().rows {
            assert!(r.pi_bound > r.cli_bound, "stride {}", r.stride);
        }
    }
}
