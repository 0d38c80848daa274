//! One pass over a workload's inputs: the work whose host time the
//! end-to-end metrics report. Nothing here reads a clock or records spans.

use campaign::Outcome;
use rdram::WORDS_PER_PACKET;

use crate::inputs::{Inputs, ServeInputs, StreamPoint};

/// What one pass simulated, and whether its outputs passed the checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassOutcome {
    /// Simulated cycles summed over the pass.
    pub sim_cycles: u64,
    /// Useful 64-bit words moved, times the packet time: the Eq. 5.1
    /// numerator before dividing by the words per packet.
    pub useful_word_cycles: u64,
    /// Operations attempted: kernel runs, or serve requests.
    pub attempted: u64,
    /// Operations that completed (runs that returned `Ok`, requests served).
    pub served: u64,
    /// Operations that failed with an error.
    pub failed: u64,
    /// FNV-1a over every simulated statistic of the pass.
    pub digest: u64,
    /// The rendered campaign store (campaign workload only), for the
    /// worker-count check.
    pub store: Option<String>,
    /// Failed output checks, one message each.
    pub problems: Vec<String>,
}

impl PassOutcome {
    /// Effective bandwidth over the whole pass, in permille of one
    /// channel's peak (Eq. 5.1 aggregated over every run).
    pub fn bw_permille(&self) -> f64 {
        if self.sim_cycles == 0 {
            return 0.0;
        }
        1000.0 * self.useful_word_cycles as f64 / WORDS_PER_PACKET as f64 / self.sim_cycles as f64
    }

    /// Completed operations per thousand attempted.
    pub fn served_permille(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1000.0 * self.served as f64 / self.attempted as f64
    }
}

/// Run one pass. `workers` is the campaign executor's thread count; other
/// workloads run on the calling thread.
pub fn run_pass(inputs: &Inputs, workers: usize) -> PassOutcome {
    match inputs {
        Inputs::Streams(points) => stream_pass(points),
        Inputs::Campaign { points, spec } => campaign_pass(&spec.name, points, workers),
        Inputs::Serve(serve) => serve_pass(serve),
    }
}

/// The set-up phase's warm-up: run the first point (the first serve
/// request for `serve-chaos`) once, untimed and on this thread, so lazy
/// initialisation and first-touch costs stay out of the timed passes.
pub fn warm_up(inputs: &Inputs) {
    match inputs {
        Inputs::Streams(points) => {
            if let Some(p) = points.first() {
                let _ = std::hint::black_box(sim::run_kernel(p.kernel, p.n, p.stride, &p.cfg));
            }
        }
        Inputs::Campaign { points, .. } => {
            if let Some(p) = points.first() {
                std::hint::black_box(sim::sweep::run_point(p));
            }
        }
        Inputs::Serve(s) => {
            if let Some(t) = s.mix.tenants.first() {
                let req = tenancy::Request {
                    tenant: 0,
                    seq: 0,
                    submitted_at: 0,
                    deadline_at: u64::MAX,
                };
                let exec = sim::serve::SimExecutor::new(s.base.clone());
                let _ = std::hint::black_box(tenancy::Executor::execute(&exec, t, &req));
            }
        }
    }
}

fn stream_pass(points: &[StreamPoint]) -> PassOutcome {
    let mut out = PassOutcome::default();
    let mut text = String::new();
    for p in points {
        out.attempted += 1;
        // `verify` is on: run_kernel checks the memory image bit-exactly
        // against the scalar reference and panics on any divergence.
        match sim::run_kernel(p.kernel, p.n, p.stride, &p.cfg) {
            Ok(r) => {
                out.served += 1;
                out.sim_cycles += r.cycles;
                out.useful_word_cycles += r.useful_words * r.t_pack();
                text.push_str(&format!(
                    "{}|{}|{:?}|{:?}|{:?}|{:?}\n",
                    p.label(),
                    r.cycles,
                    r.device_stats,
                    r.msu_stats,
                    r.baseline,
                    r.chaos_stats
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("{}: {e}", p.label()));
            }
        }
    }
    out.digest = campaign::fnv1a64(text.as_bytes());
    out
}

fn campaign_pass(name: &str, points: &[campaign::RunPoint], workers: usize) -> PassOutcome {
    let store = campaign::run_points(name, points, workers, &sim::sweep::run_point, None);
    let jsonl = store.to_jsonl();
    let t_pack = rdram::DeviceConfig::default().timing.t_pack;
    let mut out = PassOutcome::default();
    for rec in &store.records {
        out.attempted += 1;
        match &rec.outcome {
            Outcome::Ok(stats) => {
                out.served += 1;
                out.sim_cycles += stats.cycles;
                out.useful_word_cycles += stats.useful_words * t_pack;
            }
            Outcome::Error(e) => {
                out.failed += 1;
                out.problems.push(format!("{}: {e}", rec.point.key()));
            }
        }
    }
    out.digest = campaign::fnv1a64(jsonl.as_bytes());
    out.store = Some(jsonl);
    out
}

fn serve_pass(s: &ServeInputs) -> PassOutcome {
    let mut out = PassOutcome {
        attempted: s.mix.total_requests(),
        ..PassOutcome::default()
    };
    let (report, _trace, chaos) = match sim::serve::run_serve_chaos(&s.mix, &s.cfg, &s.base) {
        Ok(done) => done,
        Err(e) => {
            out.failed = out.attempted;
            out.problems.push(format!("serve failed: {e}"));
            return out;
        }
    };
    let (_submitted, completed, failed, _shed, rejected, _misses, words) = report.totals();
    out.served = completed;
    out.failed = failed;
    out.sim_cycles = report.tenants.iter().map(|t| t.service_cycles).sum();
    out.useful_word_cycles = words * s.base.device.timing.t_pack;
    if failed > 0 {
        out.problems
            .push(format!("{failed} requests failed in the executor"));
    }
    if report.budget_violations != 0 {
        out.problems.push(format!(
            "{} dispatches granted in budget debt",
            report.budget_violations
        ));
    }
    if chaos.outages_observed == 0 {
        out.problems
            .push("no outage window was observed".to_string());
    }
    if rejected == 0 {
        out.problems.push("no request was rejected".to_string());
    }
    if let Err(e) = report.check_conservation() {
        out.problems.push(e);
    }
    out.digest = campaign::fnv1a64(format!("{report:?}|{chaos:?}").as_bytes());
    out
}
