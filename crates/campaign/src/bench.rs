//! Executor throughput measurement: run the same campaign at a ladder of
//! worker counts and record runs/second for each, so parallel speedup is
//! a measured artifact (`BENCH_campaign.json`), not a claim.

use std::time::Instant;

use serde_json::Value;

use crate::spec::{CampaignSpec, RunPoint};
use crate::store::Outcome;
use crate::{expand, run_points};

/// Throughput of one worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSample {
    /// Worker threads used.
    pub workers: usize,
    /// Runs executed (the deduplicated grid size).
    pub runs: usize,
    /// Wall-clock microseconds for the whole campaign.
    pub micros: u64,
    /// Throughput in milli-runs/second (`2500` = 2.5 runs/s), integer so
    /// the crate stays inside the no-float lint.
    pub runs_per_sec_milli: u64,
}

/// The full benchmark: one sample per worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Campaign name.
    pub campaign: String,
    /// Deduplicated grid size.
    pub total_points: usize,
    /// One sample per requested worker count, in request order.
    pub samples: Vec<BenchSample>,
}

impl BenchReport {
    /// Speedup of the fastest sample over the 1-worker sample, in
    /// milli-x (`2000` = 2.0×). `None` without a 1-worker baseline.
    pub fn best_speedup_milli(&self) -> Option<u64> {
        let base = self
            .samples
            .iter()
            .find(|s| s.workers == 1)?
            .runs_per_sec_milli;
        if base == 0 {
            return None;
        }
        let best = self.samples.iter().map(|s| s.runs_per_sec_milli).max()?;
        Some(((best as u128) * 1000 / (base as u128)) as u64)
    }

    /// Render as pretty JSON (the `BENCH_campaign.json` format).
    pub fn to_json(&self) -> String {
        let samples: Vec<Value> = self
            .samples
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("workers".into(), Value::UInt(s.workers as u64)),
                    ("runs".into(), Value::UInt(s.runs as u64)),
                    ("micros".into(), Value::UInt(s.micros)),
                    (
                        "runs_per_sec_milli".into(),
                        Value::UInt(s.runs_per_sec_milli),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema".into(), Value::UInt(crate::SCHEMA_VERSION)),
            ("kind".into(), Value::String("campaign-bench".into())),
            ("campaign".into(), Value::String(self.campaign.clone())),
            ("total_points".into(), Value::UInt(self.total_points as u64)),
            ("samples".into(), Value::Array(samples)),
        ];
        if let Some(speedup) = self.best_speedup_milli() {
            fields.push(("best_speedup_milli".into(), Value::UInt(speedup)));
        }
        let text = serde_json::to_string_pretty(&Value::Object(fields));
        text.unwrap_or_default()
    }
}

/// Run `spec` once per entry of `worker_counts` and time each pass.
///
/// Duplicate worker counts are measured again, not cached — the point is
/// wall-clock truth. Results of the runs themselves are discarded; use
/// [`crate::run_campaign`] for the store.
pub fn bench_campaign<F>(spec: &CampaignSpec, worker_counts: &[usize], runner: &F) -> BenchReport
where
    F: Fn(&RunPoint) -> Outcome + Sync,
{
    let points = expand(spec);
    let mut samples = Vec::with_capacity(worker_counts.len());
    for &workers in worker_counts {
        let start = Instant::now();
        let store = run_points(&spec.name, &points, workers, runner, None);
        let micros_u128 = start.elapsed().as_micros().max(1);
        let micros = u64::try_from(micros_u128).unwrap_or(u64::MAX);
        let runs = store.records.len();
        let runs_per_sec_milli =
            u64::try_from((runs as u128) * 1_000_000_000 / micros_u128).unwrap_or(u64::MAX);
        samples.push(BenchSample {
            workers,
            runs,
            micros,
            runs_per_sec_milli,
        });
    }
    BenchReport {
        campaign: spec.name.clone(),
        total_points: points.len(),
        samples,
    }
}

/// Gate a fresh campaign benchmark against a committed
/// `BENCH_campaign.json` baseline: the best throughput measured now must
/// be at least `floor_permille`/1000 of the committed best. One aggregate
/// comparison (rather than per-worker-count) keeps the gate robust to CI
/// machines with different core counts; the coarse floor catches
/// order-of-magnitude executor regressions, not scheduling noise.
///
/// # Errors
///
/// A malformed baseline document, an empty current report, or a rendered
/// regression message.
pub fn compare_to_baseline(
    baseline_json: &str,
    current: &BenchReport,
    floor_permille: u64,
) -> Result<String, String> {
    let doc: Value = serde_json::from_str(baseline_json)
        .map_err(|e| format!("bad campaign bench baseline: {e}"))?;
    let samples = doc["samples"]
        .as_array()
        .ok_or_else(|| "campaign bench baseline has no `samples` array".to_string())?;
    let committed_best = samples
        .iter()
        .filter_map(|s| s["runs_per_sec_milli"].as_u64())
        .max()
        .ok_or_else(|| "campaign bench baseline has no throughput samples".to_string())?;
    let current_best = current
        .samples
        .iter()
        .map(|s| s.runs_per_sec_milli)
        .max()
        .ok_or_else(|| "current campaign bench has no samples".to_string())?;
    if committed_best == 0 {
        return Ok("campaign bench gate: CLEAN (baseline recorded zero throughput)".to_string());
    }
    let ratio_permille =
        u64::try_from(u128::from(current_best) * 1000 / u128::from(committed_best))
            .unwrap_or(u64::MAX);
    if ratio_permille < floor_permille {
        return Err(format!(
            "campaign bench gate: REGRESSION\n  best {current_best} milli-runs/s vs \
             committed {committed_best} ({ratio_permille} permille < floor {floor_permille})"
        ));
    }
    Ok(format!(
        "campaign bench gate: CLEAN (best {current_best} milli-runs/s, \
         {ratio_permille} permille of baseline)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunStats;

    #[test]
    fn bench_measures_every_worker_count() {
        let mut spec = CampaignSpec::named("bench-t");
        spec.axes.lengths = vec![16, 32, 64, 128];
        let report = bench_campaign(&spec, &[1, 2, 4], &|p| {
            Outcome::Ok(RunStats {
                cycles: p.n,
                ..RunStats::default()
            })
        });
        assert_eq!(report.total_points, 4);
        assert_eq!(report.samples.len(), 3);
        assert_eq!(
            report.samples.iter().map(|s| s.workers).collect::<Vec<_>>(),
            [1, 2, 4]
        );
        assert!(report.samples.iter().all(|s| s.runs == 4));
        assert!(report.samples.iter().all(|s| s.runs_per_sec_milli > 0));
        assert!(report.best_speedup_milli().is_some());
        let json = report.to_json();
        assert!(json.contains("\"kind\": \"campaign-bench\""));
        assert!(json.contains("\"best_speedup_milli\""));
        let parsed = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["total_points"], 4usize);
    }

    #[test]
    fn speedup_needs_a_serial_baseline() {
        let report = BenchReport {
            campaign: "t".into(),
            total_points: 0,
            samples: vec![BenchSample {
                workers: 2,
                runs: 0,
                micros: 1,
                runs_per_sec_milli: 0,
            }],
        };
        assert_eq!(report.best_speedup_milli(), None);
    }

    #[test]
    fn baseline_gate_compares_best_throughput() {
        let committed = BenchReport {
            campaign: "t".into(),
            total_points: 4,
            samples: vec![
                BenchSample {
                    workers: 1,
                    runs: 4,
                    micros: 1000,
                    runs_per_sec_milli: 4_000_000,
                },
                BenchSample {
                    workers: 4,
                    runs: 4,
                    micros: 400,
                    runs_per_sec_milli: 10_000_000,
                },
            ],
        };
        let baseline = committed.to_json();
        let verdict = compare_to_baseline(&baseline, &committed, 500).unwrap();
        assert!(verdict.contains("CLEAN"), "{verdict}");

        let mut slow = committed.clone();
        for s in &mut slow.samples {
            s.runs_per_sec_milli /= 1000;
        }
        let err = compare_to_baseline(&baseline, &slow, 50).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");

        assert!(compare_to_baseline("{nope", &committed, 50).is_err());
        assert!(compare_to_baseline("{}", &committed, 50).is_err());
        let empty = BenchReport {
            campaign: "t".into(),
            total_points: 0,
            samples: Vec::new(),
        };
        assert!(compare_to_baseline(&baseline, &empty, 50).is_err());
    }
}
