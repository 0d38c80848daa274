//! Baseline comparison: diff a fresh campaign store against a committed
//! golden store and fail on regressions beyond an integer tolerance.

use crate::store::{milli_percent, Outcome, ResultsStore};

/// Allowed drift before a difference counts as a regression. The default
/// is zero on both axes: the simulator is deterministic, so any change
/// to cycles or bandwidth is a real behavioural change until a human
/// loosens the gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tolerance {
    /// Allowed relative cycle drift in permille of the golden value
    /// (10 = ±1.0%).
    pub cycles_permille: u64,
    /// Allowed absolute bandwidth drift in milli-percent of peak
    /// (250 = ±0.250 percentage points).
    pub peak_milli: u64,
}

/// One regression: which run drifted and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Run ID of the drifting record.
    pub run_id: String,
    /// Config fingerprint, for humans reading the report.
    pub key: String,
    /// Human-readable description of the drift.
    pub what: String,
}

/// Outcome of diffing a current store against a golden store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Runs present in both stores and compared.
    pub compared: usize,
    /// Runs that drifted beyond tolerance (including status changes).
    pub regressions: Vec<Drift>,
    /// Run IDs in the golden store but not the current one.
    pub missing: Vec<String>,
    /// Run IDs in the current store but not the golden one.
    pub extra: Vec<String>,
}

impl DiffReport {
    /// Whether the current store matches the golden within tolerance:
    /// no regressions and no missing runs. Extra runs are reported but
    /// do not fail the gate — a grown campaign is not a regression.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("compared {} runs against golden\n", self.compared));
        for drift in &self.regressions {
            out.push_str(&format!(
                "REGRESSION {} ({}): {}\n",
                drift.run_id, drift.key, drift.what
            ));
        }
        for id in &self.missing {
            out.push_str(&format!(
                "MISSING {id}: in golden but not in current store\n"
            ));
        }
        for id in &self.extra {
            out.push_str(&format!("extra {id}: in current store but not in golden\n"));
        }
        out.push_str(if self.is_clean() {
            "verdict: CLEAN\n"
        } else {
            "verdict: REGRESSED\n"
        });
        out
    }
}

fn drift_exceeds_relative(golden: u64, current: u64, permille: u64) -> bool {
    let delta = golden.abs_diff(current);
    // delta/golden > permille/1000, in integer math. A zero golden only
    // tolerates an exactly-zero current value.
    (delta as u128) * 1000 > (permille as u128) * (golden as u128)
}

/// Compare `current` against `golden`, matching records by run ID.
///
/// A status flip (ok↔error, or a changed error message) is always a
/// regression regardless of tolerance; for ok/ok pairs, cycles are
/// checked relatively ([`Tolerance::cycles_permille`]) and bandwidth
/// absolutely ([`Tolerance::peak_milli`]). Improvements beyond tolerance
/// are also flagged — a golden that no longer describes reality should
/// be regenerated, not silently outgrown.
pub fn diff_stores(golden: &ResultsStore, current: &ResultsStore, tol: Tolerance) -> DiffReport {
    let mut report = DiffReport::default();
    for gold in &golden.records {
        let Some(cur) = current.find(&gold.run_id) else {
            report.missing.push(gold.run_id.clone());
            continue;
        };
        report.compared += 1;
        let drift = |what: String| Drift {
            run_id: gold.run_id.clone(),
            key: gold.point.key(),
            what,
        };
        match (&gold.outcome, &cur.outcome) {
            (Outcome::Ok(g), Outcome::Ok(c)) => {
                if drift_exceeds_relative(g.cycles, c.cycles, tol.cycles_permille) {
                    report.regressions.push(drift(format!(
                        "cycles {} -> {} (tolerance {} permille)",
                        g.cycles, c.cycles, tol.cycles_permille
                    )));
                }
                if g.percent_peak_milli.abs_diff(c.percent_peak_milli) > tol.peak_milli {
                    report.regressions.push(drift(format!(
                        "percent-of-peak {} -> {} (tolerance {} milli)",
                        milli_percent(g.percent_peak_milli),
                        milli_percent(c.percent_peak_milli),
                        tol.peak_milli
                    )));
                }
            }
            (Outcome::Ok(_), Outcome::Error(e)) => {
                report
                    .regressions
                    .push(drift(format!("previously ok, now fails: {e}")));
            }
            (Outcome::Error(e), Outcome::Ok(_)) => {
                report.regressions.push(drift(format!(
                    "previously failed ({e}), now succeeds — regenerate the golden"
                )));
            }
            (Outcome::Error(g), Outcome::Error(c)) => {
                if g != c {
                    report
                        .regressions
                        .push(drift(format!("error changed: {g:?} -> {c:?}")));
                }
            }
        }
    }
    for cur in &current.records {
        if golden.find(&cur.run_id).is_none() {
            report.extra.push(cur.run_id.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunPoint;
    use crate::store::RunRecord;
    use crate::RunStats;

    fn store_with(cycles: &[(u64, u64)]) -> ResultsStore {
        // One record per (fifo, cycles) pair; fifo keys the run identity.
        ResultsStore {
            campaign: "t".into(),
            records: cycles
                .iter()
                .map(|&(fifo, cycles)| {
                    let point = RunPoint::smoke("copy", fifo);
                    RunRecord {
                        run_id: point.run_id(),
                        point,
                        outcome: Outcome::Ok(RunStats {
                            cycles,
                            percent_peak_milli: 90_000,
                            ..RunStats::default()
                        }),
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn identical_stores_are_clean() {
        let a = store_with(&[(8, 100), (16, 200)]);
        let report = diff_stores(&a, &a.clone(), Tolerance::default());
        assert!(report.is_clean());
        assert_eq!(report.compared, 2);
        assert!(report.render().contains("CLEAN"));
    }

    #[test]
    fn cycle_drift_beyond_tolerance_regresses() {
        let golden = store_with(&[(8, 1000)]);
        let current = store_with(&[(8, 1011)]);
        // 1.1% drift: fails at 10 permille, passes at 11.
        let tight = diff_stores(
            &golden,
            &current,
            Tolerance {
                cycles_permille: 10,
                peak_milli: 0,
            },
        );
        assert_eq!(tight.regressions.len(), 1);
        assert!(tight.regressions[0].what.contains("cycles 1000 -> 1011"));
        let loose = diff_stores(
            &golden,
            &current,
            Tolerance {
                cycles_permille: 11,
                peak_milli: 0,
            },
        );
        assert!(loose.is_clean());
        // Improvements are flagged too.
        let faster = store_with(&[(8, 900)]);
        let report = diff_stores(&golden, &faster, Tolerance::default());
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn bandwidth_drift_uses_absolute_milli_tolerance() {
        let golden = store_with(&[(8, 100)]);
        let mut current = golden.clone();
        if let Outcome::Ok(stats) = &mut current.records[0].outcome {
            stats.percent_peak_milli = 89_700; // dropped 0.300 points
        }
        let tight = diff_stores(
            &golden,
            &current,
            Tolerance {
                cycles_permille: 0,
                peak_milli: 299,
            },
        );
        assert_eq!(tight.regressions.len(), 1);
        assert!(tight.regressions[0].what.contains("90.000 -> 89.700"));
        let loose = diff_stores(
            &golden,
            &current,
            Tolerance {
                cycles_permille: 0,
                peak_milli: 300,
            },
        );
        assert!(loose.is_clean());
    }

    #[test]
    fn status_changes_always_regress() {
        let golden = store_with(&[(8, 100)]);
        let mut current = golden.clone();
        current.records[0].outcome = Outcome::Error("boom".into());
        let report = diff_stores(
            &golden,
            &current,
            Tolerance {
                cycles_permille: 999,
                peak_milli: 999_999,
            },
        );
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].what.contains("now fails"));
        // And the reverse direction.
        let report = diff_stores(&current, &golden, Tolerance::default());
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].what.contains("now succeeds"));
    }

    #[test]
    fn missing_fails_extra_does_not() {
        let golden = store_with(&[(8, 100), (16, 200)]);
        let current = store_with(&[(8, 100), (32, 300)]);
        let report = diff_stores(&golden, &current, Tolerance::default());
        assert_eq!(report.compared, 1);
        assert_eq!(report.missing.len(), 1);
        assert_eq!(report.extra.len(), 1);
        assert!(!report.is_clean(), "missing runs fail the gate");
        let grown = diff_stores(&store_with(&[(8, 100)]), &golden, Tolerance::default());
        assert!(grown.is_clean(), "extra runs alone stay clean");
    }

    #[test]
    fn zero_golden_cycles_only_tolerates_zero() {
        assert!(!drift_exceeds_relative(0, 0, 0));
        assert!(drift_exceeds_relative(0, 1, 999));
    }
}
