//! Declarative parameter-sweep campaigns.
//!
//! The paper's evaluation is a grid — kernels × access orderings × memory
//! organizations swept over FIFO depth, vector length, stride, and fault
//! plans. This crate turns such grids into first-class *campaigns*:
//!
//! * [`PARAMS`] and [`STATS`] — one table row per run-point parameter
//!   (JSON name, run-key form, [`Group`], default, accepted values,
//!   collapse rule, accessors) and per result counter. The run key, the
//!   record form, axis and exclude parsing and grid expansion are loops
//!   over these tables, and one rule covers every feature added after the
//!   paper's grid: a group is written to the key and the record only when
//!   one of its parameters is off its default;
//! * [`CampaignSpec`] — a declarative description of the parameter axes
//!   (parsed from JSON with the vendored `serde_json`, the same untyped
//!   [`serde_json::Value`] walk the conformance checker's `TraceFile`
//!   uses), with exclusion filters;
//! * [`expand`] — deterministic cartesian expansion into [`RunPoint`]s
//!   with stable, seed-independent [`RunPoint::run_id`]s, duplicate points
//!   collapsed so nothing runs twice;
//! * [`executor`] — a `std::thread::scope` parallel executor: workers
//!   steal the next unclaimed run from a shared queue, results land in
//!   submission order regardless of worker count, and per-run failures are
//!   collected as structured [`Outcome::Error`]s instead of panics;
//! * [`ResultsStore`] — a schema-versioned JSONL store, one record per
//!   run (config fingerprint, cycles, percent-of-peak, recovery counters,
//!   telemetry summary), byte-stable across runs and worker counts; a
//!   record whose stored run ID is not its point's ID fails to parse;
//! * [`diff_stores`] — a baseline comparator that gates a campaign
//!   against a committed golden store and fails on cycle-count or
//!   bandwidth drift beyond an integer tolerance.
//!
//! The crate is deliberately simulator-agnostic: a campaign runs through
//! any `Fn(&RunPoint) -> Outcome` callback, so the binding to the actual
//! simulator (`sim::sweep`) lives downstream and this orchestration layer
//! stays free of cycle-accounting concerns. All stored quantities are
//! integers (cycles, milli-percent bandwidth), keeping the crate inside
//! the repository's integer-only hot-path lints.

// No-panic and no-float: errors are values and cycle accounting is integer
// arithmetic. Each exception is an `#[expect(.., reason = "..")]` at its site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

pub mod diff;
pub mod executor;
pub mod grid;
pub mod params;
pub mod spec;
pub mod store;

pub use diff::{diff_stores, DiffReport, Drift, Tolerance};
pub use executor::parallel_map;
pub use grid::{expand, fnv1a64, fnv1a64_from, FNV_OFFSET_BASIS};
pub use params::{Domain, Group, Param, RunStats, Stat, Val, PARAMS, STATS};
pub use spec::{Axes, CampaignSpec, Exclude, Order, RunPoint, SpecError};
pub use store::{milli_percent, Outcome, ResultsStore, RunRecord, StoreError};

/// Version stamped on campaign specs and result stores; readers reject
/// anything else, so a format change is an explicit migration.
pub const SCHEMA_VERSION: u64 = 1;

/// Progress callback: `(completed, total)` after each finished run.
pub type Progress<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// Run an explicit list of points through `runner` on `workers` threads.
///
/// Points are deduplicated by [`RunPoint::run_id`] (first occurrence
/// wins) before anything executes, so a duplicated parameter point is
/// simulated once, not twice. Records come back in the deduplicated
/// submission order regardless of worker count; a worker that failed to
/// produce a result yields a structured [`Outcome::Error`] record rather
/// than tearing the campaign down.
pub fn run_points<F>(
    name: &str,
    points: &[RunPoint],
    workers: usize,
    runner: &F,
    progress: Option<Progress<'_>>,
) -> ResultsStore
where
    F: Fn(&RunPoint) -> Outcome + Sync,
{
    let mut seen = std::collections::BTreeSet::new();
    let unique: Vec<&RunPoint> = points.iter().filter(|p| seen.insert(p.key())).collect();
    let outcomes = parallel_map(&unique, workers, &|_, p: &&RunPoint| runner(p), progress);
    let records = unique
        .iter()
        .zip(outcomes)
        .map(|(p, outcome)| RunRecord {
            run_id: p.run_id(),
            point: (*p).clone(),
            outcome: outcome
                .unwrap_or_else(|| Outcome::Error("worker produced no result".to_string())),
        })
        .collect();
    ResultsStore {
        campaign: name.to_string(),
        records,
    }
}

/// Expand `spec` into its deduplicated grid and run it (see
/// [`run_points`]).
pub fn run_campaign<F>(
    spec: &CampaignSpec,
    workers: usize,
    runner: &F,
    progress: Option<Progress<'_>>,
) -> ResultsStore
where
    F: Fn(&RunPoint) -> Outcome + Sync,
{
    run_points(&spec.name, &expand(spec), workers, runner, progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_stats(cycles: u64) -> Outcome {
        Outcome::Ok(RunStats {
            cycles,
            percent_peak_milli: 90_000,
            ..RunStats::default()
        })
    }

    #[test]
    fn run_points_dedupes_and_preserves_order() {
        let p = RunPoint::smoke("copy", 64);
        let q = RunPoint::smoke("daxpy", 64);
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let store = run_points(
            "t",
            &[p.clone(), q.clone(), p.clone()],
            4,
            &|point| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                ok_stats(if point.kernel == "copy" { 10 } else { 20 })
            },
            None,
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(store.records.len(), 2, "duplicate point collapsed");
        assert_eq!(store.records[0].point.kernel, "copy");
        assert_eq!(store.records[1].point.kernel, "daxpy");
        assert_eq!(store.records[0].run_id, p.run_id());
    }

    #[test]
    fn record_order_is_independent_of_worker_count() {
        let points: Vec<RunPoint> = (1..=37)
            .map(|n| RunPoint {
                n,
                ..RunPoint::smoke("copy", 8)
            })
            .collect();
        let runner = |p: &RunPoint| ok_stats(p.n * 3);
        let serial = run_points("t", &points, 1, &runner, None);
        for workers in [2, 5, 16] {
            let par = run_points("t", &points, workers, &runner, None);
            assert_eq!(par.to_jsonl(), serial.to_jsonl(), "workers={workers}");
        }
    }

    #[test]
    fn progress_reports_every_completion() {
        let points: Vec<RunPoint> = (1..=9)
            .map(|n| RunPoint {
                n,
                ..RunPoint::smoke("copy", 8)
            })
            .collect();
        let seen = std::sync::Mutex::new(Vec::new());
        let cb = |done: usize, total: usize| {
            seen.lock().unwrap().push((done, total));
        };
        run_points("t", &points, 3, &|p| ok_stats(p.n), Some(&cb));
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (1..=9).map(|d| (d, 9)).collect::<Vec<_>>());
    }
}
