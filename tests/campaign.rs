//! End-to-end campaign-engine checks against the committed artifacts:
//! every campaign in `campaigns/` with a `.golden.jsonl` sibling must
//! reproduce that golden store bit-for-bit at any worker count, in any
//! build profile — the same gate CI runs through `smcsim campaign diff`.

use campaign::{diff_stores, expand, CampaignSpec, ResultsStore, Tolerance};

fn repo_file(name: &str) -> String {
    let path = format!("{}/campaigns/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn spec(name: &str) -> CampaignSpec {
    CampaignSpec::from_json(&repo_file(&format!("{name}.json"))).expect("committed spec parses")
}

fn golden(name: &str) -> ResultsStore {
    ResultsStore::from_jsonl(&repo_file(&format!("{name}.golden.jsonl")))
        .unwrap_or_else(|e| panic!("committed {name} golden parses: {e}"))
}

/// Run the `name` campaign on 2 workers (CI's count), check it passes the
/// zero-tolerance gate and is byte-identical to its golden, and return the
/// golden.
fn fresh_run_matches(name: &str) -> ResultsStore {
    let golden = golden(name);
    let store = sim::sweep::run_spec(&spec(name), 2, None);
    let report = diff_stores(&golden, &store, Tolerance::default());
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.compared, golden.records.len());
    assert_eq!(store.to_jsonl(), golden.to_jsonl(), "{name}");
    assert_eq!(golden.errored(), 0, "the {name} campaign runs clean");
    golden
}

/// The committed golden describes exactly the committed spec's grid.
#[test]
fn golden_covers_the_smoke_grid() {
    let (spec, golden) = (spec("smoke"), golden("smoke"));
    let points = expand(&spec);
    assert_eq!(golden.campaign, spec.name);
    assert_eq!(golden.records.len(), points.len());
    for (point, record) in points.iter().zip(&golden.records) {
        assert_eq!(record.run_id, point.run_id(), "{}", point.key());
    }
    assert_eq!(golden.errored(), 0, "the smoke campaign runs clean");
}

/// A fresh smoke run reproduces the golden bit-for-bit and passes the
/// same zero-tolerance gate CI applies.
#[test]
fn fresh_smoke_run_matches_the_committed_golden() {
    fresh_run_matches("smoke");
}

/// Running the same campaign twice — at different worker counts — yields
/// byte-identical stores: the artifact-regeneration determinism the
/// experiment figures rely on.
#[test]
fn repeated_runs_are_byte_stable_across_worker_counts() {
    let spec = spec("smoke");
    let first = sim::sweep::run_spec(&spec, 1, None).to_jsonl();
    let second = sim::sweep::run_spec(&spec, 1, None).to_jsonl();
    assert_eq!(first, second, "same worker count, same bytes");
    for workers in [2, 4, 16] {
        let par = sim::sweep::run_spec(&spec, workers, None).to_jsonl();
        assert_eq!(par, first, "workers={workers}");
    }
}

/// The committed multi-tenant golden describes exactly the committed
/// spec's grid, runs clean, and carries the serving-layer counters the
/// fairness gate rides on.
#[test]
fn tenancy_golden_covers_its_grid_with_serve_counters() {
    let (spec, golden) = (spec("tenancy-smoke"), golden("tenancy-smoke"));
    let points = expand(&spec);
    assert_eq!(golden.campaign, spec.name);
    assert_eq!(golden.records.len(), points.len());
    for (point, record) in points.iter().zip(&golden.records) {
        assert_eq!(record.run_id, point.run_id(), "{}", point.key());
        assert!(!point.tenants.is_empty(), "every point is multi-tenant");
        let campaign::Outcome::Ok(stats) = &record.outcome else {
            panic!("{} errored", point.key());
        };
        assert!(stats.serve_completed > 0, "{}", point.key());
        assert_eq!(stats.serve_budget_violations, 0, "{}", point.key());
        assert!(stats.serve_fairness_milli > 0, "{}", point.key());
    }
}

/// A fresh multi-tenant run reproduces the committed golden bit-for-bit
/// at any worker count — per-tenant deadline-miss and fairness counters
/// are regression-gated, not advisory.
#[test]
fn fresh_tenancy_run_matches_the_committed_golden() {
    fresh_run_matches("tenancy-smoke");
}

/// The multi-channel smoke campaign reproduces its committed golden
/// bit-for-bit at the CI worker count, and its multi-channel records
/// carry the topology fields.
#[test]
fn fresh_multichannel_run_matches_the_committed_golden() {
    let golden = fresh_run_matches("multichannel-smoke");
    assert!(
        golden
            .records
            .iter()
            .any(|r| r.point.channels > 1 && r.to_json_line().contains("\"channels\":")),
        "multi-channel records carry the topology fields"
    );
}

/// The chaos smoke campaign reproduces its committed golden bit-for-bit
/// at the CI worker count; chaotic records carry the degraded-mode
/// accounting and the measured MTTR reconciles exactly against the
/// injected 600-cycle outage window.
#[test]
fn fresh_chaos_run_matches_the_committed_golden() {
    let golden = fresh_run_matches("chaos-smoke");
    let mut chaotic = 0;
    for record in &golden.records {
        let campaign::Outcome::Ok(stats) = &record.outcome else {
            panic!("{} errored", record.point.key());
        };
        if record.point.chaos.is_empty() {
            assert_eq!(stats.chaos_mttr_cycles, 0, "{}", record.point.key());
            continue;
        }
        chaotic += 1;
        assert!(
            record.to_json_line().contains("\"chaos\":"),
            "chaotic records carry the plan"
        );
        // MTTR reconciles exactly: the spec injects one 600-cycle outage
        // window per plan, so measured repair time is 600 per observation.
        assert_eq!(
            stats.chaos_mttr_cycles,
            stats.chaos_outages_observed * 600,
            "{}",
            record.point.key()
        );
    }
    assert!(chaotic > 0, "the spec exercises chaotic points");
}

/// Every committed golden parses, and each record's stored run ID is
/// checked against its point: editing any parameter of one golden line
/// makes the parse fail on exactly that line, so drift in the key format
/// cannot silently un-match goldens in `diff_stores`.
#[test]
fn goldens_parse_and_reject_an_edited_point() {
    for name in [
        "smoke",
        "tenancy-smoke",
        "multichannel-smoke",
        "chaos-smoke",
    ] {
        golden(name);
    }
    let text = repo_file("smoke.golden.jsonl");
    let edited = text.replacen("\"n\":128", "\"n\":129", 1);
    let line = 1 + edited
        .lines()
        .position(|l| l.contains("\"n\":129"))
        .unwrap();
    let e = ResultsStore::from_jsonl(&edited).unwrap_err();
    assert_eq!(e.line, line, "{e}");
    assert!(e.message.contains("run_id"), "{e}");
}

/// The diff gate actually fires on a cycle regression in this store.
#[test]
fn gate_catches_an_injected_regression() {
    let golden = golden("smoke");
    let mut drifted = golden.clone();
    if let campaign::Outcome::Ok(stats) = &mut drifted.records[0].outcome {
        stats.cycles += 10;
    } else {
        panic!("first smoke record is ok");
    }
    let report = diff_stores(&golden, &drifted, Tolerance::default());
    assert!(!report.is_clean());
    assert_eq!(report.regressions.len(), 1);
    assert_eq!(report.regressions[0].run_id, golden.records[0].run_id);
}
