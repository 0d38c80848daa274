//! The benchmark's own checks: its workloads repeat exactly for a seed,
//! the seed really moves the inputs, and `BENCHMARK.json` agrees with the
//! `--list` tables.

use std::collections::BTreeMap;
use std::process::Command;

use smcbench::catalog::{Kind, Workload, PER_LAYER};
use smcbench::inputs::build;
use smcbench::layers::run_traced;
use smcbench::pass::{run_pass, PassOutcome};

/// Every base length is divided by this, so each workload runs in a few
/// seconds even in a debug build. The serve shrinks less: its tenants
/// must still overload the queues and meet the outage to pass its checks.
fn shrink(workload: Workload) -> u64 {
    match workload {
        Workload::ServeChaos => 2,
        _ => 64,
    }
}

/// One untraced pass and the exact per-layer counters of one traced pass.
fn reduced(workload: Workload, seed: u64) -> (PassOutcome, BTreeMap<&'static str, f64>) {
    let inputs = build(workload, seed, shrink(workload));
    let pass = run_pass(&inputs, 2);
    assert!(
        pass.problems.is_empty(),
        "{}: {:?}",
        workload.name(),
        pass.problems
    );
    let traced = run_traced(&inputs, 1.0);
    assert!(
        traced.problems.is_empty(),
        "{}: {:?}",
        workload.name(),
        traced.problems
    );
    let exact = traced
        .metrics
        .into_iter()
        .filter(|(name, _)| {
            PER_LAYER
                .iter()
                .any(|m| m.name == *name && m.kind == Kind::Exact)
        })
        .collect();
    (pass, exact)
}

#[test]
fn every_workload_repeats_exactly_for_a_seed() {
    for w in Workload::ALL {
        let (pass_a, layers_a) = reduced(w, 7);
        let (pass_b, layers_b) = reduced(w, 7);
        assert_eq!(pass_a, pass_b, "{}: exact metrics and digest", w.name());
        assert_eq!(layers_a, layers_b, "{}: per-layer counters", w.name());
        assert!(pass_a.sim_cycles > 0 && pass_a.served > 0, "{}", w.name());
        assert_eq!(pass_a.failed, 0, "{}", w.name());
    }
}

#[test]
fn a_second_seed_changes_the_campaign_and_serve_digests() {
    for w in [Workload::Campaign, Workload::ServeChaos] {
        let a = run_pass(&build(w, 7, shrink(w)), 2);
        let b = run_pass(&build(w, 8, shrink(w)), 2);
        assert_ne!(a.digest, b.digest, "{}", w.name());
    }
}

#[test]
fn campaign_stores_match_across_worker_counts() {
    let inputs = build(Workload::Campaign, 7, shrink(Workload::Campaign));
    let two = run_pass(&inputs, 2);
    let one = run_pass(&inputs, 1);
    assert!(two.store.is_some());
    assert_eq!(one.store, two.store);
}

/// `(name, why)` per workload, in order.
type WorkloadTable = Vec<(String, String)>;
/// `(table, name) -> [unit, better, bound]` per metric.
type MetricTable = BTreeMap<(String, String), Vec<String>>;

/// The workload and metric tables from the `--list` output.
fn list_tables() -> (WorkloadTable, MetricTable) {
    let out = Command::new(env!("CARGO_BIN_EXE_smcbench"))
        .arg("--list")
        .output()
        .expect("smcbench runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut workloads = Vec::new();
    let mut metrics = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (head, rest) = line.split_once(' ').expect("table and fields");
        if head == "workload" {
            let (name, why) = rest.split_once(' ').expect("name and why");
            workloads.push((name.to_string(), why.to_string()));
        } else {
            let f: Vec<&str> = rest.split(' ').collect();
            let fields = f[1..4].iter().map(|s| s.to_string()).collect();
            metrics.insert((head.to_string(), f[0].to_string()), fields);
        }
    }
    (workloads, metrics)
}

#[test]
fn benchmark_json_matches_the_list_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let (workloads, metrics) = list_tables();

    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads array")
        .iter()
        .map(|w| {
            let s = |k| w.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (s("name"), s("why"))
        })
        .collect();
    assert_eq!(listed, workloads);

    let mut declared = BTreeMap::new();
    for table in ["end_to_end", "per_layer"] {
        for m in doc.get(table).and_then(|v| v.as_array()).expect(table) {
            let s = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            let bound = m
                .get("bound")
                .and_then(|v| v.as_f64())
                .map_or_else(|| "-".to_string(), |b| b.to_string());
            declared.insert(
                (table.to_string(), s("name")),
                vec![s("unit"), s("better"), bound],
            );
        }
    }
    assert_eq!(declared, metrics);
}
