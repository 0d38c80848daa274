//! End-to-end checks of the cycle-resolved telemetry layer: the metric
//! registry, the replayed bank/bus timelines, the Perfetto exporter, and
//! the guarantee that all of it is inert when disabled. `run_kernel`
//! itself reconciles every telemetered run's replay with the device's
//! counters (`crates/sim/tests/observability.rs` runs the paper matrix).

use kernels::Kernel;
use sim::{metrics, run_kernel, MemorySystem, SystemConfig};
use telemetry::{BankState, MetricId, CATALOG};

const CLI: MemorySystem = MemorySystem::CacheLineInterleaved;
const PI: MemorySystem = MemorySystem::PageInterleaved;

fn configs(mem: MemorySystem) -> [(SystemConfig, &'static str); 2] {
    [
        (SystemConfig::smc(mem, 32), "smc"),
        (SystemConfig::natural_order(mem), "natural"),
    ]
}

#[test]
fn telemetry_is_inert_when_disabled() {
    // The headline runs must be bit-identical with telemetry off vs on:
    // collection observes the run, it never perturbs it.
    for mem in [CLI, PI] {
        for (cfg, label) in configs(mem) {
            let plain = run_kernel(Kernel::Daxpy, 256, 1, &cfg).expect("fault-free run");
            let traced = run_kernel(Kernel::Daxpy, 256, 1, &cfg.clone().with_telemetry())
                .expect("fault-free run");
            assert!(
                plain.telemetry.is_none(),
                "{label}: telemetry off by default"
            );
            assert!(traced.telemetry.is_some());
            assert_eq!(plain.cycles, traced.cycles, "{label} {mem:?}");
            assert_eq!(plain.device_stats, traced.device_stats, "{label} {mem:?}");
            assert_eq!(plain.useful_words, traced.useful_words);
        }
    }
}

#[test]
fn perfetto_trace_is_structurally_valid_with_all_tracks() {
    // Golden-file shape check: a short copy run must export a trace that
    // passes the schema validator (valid ph/ts/pid/tid, monotonic
    // per-track timestamps) and carries one track per bus, per bank
    // touched, and per stream FIFO.
    let cfg = SystemConfig::smc(CLI, 16).with_telemetry();
    let r = run_kernel(Kernel::Copy, 64, 1, &cfg).expect("fault-free run");
    let tel = r.telemetry.as_ref().expect("telemetry requested");
    let json = tel.perfetto_json();

    let summary = telemetry::perfetto::validate(&json).expect("structurally valid trace");
    assert!(summary.complete_events > 0, "{summary:?}");
    assert!(
        summary.counter_events > 0,
        "FIFO depth samples: {summary:?}"
    );
    assert!(summary.tracks >= 4, "{summary:?}");

    for track in ["ROW bus", "COL bus", "DATA bus", "bank 0", "fifo0.depth"] {
        assert!(json.contains(track), "missing track {track:?}");
    }
    // Copy reads one stream and writes another: both FIFOs sampled.
    assert!(json.contains("fifo1.depth"), "write FIFO track");
}

#[test]
fn metrics_jsonl_covers_the_catalog_and_matches_the_run() {
    let cfg = SystemConfig::smc(PI, 32).with_telemetry();
    let r = run_kernel(Kernel::Vaxpy, 128, 1, &cfg).expect("fault-free run");
    let tel = r.telemetry.as_ref().expect("telemetry requested");
    let dump = tel.registry.to_jsonl();

    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), CATALOG.len(), "one line per catalog metric");
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
        assert!(v.get("metric").and_then(|m| m.as_str()).is_some(), "{line}");
        assert!(v.get("unit").and_then(|u| u.as_str()).is_some(), "{line}");
        let scalar = v.get("value").and_then(|n| n.as_u64()).is_some();
        let histogram = v.get("count").and_then(|n| n.as_u64()).is_some();
        assert!(scalar ^ histogram, "exactly one value shape: {line}");
    }

    // Spot-check registry contents against the run's own counters.
    let reg = &tel.registry;
    assert_eq!(reg.value(MetricId::RunCycles), r.cycles);
    assert_eq!(reg.value(MetricId::Activates), r.device_stats.activates);
    assert_eq!(
        reg.value(MetricId::ReadPackets),
        r.device_stats.read_packets
    );
    let msu = r.msu_stats.expect("smc run");
    assert_eq!(reg.value(MetricId::FifoSwitches), msu.fifo_switches);
    // Timeline residency feeds the bank-state counters.
    assert_eq!(
        reg.value(MetricId::BankOpenCycles),
        tel.timeline().residency(BankState::Open)
    );
    // And the round-trip into a report table works on real data.
    let table = metrics::table_from_jsonl(&dump).expect("dump parses back");
    assert!(table.render().contains("smc.fifo_occupancy"));
}

#[test]
fn refresh_runs_surface_refresh_counts() {
    let mut cfg = SystemConfig::smc(CLI, 64).with_telemetry();
    cfg.refresh = true;
    // The run's audits reconcile the timeline replay with refresh traffic
    // included: the refresh commands flow through the same sink as
    // everything else.
    let r = run_kernel(Kernel::Daxpy, 1024, 1, &cfg).expect("fault-free, audited run");
    let tel = r.telemetry.as_ref().expect("telemetry requested");
    assert!(
        tel.registry.value(MetricId::RefreshesIssued) > 0,
        "a ~6k-cycle run crosses at least one refresh interval"
    );
}

#[test]
fn livelocked_runs_route_the_watchdog_report_through_the_registry() {
    let plan = faults::FaultPlan::parse("busy:*:1:1").expect("valid plan");
    let cfg = SystemConfig::smc(CLI, 16)
        .with_faults(plan, 0)
        .with_telemetry();
    let err = run_kernel(Kernel::Copy, 32, 1, &cfg).expect_err("hopeless faults livelock");
    let reg = metrics::failure_metrics(&err);
    assert_eq!(reg.value(MetricId::WatchdogTrips), 1);
    assert!(reg.value(MetricId::LivelockStalledFor) > 0);
    assert!(reg.value(MetricId::RunCycles) > 0);
    // The dump stays a full catalog even on the failure path.
    assert_eq!(reg.to_jsonl().lines().count(), CATALOG.len());
}

#[test]
fn natural_order_runs_populate_baseline_metrics() {
    let cfg = SystemConfig::natural_order(CLI).with_telemetry();
    let r = run_kernel(Kernel::Hydro, 128, 1, &cfg).expect("fault-free run");
    let tel = r.telemetry.as_ref().expect("telemetry requested");
    let b = r.baseline.as_ref().expect("natural-order run");
    assert_eq!(
        tel.registry.value(MetricId::LineTransfers),
        b.line_transfers
    );
    assert_eq!(tel.registry.value(MetricId::MsuIdleCycles), b.idle_cycles);
    assert_eq!(tel.registry.value(MetricId::FifoCount), 0, "no SBU");
    assert!(tel.registry.value(MetricId::BankCount) > 0);
}
