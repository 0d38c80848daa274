//! End-to-end timing conformance: every schedule the simulated controllers
//! emit — all four paper kernels, both memory organizations, both access
//! orderings, fault-free, under injected faults and under channel chaos —
//! replays through the `checker` crate with zero violations.
//!
//! This is the acceptance gate for the conformance subsystem: the paper's
//! bandwidth numbers are only meaningful if the command streams behind them
//! respect every Figure 2 constraint.

use faults::FaultPlan;
use kernels::Kernel;
use memsys::Placement;
use sim::{run_kernel, MemorySystem, SystemConfig};

const CLI: MemorySystem = MemorySystem::CacheLineInterleaved;
const PI: MemorySystem = MemorySystem::PageInterleaved;

/// Run every paper kernel on `cfg` with the conformance checker on, in
/// every build, and assert that each run recorded commands and passed it.
fn assert_conformant(base: &SystemConfig, label: &str) {
    for kernel in Kernel::PAPER_SUITE {
        let mut cfg = base.clone().with_command_recording();
        cfg.check_conformance = true;
        let r = run_kernel(kernel, 256, 1, &cfg)
            .unwrap_or_else(|e| panic!("{label} {kernel}: run failed: {e}"));
        assert!(
            !r.commands.is_empty(),
            "{label} {kernel}: no commands recorded"
        );
    }
}

#[test]
fn natural_order_cli_is_conformant() {
    assert_conformant(&SystemConfig::natural_order(CLI), "natural/CLI");
}

#[test]
fn natural_order_pi_is_conformant() {
    assert_conformant(&SystemConfig::natural_order(PI), "natural/PI");
}

#[test]
fn smc_cli_is_conformant() {
    assert_conformant(&SystemConfig::smc(CLI, 64), "smc/CLI");
}

#[test]
fn smc_pi_is_conformant() {
    assert_conformant(&SystemConfig::smc(PI, 64), "smc/PI");
}

#[test]
fn smc_with_refresh_and_speculation_is_conformant() {
    // Refresh commits maintenance commands at future cycles and speculation
    // issues row commands early: the two schedule shapes most likely to
    // disagree with a naive replay.
    let mut cfg = SystemConfig::smc(CLI, 64).with_speculation();
    cfg.refresh = true;
    assert_conformant(&cfg, "smc/CLI+refresh+spec");
}

#[test]
fn faulted_runs_stay_conformant() {
    // Recoverable fault plans slow the schedule (retries, stalls) but every
    // command that reaches the bus must still obey the timing rules.
    let nack = FaultPlan::parse("nack:200:10").expect("valid plan");
    let stall = FaultPlan::parse("stall:100:20").expect("valid plan");
    assert_conformant(
        &SystemConfig::natural_order(CLI).with_faults(nack.clone(), 3),
        "natural/CLI+nack",
    );
    assert_conformant(
        &SystemConfig::smc(PI, 32).with_faults(nack, 3),
        "smc/PI+nack",
    );
    assert_conformant(
        &SystemConfig::smc(PI, 32).with_faults(stall, 7),
        "smc/PI+stall",
    );
}

/// Every run on a grid of faulted and chaos configurations passes all four
/// run audits, which `run_kernel` makes in every build once conformance
/// checking and telemetry are on: the per-channel timing checker, the exact
/// cycle partition of the attribution, and both reconciliations of the
/// telemetry replay against the device's own counters.
#[test]
fn every_audit_holds_under_faults_and_chaos() {
    // (label, channels, device fault plan, channel chaos plan)
    let plans = [
        ("clean", 1, "", ""),
        ("nack", 1, "nack:50:8", ""),
        ("busy+stall", 1, "busy:*:256:16;stall:1024:32", ""),
        (
            "chaos-smoke",
            2,
            "",
            "brownout:0:100:1500:4;outage:1:400:600",
        ),
        (
            "chaos-devfail",
            2,
            "",
            "brownout:0:64:512:3;outage:1:200:300;devfail:0:0:400:2",
        ),
    ];
    let (mut nacks, mut outages) = (0, 0);
    for kernel in Kernel::PAPER_SUITE {
        for memory in [CLI, PI] {
            for base in [
                SystemConfig::smc(memory, 32),
                SystemConfig::natural_order(memory),
            ] {
                for (plan, channels, faults, chaos) in plans {
                    let label = format!("{kernel} {memory:?} {:?} {plan}", base.ordering);
                    let mut cfg = base
                        .clone()
                        .with_telemetry()
                        .with_channels(channels)
                        .with_placement(Placement::ChannelInterleaved { block_bytes: 1024 });
                    if !faults.is_empty() {
                        cfg = cfg.with_faults(FaultPlan::parse(faults).expect("valid plan"), 7);
                    }
                    if !chaos.is_empty() {
                        cfg = cfg.with_chaos(FaultPlan::parse(chaos).expect("valid plan"), 7);
                    }
                    cfg.check_conformance = true;
                    let r = run_kernel(kernel, 256, 1, &cfg)
                        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                    assert!(r.telemetry.is_some(), "{label}: telemetry collected");

                    nacks += r.msu_stats.map_or(0, |s| s.data_nacks)
                        + r.baseline.as_ref().map_or(0, |b| b.data_nacks);
                    outages += r
                        .chaos_stats
                        .iter()
                        .map(|s| s.outages_observed)
                        .sum::<u64>();
                }
            }
        }
    }
    // The grid must exercise what it claims to audit.
    assert!(nacks > 0, "no DATA NACK was injected");
    assert!(outages > 0, "no outage was observed");
}
