//! End-to-end checks of the observability layer's exactness guarantees:
//! cycle attribution partitions every run with zero tolerance — across
//! the paper's full 4×2×2 acceptance matrix, under randomized
//! configurations, and through 128-seed fault storms — and the traced
//! serve path is provably inert when tracing is off.

use kernels::Kernel;
use proptest::prelude::*;
use sim::{run_kernel, MemorySystem, SimError, SystemConfig};

const CLI: MemorySystem = MemorySystem::CacheLineInterleaved;
const PI: MemorySystem = MemorySystem::PageInterleaved;

fn configs(mem: MemorySystem) -> [(SystemConfig, &'static str); 2] {
    [
        (SystemConfig::smc(mem, 32), "smc"),
        (SystemConfig::natural_order(mem), "natural"),
    ]
}

#[test]
fn attribution_is_exact_across_the_paper_matrix() {
    // Acceptance matrix: 4 kernels x 2 orderings x 2 organizations. For
    // every cell the attribution must cover the run's cycle count; the
    // run's own audits (an error on failure) hold the six categories to
    // that count exactly (zero tolerance), the per-bank breakdown to the
    // global one, and the data/turnaround categories to the device's own
    // counters.
    for mem in [CLI, PI] {
        for kernel in Kernel::PAPER_SUITE {
            for (cfg, label) in configs(mem) {
                let cfg = cfg.with_telemetry();
                let r = run_kernel(kernel, 128, 1, &cfg)
                    .unwrap_or_else(|e| panic!("{kernel} {label} {mem:?}: {e}"));
                let tel = r.telemetry.as_ref().expect("telemetry requested");
                assert_eq!(
                    tel.attribution.total(),
                    r.cycles,
                    "{kernel} {label} {mem:?}"
                );
            }
        }
    }
}

#[test]
fn attribution_is_exact_under_128_seed_fault_storms() {
    // A fault storm perturbs scheduling, injects stalls, and forces
    // retries; the exact-partition invariant, which the run audits, must
    // survive every seed. Runs that die structurally (retry exhaustion
    // under a hostile seed) are allowed; any other error, a failed audit
    // included, fails the test.
    let plan = "nack:100:8;stall:97:3;busy:*:211:5";
    let mut completed = 0u32;
    let mut retry_cycles = 0u64;
    for seed in 0..128u64 {
        let cfg = SystemConfig::smc(CLI, 16)
            .with_faults(
                faults::FaultPlan::parse(plan).expect("valid fault spec"),
                seed,
            )
            .with_telemetry();
        let r = match run_kernel(Kernel::Daxpy, 64, 1, &cfg) {
            Ok(r) => r,
            Err(SimError::Controller(_)) => continue,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        completed += 1;
        let tel = r.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(tel.attribution.total(), r.cycles, "seed {seed}");
        retry_cycles += tel.attribution.global().retry;
    }
    assert!(
        completed >= 96,
        "fault storm killed too many runs: {completed}/128"
    );
    // Fault recovery must actually surface in the retry category (a stall
    // cycle that overlaps a live data burst stays Data — categories are
    // exclusive — but a storm this heavy cannot hide entirely).
    assert!(retry_cycles > 0, "no retry cycles attributed across storm");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random kernel/length/stride/depth/organization: the run's audits
    /// hold the partition exact for every configuration, not just the
    /// paper's cells.
    #[test]
    fn attribution_partitions_random_configurations(
        kernel_idx in 0usize..Kernel::PAPER_SUITE.len(),
        n in 8u64..192,
        stride in 1u64..5,
        fifo in prop::sample::select(vec![8usize, 16, 32, 64]),
        pi in any::<bool>(),
    ) {
        let mem = if pi { PI } else { CLI };
        let kernel = Kernel::PAPER_SUITE[kernel_idx];
        let cfg = SystemConfig::smc(mem, fifo).with_telemetry();
        let r = run_kernel(kernel, n, stride, &cfg).expect("fault-free, audited run");
        let tel = r.telemetry.as_ref().expect("telemetry requested");
        prop_assert_eq!(tel.attribution.total(), r.cycles);
    }
}

#[test]
fn traced_serve_is_inert_and_its_totals_cross_check() {
    // The serve loop with tracing on must produce the identical report,
    // and the trace's own outcome accounting must agree with it.
    let mix = tenancy::TenantMix::parse("ls:2:daxpy:64+bh:3:copy:256").expect("valid mix");
    let base = SystemConfig::smc(CLI, 32);
    let cfg =
        sim::serve::serve_config_for(base.device.total_banks(), 250, base.device.timing.t_pack);
    let exec = sim::serve::SimExecutor::new(base.clone());
    let plain = tenancy::serve_traced(&mix, &cfg, &exec, None).expect("serve runs");
    let (traced, trace, _) = sim::serve::run_serve_chaos(&mix, &cfg, &base).expect("serve runs");
    assert_eq!(plain, traced, "tracing must not perturb the serve outcome");

    let (submitted, completed, failed, shed, rejected, _, _) = traced.totals();
    assert_eq!(trace.spans().len() as u64, submitted);
    let (t_completed, t_failed, t_shed, t_rejected) = trace.outcome_totals();
    assert_eq!(
        (t_completed, t_failed, t_shed, t_rejected),
        (completed, failed, shed, rejected)
    );
    // Per-tenant percentiles exist exactly for tenants that completed work.
    for (tenant, stats) in traced.tenants.iter().enumerate() {
        assert_eq!(
            trace.latency_percentiles(tenant).is_some(),
            stats.completed > 0,
            "tenant {tenant}"
        );
    }
}
