//! Multi-tenant serving-layer property suite.
//!
//! 128 seeded scenarios — tenant mixes crossed with synthetic fault
//! storms — drive the serving loop through overload, throttling, and
//! shedding, checking the three invariants the tenancy layer guarantees:
//!
//! 1. **No livelock**: every run terminates with a report (the serve
//!    clock never hits its hard budget), and per-tenant stalls surface as
//!    structured starvation reports, not hangs.
//! 2. **No budget violations**: the regulator never grants a dispatch
//!    while the tenant's token bucket is non-positive.
//! 3. **Monotone shed ordering**: a latency-sensitive request is never
//!    shed before the first bandwidth-hungry request was shed — the
//!    degradation ladder's class contract, observed end to end.
//!
//! The seeded sweep uses a deterministic synthetic executor so 128
//! scenarios finish in milliseconds; a final soak drives 64 tenants
//! through the *real* simulator under a seeded fault storm, the same
//! configuration the CI overload-soak step runs from the CLI.

use faults::FaultPlan;
use sim::{MemorySystem, SystemConfig};
use tenancy::{
    serve_traced, DegradeLevel, Executor, Request, RetryPolicy, ServeReport, ServiceReport,
    TenantMix, TenantSpec,
};

/// splitmix64: the repo-standard cheap deterministic hash for tests.
fn mix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Deterministic stand-in for the simulator: service time, bank usage,
/// fault events, and occasional hard failures are all pure functions of
/// (suite seed, tenant, sequence number). Stormy seeds inflate service
/// times well past the mix's arrival cadence, forcing queues to fill and
/// the ladder to climb.
struct SynthExecutor {
    seed: u64,
    /// Service-time multiplier in permille of the nominal estimate;
    /// >1000 models an overloaded or fault-degraded memory system.
    pressure_permille: u64,
    banks: usize,
}

impl Executor for SynthExecutor {
    fn execute(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
        let h =
            mix64(self.seed ^ (req.tenant as u64).wrapping_mul(0x517c_c1b7_2722_0a95) ^ req.seq);
        if h.is_multiple_of(41) {
            return Err(format!(
                "injected executor failure for {}#{}",
                tenant.name, req.seq
            ));
        }
        let nominal = 4 * tenant.n.max(1) + 64;
        let cycles = (nominal * self.pressure_permille / 1000).max(1) + h % 97;
        let packets = tenant.n / 2 + 1;
        Ok(ServiceReport {
            cycles,
            useful_words: 2 * tenant.n,
            bank_data_cycles: vec![((h as usize) % self.banks.max(1), packets)],
            fault_events: if h.is_multiple_of(5) { 1 + h % 7 } else { 0 },
        })
    }
}

/// Build a seeded tenant mix through the same `+`-grammar the CLI and the
/// campaign axes use, so every property scenario is reachable from both.
fn mix_for(seed: u64) -> TenantMix {
    let kernels = ["copy", "daxpy", "vaxpy", "hydro"];
    let h = mix64(seed);
    let ls = 1 + h % 4;
    let bh = 1 + (h >> 8) % 8;
    let ls_kernel = kernels[(h >> 16) as usize % 4];
    let bh_kernel = kernels[(h >> 24) as usize % 4];
    let ls_n = 32 << ((h >> 32) % 3);
    let bh_n = 64 << ((h >> 40) % 3);
    let spec = format!("ls:{ls}:{ls_kernel}:{ls_n}+bh:{bh}:{bh_kernel}:{bh_n}");
    TenantMix::parse(&spec).expect("generated mix parses")
}

/// The invariants every scenario must satisfy, stormy or calm.
fn check_invariants(seed: u64, report: &ServeReport) {
    report
        .check_conservation()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(
        report.budget_violations, 0,
        "seed {seed}: regulator granted dispatches on empty buckets"
    );
    // Monotone shed ordering: LS shed implies an earlier-or-equal BH shed.
    if let Some(ls_at) = report.first_ls_shed {
        let bh_at = report
            .first_bh_shed
            .unwrap_or_else(|| panic!("seed {seed}: LS shed at {ls_at} with no BH shed at all"));
        assert!(
            bh_at <= ls_at,
            "seed {seed}: LS shed at {ls_at} before BH at {bh_at}"
        );
    }
    // Starvation reports are structured and internally consistent.
    for s in &report.starvation {
        assert!(s.tenant < report.tenants.len(), "seed {seed}");
        assert_eq!(report.tenants[s.tenant].name, s.name, "seed {seed}");
        assert!(s.waited > 0 && s.now >= s.waited, "seed {seed}");
    }
    // Ladder transitions never skip the class contract: any recorded
    // critical level implies the run shed BH work no later than LS work.
    if report.peak_level >= DegradeLevel::Shed {
        assert!(
            report.first_bh_shed.is_some() || report.first_ls_shed.is_none(),
            "seed {seed}: peaked at {:?} without shedding BH first",
            report.peak_level
        );
    }
}

/// 128 seeded tenant-mix × fault-storm scenarios through the serving
/// loop: zero livelocks, zero budget violations, monotone shed ordering.
#[test]
fn seeded_mixes_and_storms_hold_the_serving_invariants() {
    let banks = 16;
    let mut stormy_runs = 0u32;
    let mut runs_that_shed = 0u32;
    let mut starvation_reports = 0usize;
    for seed in 0..128u64 {
        let mut mix = mix_for(seed);
        // Odd seeds are storms: service times 3x-10x nominal and
        // sustained arrival streams, so queues fill, deadlines slip, and
        // the ladder climbs while requests are still arriving.
        let pressure = if seed % 2 == 1 {
            stormy_runs += 1;
            for t in &mut mix.tenants {
                t.requests *= 8;
            }
            3000 + mix64(seed ^ 0xdead) % 7000
        } else {
            700 + mix64(seed ^ 0xbeef) % 600
        };
        let exec = SynthExecutor {
            seed,
            pressure_permille: pressure,
            banks,
        };
        let mut cfg = sim::serve::serve_config_for(banks, 500, 1);
        cfg.policy = "regulated".to_string();
        // Tight forward-progress deadline so storm-length waits trip the
        // watchdog (the production default of 1M cycles is sized for real
        // kernel runs, not these compressed scenarios).
        cfg.progress_deadline = 8_192;
        let report = serve_traced(&mix, &cfg, &exec, None)
            .unwrap_or_else(|e| panic!("seed {seed} failed to terminate: {e}"));
        check_invariants(seed, &report);
        let (submitted, ..) = report.totals();
        assert!(submitted > 0, "seed {seed}: mixes always submit work");
        if report.first_bh_shed.is_some() {
            runs_that_shed += 1;
        }
        starvation_reports += report.starvation.len();
    }
    // The sweep must actually exercise the ladder, not pass vacuously.
    assert_eq!(stormy_runs, 64);
    assert!(
        runs_that_shed >= 16,
        "storms should force shedding: only {runs_that_shed}/128 runs shed"
    );
    assert!(
        starvation_reports > 0,
        "storms should trip the per-tenant forward-progress watchdog"
    );
}

/// Identical seeds reproduce identical reports — the serving loop has no
/// hidden nondeterminism for the campaign goldens to trip over.
#[test]
fn serving_runs_are_deterministic() {
    for seed in [3u64, 17, 99] {
        let mix = mix_for(seed);
        let exec = SynthExecutor {
            seed,
            pressure_permille: 4000,
            banks: 16,
        };
        let mut cfg = sim::serve::serve_config_for(16, 500, 1);
        cfg.policy = "regulated".to_string();
        let a = serve_traced(&mix, &cfg, &exec, None).expect("terminates");
        let b = serve_traced(&mix, &cfg, &exec, None).expect("terminates");
        assert_eq!(a, b, "seed {seed}");
    }
}

/// Every arbitration policy holds the same invariants under the same
/// storm — the class contract lives in the ladder and regulator, not in
/// any single policy's behaviour.
#[test]
fn all_policies_hold_the_invariants_under_storm() {
    for policy in ["fcfs", "rr", "regulated"] {
        for seed in 0..16u64 {
            let mix = mix_for(seed);
            let exec = SynthExecutor {
                seed,
                pressure_permille: 5000,
                banks: 16,
            };
            let mut cfg = sim::serve::serve_config_for(16, 400, 1);
            cfg.policy = policy.to_string();
            let report = serve_traced(&mix, &cfg, &exec, None)
                .unwrap_or_else(|e| panic!("{policy}/seed {seed}: {e}"));
            check_invariants(seed, &report);
        }
    }
}

/// A serving configuration that can actually reject work: a one-slot
/// queue with fill-based shedding disabled, so overload surfaces as
/// `Rejected { retry_after }` instead of ladder sheds, engaging the
/// closed loop.
fn closed_loop_cfg(banks: usize, budget: u32, seed: u64) -> tenancy::ServeConfig {
    let mut cfg = sim::serve::serve_config_for(banks, 500, 1);
    cfg.policy = "regulated".to_string();
    cfg.queue_capacity = 1;
    cfg.ladder.shed_fill_permille = 1001;
    cfg.ladder.critical_fill_permille = 1002;
    cfg.retry = RetryPolicy::with_budget(budget, seed);
    cfg
}

/// Satellite property: `retry_after` is honored end to end. Across a
/// seeded sweep of overloaded closed-loop runs, no client ever resubmits
/// earlier than the server's hint, every resubmission lands at exactly
/// `rejected_at + max(hint, backoff)`, and no audit exceeds the retry
/// budget.
#[test]
fn no_client_resubmits_before_its_retry_after_hint() {
    let banks = 16;
    let mut audited = 0u64;
    for seed in 0..32u64 {
        let mut mix = mix_for(seed);
        for t in &mut mix.tenants {
            t.requests *= 4;
        }
        let exec = SynthExecutor {
            seed,
            pressure_permille: 3000 + mix64(seed ^ 0xfeed) % 5000,
            banks,
        };
        let cfg = closed_loop_cfg(banks, 3, seed);
        let report = serve_traced(&mix, &cfg, &exec, None)
            .unwrap_or_else(|e| panic!("seed {seed} failed to terminate: {e}"));
        check_invariants(seed, &report);
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        assert_eq!(report.retry_log.len() as u64, retries, "seed {seed}");
        for a in &report.retry_log {
            assert!(
                a.resubmit_at >= a.rejected_at + a.hint,
                "seed {seed}: client beat its retry_after hint: {a:?}"
            );
            assert_eq!(
                a.resubmit_at,
                a.rejected_at + a.hint.max(a.backoff),
                "seed {seed}: {a:?}"
            );
            assert!(a.attempt < cfg.retry.max_retries, "seed {seed}: {a:?}");
        }
        audited += retries;
    }
    assert!(
        audited > 0,
        "the sweep must engage the closed loop, not pass vacuously"
    );
}

/// Satellite soak: 128 seeded closed-loop scenarios with retry budgets
/// on. Every run terminates (zero livelocks), holds the serving
/// invariants (zero budget violations, monotone shed ordering), keeps
/// retry amplification bounded by the configured budget, and replays
/// bit-identically from the same seed.
#[test]
fn closed_loop_soak_is_livelock_free_with_bounded_amplification() {
    let banks = 16;
    let mut total_retries = 0u64;
    let mut exhausted_runs = 0u32;
    for seed in 0..128u64 {
        let mut mix = mix_for(seed);
        // Odd seeds are storms, as in the open-loop sweep; even seeds run
        // merely overloaded so some retries eventually succeed.
        let pressure = if seed % 2 == 1 {
            for t in &mut mix.tenants {
                t.requests *= 8;
            }
            3000 + mix64(seed ^ 0xdead) % 7000
        } else {
            1500 + mix64(seed ^ 0xbeef) % 1500
        };
        let budget = 1 + u32::try_from(mix64(seed ^ 0xcafe) % 3).unwrap();
        let exec = SynthExecutor {
            seed,
            pressure_permille: pressure,
            banks,
        };
        let mut cfg = closed_loop_cfg(banks, budget, seed);
        cfg.progress_deadline = 8_192;
        let report = serve_traced(&mix, &cfg, &exec, None)
            .unwrap_or_else(|e| panic!("seed {seed} livelocked: {e}"));
        check_invariants(seed, &report);
        // Retry amplification is bounded by the budget: every original
        // request resubmits at most `budget` times.
        let (submitted, ..) = report.totals();
        let original = mix.total_requests();
        assert!(
            submitted <= original * (1 + u64::from(budget)),
            "seed {seed}: submitted {submitted} exceeds the amplification \
             bound for {original} originals at budget {budget}"
        );
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        assert!(
            retries <= original * u64::from(budget),
            "seed {seed}: {retries} retries exceed the budget bound"
        );
        total_retries += retries;
        if report.tenants.iter().any(|t| t.retry_exhausted > 0) {
            exhausted_runs += 1;
        }
        // Same seed, same bytes: the closed loop adds no nondeterminism.
        if seed % 32 == 0 {
            assert_eq!(
                serve_traced(&mix, &cfg, &exec, None).expect("replays"),
                report,
                "seed {seed}"
            );
        }
    }
    assert!(
        total_retries > 0,
        "the soak must drive the closed loop, not pass vacuously"
    );
    assert!(
        exhausted_runs > 0,
        "storms should exhaust at least one tenant's retry budget"
    );
}

/// Overload soak against the *real* simulator: 64 tenants (16 LS + 48
/// BH) under a seeded NACK + bank-busy fault storm — the acceptance
/// configuration CI also drives through `smcsim serve`. Zero livelocks
/// (the run terminates with a report), zero budget violations, and the
/// shed ordering holds with real service times.
#[test]
fn sixty_four_tenant_soak_survives_a_fault_storm() {
    let mix = TenantMix::parse("ls:16:daxpy:64+bh:48:copy:128").expect("soak mix parses");
    assert_eq!(mix.tenants.len(), 64);
    let plan = FaultPlan::parse("nack:100:4;busy:*:900:40").expect("storm spec parses");
    let base = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 64).with_faults(plan, 11);
    let banks = 16;
    let mut cfg = sim::serve::serve_config_for(banks, 400, base.device.timing.t_pack);
    cfg.policy = "regulated".to_string();
    let (report, ..) = sim::serve::run_serve_chaos(&mix, &cfg, &base).expect("soak terminates");
    check_invariants(11, &report);
    let (submitted, completed, ..) = report.totals();
    assert!(submitted >= 64, "every tenant submits at least once");
    assert!(completed > 0, "the system keeps serving under the storm");
    assert!(
        report.fairness_milli() >= 500,
        "regulated arbitration keeps Jain fairness above 0.5: {}",
        report.fairness_milli()
    );
}
