//! Binding between the simulator and the `campaign` orchestration layer:
//! translate a declarative [`RunPoint`] into a [`SystemConfig`] + kernel,
//! execute it, and fold the [`RunResult`](crate::RunResult) counters into
//! the integer [`RunStats`](campaign::RunStats) the results store records
//! (through the binding table in `counters.rs`).
//!
//! `campaign` itself is simulator-agnostic (it runs any
//! `Fn(&RunPoint) -> Outcome`); this module is the one place that mapping
//! lives, so the CLI, the figure experiments, and the fault suite all
//! drive simulations through the same code path.

use campaign::{CampaignSpec, Order, Outcome, Progress, ResultsStore, RunPoint};
use kernels::Kernel;

use crate::counters::Sources;
use crate::{Alignment, MemorySystem, SystemConfig};

/// Resolve a run point into the kernel and system configuration it
/// describes. An attribution point collects telemetry, which carries the
/// attribution; the run itself is cycle-identical with or without it.
///
/// # Errors
///
/// A human-readable message for an unknown kernel name, memory
/// organization, alignment, or malformed fault spec — the same strings a
/// failed run records in its [`Outcome::Error`].
pub fn job_for(point: &RunPoint) -> Result<(Kernel, SystemConfig), String> {
    let kernel = Kernel::ALL
        .into_iter()
        .find(|k| k.name() == point.kernel)
        .ok_or_else(|| format!("unknown kernel `{}`", point.kernel))?;
    let memory = match point.memory.as_str() {
        "cli" => MemorySystem::CacheLineInterleaved,
        "pi" => MemorySystem::PageInterleaved,
        other => return Err(format!("unknown memory organization `{other}`")),
    };
    let alignment = match point.alignment.as_str() {
        "staggered" => Alignment::Staggered,
        "aligned" => Alignment::Aligned,
        other => return Err(format!("unknown alignment `{other}`")),
    };
    let mut config = match point.order {
        Order::Natural => SystemConfig::natural_order(memory),
        Order::Smc { fifo } => {
            let depth = usize::try_from(fifo).map_err(|_| format!("fifo {fifo} out of range"))?;
            SystemConfig::smc(memory, depth)
        }
    }
    .with_alignment(alignment);
    // The memory system's fault timeline takes the device-level clauses
    // and its chaos router the channel-scoped ones; a clause in the other
    // plan would do nothing.
    if !point.faults.is_empty() {
        let plan = faults::FaultPlan::parse(&point.faults)
            .map_err(|e| format!("bad fault spec `{}`: {e}", point.faults))?;
        if let Some(c) = plan.clauses.iter().find(|c| c.is_channel_scoped()) {
            return Err(format!("`{c}` is a channel clause: it belongs in `chaos`"));
        }
        config = config.with_faults(plan, point.fault_seed);
    }
    if !point.chaos.is_empty() {
        let plan = faults::FaultPlan::parse(&point.chaos)
            .map_err(|e| format!("bad chaos spec `{}`: {e}", point.chaos))?;
        if let Some(c) = plan.clauses.iter().find(|c| !c.is_channel_scoped()) {
            return Err(format!("`{c}` is a device clause: it belongs in `faults`"));
        }
        config = config.with_chaos(plan, point.fault_seed);
    }
    if point.devices_per_channel > 1 {
        config.device.devices = usize::try_from(point.devices_per_channel).map_err(|_| {
            format!(
                "devices_per_channel {} out of range",
                point.devices_per_channel
            )
        })?;
    }
    // Checked even on one channel, where it has no effect, so a malformed
    // placement never passes silently.
    let placement = memsys::Placement::parse(&point.placement)
        .map_err(|e| format!("bad placement `{}`: {e}", point.placement))?;
    if point.channels > 1 {
        let channels = usize::try_from(point.channels)
            .map_err(|_| format!("channels {} out of range", point.channels))?;
        config = config.with_channels(channels).with_placement(placement);
    }
    if point.attribution != 0 {
        config = config.with_telemetry();
    }
    Ok((kernel, config))
}

/// The parameters a served point does not read: each tenant group of its
/// mix names its own kernel, length and stride. They only place the point
/// in its grid.
pub const SERVE_IGNORES: [&str; 3] = ["kernel", "n", "stride"];

/// The serving-layer configuration of a tenant point on `config`: one
/// regulator bucket per *global* bank (every bank of every channel),
/// denominated in measured DATA-bus cycles (the device's packet time sets
/// the exchange rate), the point's bandwidth-hungry budget, and a
/// closed-loop retry budget seeded from the point's fault seed.
pub fn serve_config_of(point: &RunPoint, config: &SystemConfig) -> tenancy::ServeConfig {
    let banks = config.device.total_banks() * config.channels.max(1);
    let mut cfg =
        crate::serve::serve_config_for(banks, point.budget_permille, config.device.timing.t_pack);
    if point.retry_budget != 0 {
        let budget = u32::try_from(point.retry_budget).unwrap_or(u32::MAX);
        cfg.retry = tenancy::RetryPolicy::with_budget(budget, point.fault_seed);
    }
    cfg
}

/// Execute one run point and fold the result into campaign statistics
/// through the binding table in `counters.rs`. Config errors and
/// simulation failures both come back as structured [`Outcome::Error`]s;
/// nothing panics. Points with a non-empty tenant mix route through the
/// multi-tenant serving layer instead of a single kernel run.
pub fn run_point(point: &RunPoint) -> Outcome {
    if !point.tenants.is_empty() {
        return run_tenant_point(point);
    }
    let (kernel, config) = match job_for(point) {
        Ok(job) => job,
        Err(message) => return Outcome::Error(message),
    };
    match crate::run_kernel(kernel, point.n, point.stride, &config) {
        Ok(result) => Outcome::Ok(Sources::run(&result).fold(point)),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Execute a multi-tenant run point: parse the mix, configure the serve
/// with [`serve_config_of`], and fold the serve report and the executor's
/// degraded-mode accounting into campaign statistics. The point's own
/// kernel/n/stride describe the base grid slot; the tenants spec carries
/// each tenant's actual workload.
fn run_tenant_point(point: &RunPoint) -> Outcome {
    let (_, config) = match job_for(point) {
        Ok(job) => job,
        Err(message) => return Outcome::Error(message),
    };
    let mix = match tenancy::TenantMix::parse(&point.tenants) {
        Ok(mix) => mix,
        Err(e) => return Outcome::Error(format!("bad tenant mix `{}`: {e}", point.tenants)),
    };
    let cfg = serve_config_of(point, &config);
    match crate::serve::run_serve_chaos(&mix, &cfg, &config) {
        Ok((report, _trace, chaos_total)) => {
            Outcome::Ok(Sources::serve(&report, Some(chaos_total)).fold(point))
        }
        Err(message) => Outcome::Error(message),
    }
}

/// Expand `spec` and run it on `workers` threads through the simulator.
pub fn run_spec(
    spec: &CampaignSpec,
    workers: usize,
    progress: Option<Progress<'_>>,
) -> ResultsStore {
    campaign::run_campaign(spec, workers, &run_point, progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::expand;

    /// The paper's full 4×2×2 matrix: 4 kernels × {SMC, natural} ×
    /// {CLI, PI}.
    fn paper_matrix() -> CampaignSpec {
        let mut spec = CampaignSpec::named("paper-matrix");
        spec.axes.kernels = Kernel::PAPER_SUITE
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        spec.axes.orders = vec!["smc".into(), "natural".into()];
        spec.axes.memories = vec!["cli".into(), "pi".into()];
        spec.axes.fifos = vec![32];
        spec.axes.lengths = vec![128];
        spec
    }

    #[test]
    fn job_for_rejects_nonsense_points() {
        let good = RunPoint::smoke("copy", 64);
        assert!(job_for(&good).is_ok());
        let bad_kernel = RunPoint {
            kernel: "warp".into(),
            ..good.clone()
        };
        assert!(job_for(&bad_kernel).unwrap_err().contains("warp"));
        let bad_faults = RunPoint {
            faults: "gremlins:9".into(),
            ..good.clone()
        };
        assert!(job_for(&bad_faults).unwrap_err().contains("fault spec"));
        // Each plan takes only its own clauses, and the error names the
        // misplaced clause and the plan it belongs in.
        let channel_fault = RunPoint {
            faults: "nack:50:4;outage:1:0:5000".into(),
            ..good.clone()
        };
        let err = job_for(&channel_fault).unwrap_err();
        assert!(
            err.contains("`outage:1:0:5000`") && err.contains("`chaos`"),
            "{err}"
        );
        let device_chaos = RunPoint {
            chaos: "brownout:0:0:100:2;nack:500:8".into(),
            ..good.clone()
        };
        let err = job_for(&device_chaos).unwrap_err();
        assert!(
            err.contains("`nack:500:8`") && err.contains("`faults`"),
            "{err}"
        );
        // Errors surface as structured outcomes, not panics.
        assert!(matches!(run_point(&bad_kernel), Outcome::Error(_)));
        // A clause aimed at a bank the system lacks fails the point.
        let missing_bank = RunPoint {
            faults: "busy:99:100:50".into(),
            ..good.clone()
        };
        assert!(
            matches!(run_point(&missing_bank), Outcome::Error(e) if e.contains("`busy:99:100:50`"))
        );
    }

    #[test]
    fn attribution_points_fill_the_category_counters_exactly() {
        let off = RunPoint::smoke("vaxpy", 64);
        let on = RunPoint {
            attribution: 1,
            ..off.clone()
        };
        let (off_out, on_out) = (run_point(&off), run_point(&on));
        let (Outcome::Ok(plain), Outcome::Ok(attr)) = (&off_out, &on_out) else {
            panic!("both points run clean: {off_out:?} / {on_out:?}");
        };
        // Attribution never perturbs the simulated outcome...
        assert_eq!(plain.cycles, attr.cycles);
        assert_eq!(plain.percent_peak_milli, attr.percent_peak_milli);
        assert_eq!(plain.attr_data_cycles, 0, "off points stay zeroed");
        // ...and the six categories partition the run exactly.
        let sum = attr.attr_data_cycles
            + attr.attr_turnaround_cycles
            + attr.attr_row_overhead_cycles
            + attr.attr_bank_conflict_cycles
            + attr.attr_retry_cycles
            + attr.attr_idle_cycles;
        assert_eq!(sum, attr.cycles);
        assert!(attr.attr_data_cycles > 0);
    }

    #[test]
    fn parallel_matrix_matches_serial_run_kernel_bit_exactly() {
        let spec = paper_matrix();
        let points = expand(&spec);
        assert_eq!(points.len(), 4 * 2 * 2, "4 kernels x 2 orders x 2 memories");
        let store = run_spec(&spec, 4, None);
        assert_eq!(store.errored(), 0, "paper matrix runs clean");
        for record in &store.records {
            let (kernel, config) = job_for(&record.point).unwrap();
            let serial =
                crate::run_kernel(kernel, record.point.n, record.point.stride, &config).unwrap();
            match &record.outcome {
                Outcome::Ok(stats) => {
                    assert_eq!(
                        *stats,
                        Sources::run(&serial).fold(&record.point),
                        "{}",
                        record.point.key()
                    );
                }
                Outcome::Error(e) => panic!("{}: {e}", record.point.key()),
            }
        }
    }

    #[test]
    fn store_bytes_are_identical_across_worker_counts() {
        let spec = paper_matrix();
        let serial = run_spec(&spec, 1, None).to_jsonl();
        for workers in [2, 4, 7] {
            assert_eq!(
                run_spec(&spec, workers, None).to_jsonl(),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn tenant_points_route_through_the_serving_layer() {
        let point = RunPoint {
            tenants: "ls:1:daxpy:64+bh:2:copy:64".into(),
            budget_permille: 500,
            ..RunPoint::smoke("daxpy", 32)
        };
        let outcome = run_point(&point);
        let Outcome::Ok(stats) = &outcome else {
            panic!("tenant point runs clean: {outcome:?}");
        };
        assert!(stats.cycles > 0);
        assert!(stats.serve_completed > 0, "requests completed");
        assert_eq!(stats.serve_budget_violations, 0);
        assert!(stats.serve_fairness_milli > 0);
        assert_eq!(stats.activates, 0, "device counters stay per-request");
        // Deterministic: same point, same stats.
        assert_eq!(run_point(&point), outcome);
        // A bad mix or bad kernel inside the mix is a structured error.
        let bad_mix = RunPoint {
            tenants: "zz:1:copy:64".into(),
            ..point.clone()
        };
        assert!(matches!(run_point(&bad_mix), Outcome::Error(_)));
        let bad_kernel = RunPoint {
            tenants: "ls:1:warp:64".into(),
            ..point.clone()
        };
        let Outcome::Error(e) = run_point(&bad_kernel) else {
            panic!("unknown kernel in mix must error");
        };
        assert!(e.contains("warp"), "{e}");
    }

    #[test]
    fn multi_channel_points_run_clean_and_move_the_run_id() {
        let single = RunPoint::smoke("daxpy", 64);
        let multi = RunPoint {
            channels: 2,
            placement: "interleaved:1024".into(),
            ..single.clone()
        };
        assert_ne!(multi.run_id(), single.run_id());
        let out = run_point(&multi);
        let Outcome::Ok(stats) = &out else {
            panic!("multi-channel point runs clean: {out:?}");
        };
        let Outcome::Ok(base) = run_point(&single) else {
            panic!("single-channel base runs clean");
        };
        // Same work, different schedule; the run is deterministic.
        assert_eq!(stats.useful_words, base.useful_words);
        assert!(stats.cycles > 0);
        assert_eq!(run_point(&multi), out);
        // Bad placement specs surface as structured errors.
        let bad = RunPoint {
            placement: "warp:9".into(),
            ..multi.clone()
        };
        let Outcome::Error(e) = run_point(&bad) else {
            panic!("bad placement must error");
        };
        assert!(e.contains("placement"), "{e}");
    }

    #[test]
    fn chaotic_points_degrade_deterministically_and_account_for_mttr() {
        let healthy = RunPoint {
            channels: 2,
            ..RunPoint::smoke("copy", 256)
        };
        let chaotic = RunPoint {
            chaos: "brownout:0:100:1500:4;outage:1:400:600".into(),
            ..healthy.clone()
        };
        assert_ne!(chaotic.run_id(), healthy.run_id());
        let (h, c) = (run_point(&healthy), run_point(&chaotic));
        let (Outcome::Ok(base), Outcome::Ok(hit)) = (&h, &c) else {
            panic!("both points run clean: {h:?} / {c:?}");
        };
        // Degraded mode slows the run but never corrupts the work...
        assert!(hit.cycles > base.cycles, "{} > {}", hit.cycles, base.cycles);
        assert_eq!(hit.useful_words, base.useful_words);
        assert!(hit.chaos_degraded_commands > 0);
        // ...the healthy record never carries chaos accounting...
        assert_eq!(base.chaos_degraded_commands, 0);
        assert_eq!(base.chaos_mttr_cycles, 0);
        // ...and measured MTTR reconciles exactly against the injected
        // 600-cycle outage window.
        assert_eq!(hit.chaos_mttr_cycles, hit.chaos_outages_observed * 600);
        // Deterministic: same point, same stats.
        assert_eq!(run_point(&chaotic), c);
    }

    #[test]
    fn retry_budgets_flow_into_the_closed_loop() {
        let point = RunPoint {
            tenants: "ls:1:daxpy:64+bh:2:copy:64".into(),
            budget_permille: 500,
            retry_budget: 3,
            ..RunPoint::smoke("daxpy", 32)
        };
        let out = run_point(&point);
        let Outcome::Ok(stats) = &out else {
            panic!("retrying tenant point runs clean: {out:?}");
        };
        assert!(stats.serve_completed > 0);
        // Retry amplification is bounded by the per-request budget:
        // at most `budget` resubmissions per original rejection.
        assert!(stats.serve_retries <= (stats.serve_rejected + stats.serve_retry_exhausted) * 3);
        // Deterministic, and distinct from the budget-free point.
        assert_eq!(run_point(&point), out);
        let plain = RunPoint {
            retry_budget: 0,
            ..point.clone()
        };
        assert_ne!(plain.run_id(), point.run_id());
        let Outcome::Ok(base) = run_point(&plain) else {
            panic!("budget-free point runs clean");
        };
        assert_eq!(base.serve_retries, 0, "disabled loop never retries");
        // A bad chaos spec surfaces as a structured error.
        let bad = RunPoint {
            chaos: "gremlins:9".into(),
            ..point.clone()
        };
        let Outcome::Error(e) = run_point(&bad) else {
            panic!("bad chaos spec must error");
        };
        assert!(e.contains("chaos"), "{e}");
    }

    #[test]
    fn faulty_points_run_deterministically() {
        let point = RunPoint {
            faults: "nack:50:4".into(),
            fault_seed: 11,
            n: 64,
            ..RunPoint::smoke("daxpy", 16)
        };
        let a = run_point(&point);
        let b = run_point(&point);
        assert_eq!(a, b, "fault injection is seed-deterministic");
        assert!(matches!(a, Outcome::Ok(_)));
    }
}
