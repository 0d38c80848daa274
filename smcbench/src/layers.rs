//! The traced run: one pass over a workload with spans around the calls
//! into every layer it reaches, folded into the per-layer metrics.
//!
//! Every point (stream run, campaign grid point, or executed serve request)
//! goes through [`deep_point`]: the end-to-end `run_kernel` call with and
//! without verification, the replica loop that times the controller and
//! CPU ticks, a command-recording run whose stream is replayed through
//! `memsys` and audited by `checker`, the scalar reference, and the
//! telemetry collection. The campaign and serve workloads add their own
//! layer's calls on top. End-to-end numbers never come from here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use analytic::smc::Workload as StreamShape;
use campaign::{CampaignSpec, Outcome, ResultsStore, RunPoint};
use kernels::{Coefficients, Kernel, ReferenceMachine};
use rdram::CommandRecord;
use sim::serve::SimExecutor;
use sim::{AccessOrder, RunResult, RunTelemetry, SystemConfig};
use tenancy::{
    Executor, Request, RequestOutcome, ServeTrace, ServiceReport, TenantClass, TenantSpec,
};

use crate::catalog::PER_LAYER;
use crate::inputs::{Inputs, ServeInputs};
use crate::replica;
use crate::spans::{ns_since, Spans};

/// What the traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric, zero where the workload does not reach the
    /// layer.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The recorded spans.
    pub spans: Spans,
    /// Failed output checks, one message each.
    pub problems: Vec<String>,
}

/// Raw sums keyed by per-layer metric name, or by an internal `_` name for
/// the numerators and denominators of ratio metrics.
#[derive(Default)]
struct Ctx {
    sums: BTreeMap<&'static str, f64>,
    spans: Spans,
    problems: Vec<String>,
    /// Cost of one clock read, subtracted from per-tick spans.
    clock_ns: f64,
}

impl Ctx {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn add_u(&mut self, key: &'static str, v: u64) {
        self.add(key, v as f64);
    }

    fn set(&mut self, key: &'static str, v: f64) {
        self.sums.insert(key, v);
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Run `f` inside a span and return its result and duration.
    fn timed<T>(
        &mut self,
        name: &'static str,
        point: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.spans.begin(name, point, parent);
        let out = f();
        (out, self.spans.end(id))
    }
}

/// Run the traced pass. `untraced_pass_s` is the untraced median pass
/// time, the base of `bench.trace_overhead_permille`.
pub fn run_traced(inputs: &Inputs, untraced_pass_s: f64) -> Traced {
    let mut ctx = Ctx {
        clock_ns: replica::clock_read_ns(),
        ..Ctx::default()
    };
    match inputs {
        Inputs::Streams(points) => {
            for p in points {
                deep_point(&mut ctx, p.kernel, p.n, p.stride, &p.cfg, &p.label());
            }
        }
        Inputs::Campaign { spec, points } => {
            campaign_layers(&mut ctx, spec, points, untraced_pass_s)
        }
        Inputs::Serve(s) => serve_layers(&mut ctx, s, untraced_pass_s),
    }
    let metrics = finish(&ctx);
    Traced {
        metrics,
        spans: ctx.spans,
        problems: ctx.problems,
    }
}

/// Per-channel timing-conformance violations of a recorded stream.
fn violations(cfg: &SystemConfig, commands: &[CommandRecord]) -> usize {
    if cfg.channels > 1 {
        memsys::split_by_channel(commands, cfg.channels, cfg.device.total_banks())
            .iter()
            .map(|local| checker::check(&cfg.device, local).len())
            .sum()
    } else {
        checker::check(&cfg.device, commands).len()
    }
}

/// Drive one run through every layer it reaches; returns the end-to-end
/// call's result.
fn deep_point(
    ctx: &mut Ctx,
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
    label: &str,
) -> Option<RunResult> {
    let point = ctx.spans.begin("point", label, None);
    let out = deep_point_in(ctx, kernel, n, stride, cfg, label, point);
    ctx.spans.end(point);
    out
}

fn deep_point_in(
    ctx: &mut Ctx,
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
    label: &str,
    point: usize,
) -> Option<RunResult> {
    let parent = Some(point);
    let (on, on_ns) = ctx.timed("sim.run_kernel", label, parent, || {
        sim::run_kernel(kernel, n, stride, cfg)
    });
    let r = match on {
        Ok(r) => r,
        Err(e) => {
            ctx.problems.push(format!("{label}: {e}"));
            return None;
        }
    };
    let mut unverified = cfg.clone();
    unverified.verify = false;
    let (off, off_ns) = ctx.timed("sim.run_kernel_unverified", label, parent, || {
        sim::run_kernel(kernel, n, stride, &unverified)
    });
    if let Err(e) = off {
        ctx.problems.push(format!("{label} (unverified): {e}"));
    }
    ctx.add_u("_verify_on_ns", on_ns);
    ctx.add_u("_verify_off_ns", off_ns);

    if replica::replicable(cfg) {
        let id = ctx.spans.begin("sim.replica", label, parent);
        let start = Instant::now();
        let rep = replica::replicate(kernel, n, stride, cfg, ctx.clock_ns);
        ctx.spans.end(id);
        match rep {
            Ok(rep) => {
                if rep.cycles != r.cycles
                    || rep.device_stats != r.device_stats
                    || rep.msu_stats != r.msu_stats
                    || rep.baseline != r.baseline
                {
                    ctx.problems.push(format!(
                        "{label}: replica diverged from run_kernel ({} vs {} cycles)",
                        rep.cycles, r.cycles
                    ));
                }
                if rep.ticks > 0 {
                    ctx.spans
                        .add("smc.tick", label, Some(id), start, rep.smc_ns);
                    ctx.spans
                        .add("cpu.tick", label, Some(id), start, rep.cpu_ns);
                } else {
                    ctx.spans.add(
                        "baseline.run_to_completion",
                        label,
                        Some(id),
                        start,
                        rep.baseline_ns,
                    );
                }
                ctx.add_u("smc.tick_calls", rep.ticks);
                ctx.add_u("cpu.tick_calls", rep.ticks);
                ctx.add_u("smc.tick_ns", rep.smc_ns);
                ctx.add_u("cpu.tick_ns", rep.cpu_ns);
                ctx.add_u("baseline.run_ns", rep.baseline_ns);
                if let Some(m) = rep.msu_stats {
                    ctx.add_u("_smc_idle", m.idle_cycles);
                }
                if let Some(b) = rep.baseline {
                    ctx.add_u("_baseline_cycles", b.last_data_cycle);
                    ctx.add_u("_baseline_idle", b.idle_cycles);
                }
                ctx.add_u("_replica_off_ns", off_ns);
                ctx.add_u("_replica_ns", rep.smc_ns + rep.cpu_ns + rep.baseline_ns);
            }
            Err(e) => ctx.problems.push(format!("{label} (replica): {e}")),
        }
    }

    let mut recording = unverified;
    recording.record_commands = true;
    recording.telemetry = false;
    match sim::run_kernel(kernel, n, stride, &recording) {
        Ok(rec) => {
            if rec.cycles != r.cycles {
                ctx.problems
                    .push(format!("{label}: recording commands changed the run"));
            }
            // The replay has no fault injector, so only fault-free streams
            // replay meaningfully.
            if cfg.faults.is_none() {
                let (res, ns) = ctx.timed("memsys.replay", label, parent, || {
                    replica::replay(cfg, &rec.commands)
                });
                match res {
                    Ok(()) => {
                        ctx.add_u("memsys.commands", rec.commands.len() as u64);
                        ctx.add_u("memsys.replay_ns", ns);
                    }
                    Err(e) => ctx.problems.push(format!("{label} (replay): {e}")),
                }
            }
            // Chaos decouples launch from delivery, which the checker's
            // healthy timing model does not describe.
            if !cfg.chaos_active() {
                let (bad, ns) = ctx.timed("checker.check", label, parent, || {
                    violations(cfg, &rec.commands)
                });
                ctx.add_u("checker.commands", rec.commands.len() as u64);
                ctx.add_u("checker.check_ns", ns);
                ctx.add_u("checker.violations", bad as u64);
                if bad > 0 {
                    ctx.problems
                        .push(format!("{label}: {bad} timing violations"));
                }
            }
        }
        Err(e) => ctx.problems.push(format!("{label} (recording): {e}")),
    }

    let bases = sim::vector_bases(kernel, n, stride, cfg);
    let mut image = replica::seeded_image(kernel, &bases, n, stride);
    let reference = ReferenceMachine::new(kernel, Coefficients::default());
    let ((), ns) = ctx.timed("kernels.reference", label, parent, || {
        reference.run(&mut image, &bases, n, stride)
    });
    ctx.add_u("kernels.reference_ns", ns);

    if let Some(tel) = &r.telemetry {
        let events = tel.events.clone();
        let (collected, ns) = ctx.timed("telemetry.collect", label, parent, || {
            RunTelemetry::collect(&cfg.device, cfg.channels, &r, events)
        });
        if collected.attribution != tel.attribution {
            ctx.problems
                .push(format!("{label}: telemetry collection is not repeatable"));
        }
        let g = *collected.attribution.global();
        ctx.add_u("telemetry.collect_ns", ns);
        ctx.add_u("_attr_data", g.data);
        ctx.add_u("_attr_turnaround", g.turnaround);
        ctx.add_u("_attr_row_overhead", g.row_overhead);
        ctx.add_u("_attr_bank_conflict", g.bank_conflict);
        ctx.add_u("_attr_retry", g.retry);
        ctx.add_u("_attr_idle", g.idle);
        ctx.add_u("_attr_total", g.sum());
    }

    let d = &r.device_stats;
    ctx.add_u("rdram.activates", d.activates);
    ctx.add_u("rdram.turnarounds", d.turnarounds);
    ctx.add_u("_page_hits", d.read_hits + d.write_hits);
    ctx.add_u("_col_packets", d.col_packets());
    ctx.add_u("_data_busy", d.data_busy_cycles);
    ctx.add_u("_channel_cycles", r.cycles * cfg.channels.max(1) as u64);
    if let Some(m) = &r.msu_stats {
        ctx.add_u("smc.fifo_switches", m.fifo_switches);
        ctx.add_u("smc.packets", m.packets_read + m.packets_written);
        ctx.add_u("smc.data_nacks", m.data_nacks);
        ctx.add_u("faults.data_nacks", m.data_nacks);
        ctx.add_u("faults.stall_cycles", m.injected_stall_cycles);
        ctx.add_u("faults.degraded_banks", m.degraded_banks);
    }
    if let Some(b) = &r.baseline {
        ctx.add_u("baseline.line_transfers", b.line_transfers);
        ctx.add_u("faults.data_nacks", b.data_nacks);
    }
    let chaos = r.chaos_total();
    ctx.add_u("memsys.chaos_degraded_commands", chaos.degraded_commands);
    ctx.add_u("memsys.chaos_deferred_cycles", chaos.deferred_cycles);
    ctx.add_u("memsys.outages_observed", chaos.outages_observed);
    let channels = ctx.get("memsys.channels").max(cfg.channels as f64);
    ctx.set("memsys.channels", channels);

    if cfg.faults.is_none() && !cfg.chaos_active() && cfg.channels == 1 {
        let sys = cfg.stream_system();
        let org = cfg.memory.organization();
        let bound = match cfg.ordering {
            AccessOrder::Smc { fifo_depth } => {
                let shape = StreamShape {
                    reads: kernel.reads(),
                    writes: kernel.writes(),
                    length: n,
                    stride,
                };
                sys.smc_combined_bound(org, &shape, fifo_depth as u64)
            }
            AccessOrder::NaturalOrder => sys.multi_stream(org, kernel.total_streams(), n, stride),
        };
        if bound > 0.0 {
            ctx.add("_bound_ratio_sum", 1000.0 * r.percent_peak() / bound);
            ctx.add("_bound_points", 1.0);
        }
    }
    Some(r)
}

/// Traced repetitions of the end-to-end pass that carries timing wrappers
/// (the campaign at 2 workers, the serve loop). The one with the median
/// wall time supplies that layer's timings and the trace overhead: a
/// single pass on this host can run 1.6x slow.
const WRAPPED_PASSES: usize = 3;

/// The `(wall, result)` pair with the median wall time.
fn median_run<T>(mut runs: Vec<(u64, T)>) -> (u64, T) {
    runs.sort_by_key(|r| r.0);
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// Run the grid through `campaign::run_points` with a runner closure that
/// times each `sim::sweep::run_point` call. Returns the wall time, the
/// store and the summed per-run time.
fn timed_grid(
    ctx: &mut Ctx,
    name: &'static str,
    spec: &CampaignSpec,
    points: &[RunPoint],
    workers: usize,
) -> (u64, (ResultsStore, u64)) {
    let runs: Mutex<Vec<(String, Instant, u64)>> = Mutex::new(Vec::new());
    let runner = |p: &RunPoint| {
        let start = Instant::now();
        let out = sim::sweep::run_point(p);
        let ns = ns_since(start);
        runs.lock()
            .expect("a campaign worker panicked while recording its run time")
            .push((p.run_id(), start, ns));
        out
    };
    let id = ctx.spans.begin(name, &spec.name, None);
    let store = campaign::run_points(&spec.name, points, workers, &runner, None);
    let wall = ctx.spans.end(id);
    let runs = runs
        .into_inner()
        .expect("a campaign worker panicked while recording its run time");
    let busy = runs.iter().map(|r| r.2).sum();
    for (run_id, start, ns) in runs {
        ctx.spans
            .add("sweep.run_point", &run_id, Some(id), start, ns);
    }
    (wall, (store, busy))
}

fn campaign_layers(ctx: &mut Ctx, spec: &CampaignSpec, points: &[RunPoint], untraced_s: f64) {
    let (grid, ns) = ctx.timed("campaign.expand", &spec.name, None, || {
        campaign::expand(spec)
    });
    ctx.set("campaign.expand_ns", ns as f64);
    ctx.set("campaign.points", points.len() as f64);
    if grid.len() != points.len() {
        ctx.problems
            .push("campaign grid size changed between expansions".to_string());
    }
    let mut runs = Vec::new();
    for _ in 0..WRAPPED_PASSES {
        runs.push(timed_grid(ctx, "campaign.run_points_2w", spec, points, 2));
    }
    let (wall2, (store2, busy2)) = median_run(runs);
    let (wall1, (store1, busy1)) = timed_grid(ctx, "campaign.run_points_1w", spec, points, 1);
    let (jsonl, store_ns) = ctx.timed("campaign.to_jsonl", &spec.name, None, || store2.to_jsonl());
    if jsonl != store1.to_jsonl() {
        ctx.problems
            .push("campaign stores differ between 1 and 2 workers".to_string());
    }
    ctx.set("campaign.wall_ns_1w", wall1 as f64);
    ctx.set("campaign.wall_ns_2w", wall2 as f64);
    ctx.set(
        "campaign.speedup_2w_milli",
        ratio(1000.0 * wall1 as f64, wall2 as f64),
    );
    ctx.set(
        "campaign.worker_util_permille",
        ratio(1000.0 * busy2 as f64, 2.0 * wall2 as f64),
    );
    ctx.set(
        "campaign.run_inflation_permille",
        ratio(1000.0 * busy2 as f64, busy1 as f64),
    );
    ctx.set("campaign.store_ns", store_ns as f64);
    ctx.set("campaign.store_bytes", jsonl.len() as f64);
    ctx.set(
        "bench.trace_overhead_permille",
        ratio(wall2 as f64, 1e6 * untraced_s),
    );

    for (point, rec) in points.iter().zip(&store2.records) {
        let job = sim::sweep::job_for(point).map(|(kernel, cfg)| {
            let cfg = if point.attribution != 0 {
                cfg.with_telemetry()
            } else {
                cfg
            };
            (kernel, cfg)
        });
        let (kernel, cfg) = match job {
            Ok(job) => job,
            Err(e) => {
                ctx.problems.push(format!("{}: {e}", point.key()));
                continue;
            }
        };
        let r = deep_point(ctx, kernel, point.n, point.stride, &cfg, &rec.run_id);
        if let (Some(r), Outcome::Ok(stats)) = (r, &rec.outcome) {
            if r.cycles != stats.cycles {
                ctx.problems
                    .push(format!("{}: store and direct run disagree", point.key()));
            }
        }
    }
}

/// A `tenancy::Executor` that times the simulator executor it wraps and
/// remembers every request it ran.
struct TimedExecutor {
    inner: SimExecutor,
    calls: RefCell<Vec<ExecutorCall>>,
}

struct ExecutorCall {
    start: Instant,
    ns: u64,
    tenant: TenantSpec,
    req: Request,
    cycles: Option<u64>,
}

impl Executor for TimedExecutor {
    fn execute(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
        let start = Instant::now();
        let out = self.inner.execute(tenant, req);
        let ns = ns_since(start);
        self.calls.borrow_mut().push(ExecutorCall {
            start,
            ns,
            tenant: tenant.clone(),
            req: *req,
            cycles: out.as_ref().ok().map(|r| r.cycles),
        });
        out
    }
}

/// One serve loop through the timing executor: the wall time, and the
/// loop's result, trace, executor calls, chaos totals and span.
type WrappedServe = (
    Result<tenancy::ServeReport, tenancy::ServeError>,
    ServeTrace,
    Vec<ExecutorCall>,
    memsys::ChannelFaultStats,
    usize,
);

fn wrapped_serve(ctx: &mut Ctx, s: &ServeInputs) -> (u64, WrappedServe) {
    let exec = TimedExecutor {
        inner: SimExecutor::new(s.base.clone()),
        calls: RefCell::new(Vec::new()),
    };
    let mut trace = ServeTrace::new();
    let id = ctx.spans.begin("tenancy.serve_traced", "serve", None);
    let served = tenancy::serve_traced(&s.mix, &s.cfg, &exec, Some(&mut trace));
    let serve_ns = ctx.spans.end(id);
    let calls = exec.calls.take();
    for c in &calls {
        let label = format!("{}#{}", c.tenant.name, c.req.seq);
        ctx.spans
            .add("sim.serve.execute", &label, Some(id), c.start, c.ns);
    }
    let chaos = exec.inner.chaos_totals();
    (serve_ns, (served, trace, calls, chaos, id))
}

fn serve_layers(ctx: &mut Ctx, s: &ServeInputs, untraced_s: f64) {
    let mut runs = Vec::new();
    for _ in 0..WRAPPED_PASSES {
        runs.push(wrapped_serve(ctx, s));
    }
    let (serve_ns, (served, trace, calls, executor_chaos, id)) = median_run(runs);
    let executor_ns: u64 = calls.iter().map(|c| c.ns).sum();
    let report = match served {
        Ok(report) => report,
        Err(e) => {
            ctx.problems.push(format!("serve failed: {e}"));
            return;
        }
    };
    let self_ns = ctx.spans.self_ns(id);
    let (_submitted, _completed, failed, shed, rejected, _misses, _words) = report.totals();
    ctx.set("tenancy.requests", s.mix.total_requests() as f64);
    ctx.set("tenancy.dispatches", report.dispatches as f64);
    ctx.set(
        "tenancy.retries",
        report.tenants.iter().map(|t| t.retries).sum::<u64>() as f64,
    );
    ctx.set("tenancy.shed", shed as f64);
    ctx.set("tenancy.rejected", rejected as f64);
    ctx.set("tenancy.budget_violations", report.budget_violations as f64);
    ctx.set("tenancy.executor_ns", executor_ns as f64);
    ctx.set("tenancy.self_ns", self_ns as f64);
    ctx.set(
        "tenancy.ns_per_dispatch",
        ratio(self_ns as f64, report.dispatches as f64),
    );
    ctx.set(
        "bench.trace_overhead_permille",
        ratio(serve_ns as f64, 1e6 * untraced_s),
    );
    if report.budget_violations != 0 || failed != 0 {
        ctx.problems.push(format!(
            "serve: {} budget violations, {failed} failed requests",
            report.budget_violations
        ));
    }

    // Each request's final outcome is its last span; a request that was
    // not completed by its deadline (failed, shed, or left rejected)
    // counts as a miss.
    let mut last: BTreeMap<(usize, u64), (RequestOutcome, bool)> = BTreeMap::new();
    let mut ls_latencies = Vec::new();
    for span in trace.spans() {
        last.insert(
            (span.tenant, span.seq),
            (span.outcome, span.deadline_missed),
        );
        let ls = s.mix.tenants[span.tenant].class == TenantClass::LatencySensitive;
        if ls && span.outcome == RequestOutcome::Completed {
            ls_latencies.push(span.latency());
        }
    }
    let requests = last.len() as f64;
    let missed = last
        .values()
        .filter(|(o, late)| *o != RequestOutcome::Completed || *late)
        .count() as f64;
    let unserved = last
        .values()
        .filter(|(o, _)| *o != RequestOutcome::Completed)
        .count() as f64;
    ctx.set(
        "tenancy.deadline_miss_permille",
        ratio(1000.0 * missed, requests),
    );
    ctx.set(
        "tenancy.failed_permille",
        ratio(1000.0 * unserved, requests),
    );
    let p99 = tenancy::trace::summarize(&ls_latencies).map_or(0, |p| p.p99);
    ctx.set("tenancy.ls_p99_cycles", p99 as f64);

    // Re-run every executed request outside the serve loop, exactly as the
    // executor ran it, to reach the layers below.
    for c in &calls {
        let Some(kernel) = Kernel::ALL
            .into_iter()
            .find(|k| k.name() == c.tenant.kernel)
        else {
            ctx.problems
                .push(format!("unknown kernel {}", c.tenant.kernel));
            continue;
        };
        let mut cfg = s.base.clone();
        if let Some(plan) = s.base.chaos.as_ref().filter(|p| p.has_channel_faults()) {
            cfg.chaos = Some(plan.shifted(c.req.submitted_at));
        }
        let label = format!("{}#{}", c.tenant.name, c.req.seq);
        let r = deep_point(ctx, kernel, c.tenant.n, c.tenant.stride, &cfg, &label);
        if r.map(|r| r.cycles) != c.cycles {
            ctx.problems
                .push(format!("{label}: re-run disagrees with the executor"));
        }
    }
    if ctx.get("memsys.outages_observed") != executor_chaos.outages_observed as f64
        || ctx.get("memsys.chaos_deferred_cycles") != executor_chaos.deferred_cycles as f64
    {
        ctx.problems
            .push("serve: re-runs disagree with the executor's chaos accounting".to_string());
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold the raw sums into every per-layer metric.
fn finish(ctx: &Ctx) -> BTreeMap<&'static str, f64> {
    let g = |k: &str| ctx.get(k);
    let attr = |k: &str| ratio(1000.0 * g(k), g("_attr_total"));
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "cpu.ns_per_tick" => ratio(g("cpu.tick_ns"), g("cpu.tick_calls")),
                "smc.ns_per_tick" => ratio(g("smc.tick_ns"), g("smc.tick_calls")),
                "smc.idle_tick_permille" => ratio(1000.0 * g("_smc_idle"), g("smc.tick_calls")),
                "baseline.ns_per_cycle" => ratio(g("baseline.run_ns"), g("_baseline_cycles")),
                "baseline.idle_cycle_permille" => {
                    ratio(1000.0 * g("_baseline_idle"), g("_baseline_cycles"))
                }
                "memsys.ns_per_command" => ratio(g("memsys.replay_ns"), g("memsys.commands")),
                "rdram.page_hit_permille" => ratio(1000.0 * g("_page_hits"), g("_col_packets")),
                "rdram.data_busy_permille" => ratio(1000.0 * g("_data_busy"), g("_channel_cycles")),
                "sim.verify_ns" => (g("_verify_on_ns") - g("_verify_off_ns")).max(0.0),
                "sim.runner_other_ns" => (g("_replica_off_ns") - g("_replica_ns")).max(0.0),
                "analytic.sim_over_bound_permille" => {
                    ratio(g("_bound_ratio_sum"), g("_bound_points"))
                }
                "telemetry.attr_data_permille" => attr("_attr_data"),
                "telemetry.attr_turnaround_permille" => attr("_attr_turnaround"),
                "telemetry.attr_row_overhead_permille" => attr("_attr_row_overhead"),
                "telemetry.attr_bank_conflict_permille" => attr("_attr_bank_conflict"),
                "telemetry.attr_retry_permille" => attr("_attr_retry"),
                "telemetry.attr_idle_permille" => attr("_attr_idle"),
                "checker.ns_per_command" => ratio(g("checker.check_ns"), g("checker.commands")),
                name => g(name),
            };
            (m.name, v)
        })
        .collect()
}
