//! Argument parsing and execution for the `smcsim` command-line tool.
//!
//! A command line is a [`RunPoint`]. Every row of [`PARAMS`] is a flag
//! `--<name>` (with `_` written as `-`) whose value is checked against the
//! row's [`Domain`], and the point is configured by
//! [`sweep::job_for`], the binding campaigns use. The CLI-only flags of
//! `EXTRAS` then adjust what a point does not describe. A point with a
//! tenant mix is served, exactly as [`sweep::run_point`] serves it.
//!
//! ```text
//! smcsim --kernel daxpy --n 1024 --memory cli --order smc --fifo 64
//! smcsim --kernel vaxpy --stride 4 --memory pi --order natural --json
//! smcsim --kernel copy --record-trace copy.trace.json
//! smcsim check copy.trace.json
//! ```

// No-panic, with no exception: `forbid` rejects any inner allow or expect.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::todo, clippy::unimplemented))]

use campaign::{Domain, Param, RunPoint, Val, PARAMS};
use checker::TraceFile;
use kernels::Kernel;

use crate::counters::Sources;
use crate::{metrics, run_kernel, sweep, AccessOrder, RunResult, SystemConfig};

/// A fully parsed `smcsim` command line.
#[derive(Debug, Clone)]
pub struct Job {
    /// The run point the parameter flags describe.
    pub point: RunPoint,
    /// The point's kernel.
    pub kernel: Kernel,
    /// The point's system configuration, adjusted by the CLI-only flags.
    pub config: SystemConfig,
    /// The serving-layer configuration, for a point with a tenant mix.
    pub serve: Option<tenancy::ServeConfig>,
    /// Emit JSON instead of a text summary.
    pub json: bool,
    /// Print the analytic bound derivation alongside the measurement.
    pub explain: bool,
    /// Write the recorded command stream to this path as a
    /// [`TraceFile`] for later `smcsim check` runs.
    pub record_trace: Option<String>,
    /// Write the run's metrics registry to this path as JSON Lines. On a
    /// failed run the livelock / failure registry is written instead.
    pub metrics_out: Option<String>,
    /// Write a Chrome trace-event / Perfetto JSON timeline to this path
    /// (for a serve, the request-lifecycle timeline). Load it at
    /// `ui.perfetto.dev`.
    pub perfetto_out: Option<String>,
    /// Write the run's exclusive cycle attribution to this path as JSON;
    /// render it with `smcsim report --attribution`.
    pub attribution_out: Option<String>,
    /// Write the run's metric registry to this path as Prometheus-style
    /// text exposition.
    pub prom_out: Option<String>,
    /// Write a serve's request-lifecycle trace stream to this path as
    /// JSONL; render it with `smcsim report --percentiles`.
    pub trace_out: Option<String>,
}

/// Where a CLI-only flag applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A single kernel run (no tenant mix).
    Run,
    /// A served point (one with a tenant mix).
    Serve,
    /// Both.
    Both,
}

/// A CLI-only flag: one that adjusts what a [`RunPoint`] does not describe.
struct Extra {
    flag: &'static str,
    /// Its value placeholder, or `""` for a switch.
    arg: &'static str,
    mode: Mode,
    help: &'static str,
    apply: fn(&mut Job, &str) -> Result<(), String>,
}

fn number<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{e}"))
}

/// The value of the flag at `args[*i]`, moving `i` onto it.
fn value_of<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

/// The numeric value of the flag at `args[*i]`, moving `i` onto it.
fn number_of<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    number(value_of(args, i)?).map_err(|e| format!("{flag}: {e}"))
}

/// A plain run collects telemetry to write its metric files; a serve builds
/// them from its report.
fn collect_telemetry(job: &mut Job) {
    job.config.telemetry |= job.serve.is_none();
}

const fn extra(
    flag: &'static str,
    arg: &'static str,
    mode: Mode,
    help: &'static str,
    apply: fn(&mut Job, &str) -> Result<(), String>,
) -> Extra {
    Extra {
        flag,
        arg,
        mode,
        help,
        apply,
    }
}

/// The CLI-only flags.
#[rustfmt::skip]
const EXTRAS: &[Extra] = &[
    extra("--remote-penalty", "L", Mode::Both, "per-channel ROW penalties, e.g. 0,40", |job, v| {
        let penalties = v.split(',').map(|s| number(s.trim()));
        job.config.remote_penalty = penalties.collect::<Result<_, _>>()?;
        Ok(())
    }),
    extra("--metrics-out", "F", Mode::Both, "write the metric registry as JSONL", |job, v| {
        collect_telemetry(job);
        job.metrics_out = Some(v.to_string());
        Ok(())
    }),
    extra("--perfetto-out", "F", Mode::Both, "write a Perfetto timeline", |job, v| {
        collect_telemetry(job);
        job.perfetto_out = Some(v.to_string());
        Ok(())
    }),
    extra("--json", "", Mode::Both, "JSON output", |job, _| {
        job.json = true;
        Ok(())
    }),
    extra("--policy", "P", Mode::Run, "MSU policy: rr|bank-aware [rr]", |job, v| {
        job.config.policy = match v {
            "rr" | "round-robin" => smc::Policy::RoundRobin,
            "bank-aware" | "ba" => smc::Policy::BankAware,
            other => return Err(format!("unknown policy {other:?}")),
        };
        Ok(())
    }),
    extra("--cpu-cycles", "C", Mode::Run, "CPU cycles per stream access [2]", |job, v| {
        job.config.cpu_access_cycles = number(v)?;
        Ok(())
    }),
    extra("--spec", "", Mode::Run, "speculative page activation", |job, _| {
        job.config.speculative = true;
        Ok(())
    }),
    extra("--refresh", "", Mode::Run, "honour DRAM refresh", |job, _| {
        job.config.refresh = true;
        Ok(())
    }),
    extra("--write-allocate", "", Mode::Run, "charge write-allocate traffic", |job, _| {
        job.config.write_allocate = true;
        Ok(())
    }),
    extra("--cache", "", Mode::Run, "model a real 16 KB 4-way cache", |job, _| {
        job.config.cache = Some(baseline::cache::CacheConfig::i860xp());
        Ok(())
    }),
    extra("--record-trace", "F", Mode::Run, "write the command stream for `check`", |job, v| {
        job.config.record_commands = true;
        job.record_trace = Some(v.to_string());
        Ok(())
    }),
    extra("--attribution-out", "F", Mode::Run, "write the cycle attribution", |job, v| {
        job.attribution_out = Some(v.to_string());
        Ok(())
    }),
    extra("--prom-out", "F", Mode::Run, "write the metrics as Prometheus text", |job, v| {
        collect_telemetry(job);
        job.prom_out = Some(v.to_string());
        Ok(())
    }),
    extra("--explain", "", Mode::Run, "print the analytic bound derivation", |job, _| {
        job.explain = true;
        Ok(())
    }),
    extra("--arb", "POLICY", Mode::Serve, "fcfs|rr|regulated [fcfs]", |job, v| {
        if let Some(cfg) = &mut job.serve {
            cfg.policy = v.to_string();
        }
        Ok(())
    }),
    extra("--queue-cap", "N", Mode::Serve, "admission-queue capacity [8]", |job, v| {
        if let Some(cfg) = &mut job.serve {
            cfg.queue_capacity = number(v)?;
        }
        Ok(())
    }),
    extra("--trace-out", "F", Mode::Serve, "write the request trace as JSONL", |job, v| {
        job.trace_out = Some(v.to_string());
        Ok(())
    }),
];

/// The command-line flag of a [`PARAMS`] row: `--<name>`, with `_`
/// written as `-`.
fn flag(param: &Param) -> String {
    format!("--{}", param.name.replace('_', "-"))
}

/// Usage text for `--help`. The run-parameter block is rendered from
/// [`PARAMS`] and the option blocks from `EXTRAS`.
pub fn usage() -> String {
    let mut out = String::from(
        "\
usage: smcsim [OPTIONS]           run one point; a point with a tenant mix is
                                  served through the multi-tenant layer
       smcsim serve [OPTIONS]     the same, with a tenant mix required
       smcsim check TRACE.json    replay a recorded trace through the
                                  timing-conformance checker
       smcsim report [--metrics METRICS.jsonl] [--perfetto TRACE.json]
                     [--attribution ATTR.json] [--percentiles TRACE.jsonl]
                     [--prom METRICS.prom]
                                  render a metrics dump as a table, a cycle
                                  attribution as category/bank tables, a
                                  serve trace stream as exact per-tenant
                                  latency/slack percentiles; validate a
                                  Perfetto trace or a Prometheus exposition
       smcsim campaign run SPEC.json [--workers N] [--out FILE.jsonl] [--quiet]
                                  expand a campaign spec and run its grid on
                                  N worker threads (default: all cores),
                                  writing a schema-versioned JSONL store
       smcsim campaign list SPEC.json
                                  print the expanded grid (run ID + config
                                  fingerprint per line) without running it
       smcsim campaign diff GOLDEN.jsonl CURRENT.jsonl
                                  [--cycles-tol-permille P] [--peak-tol-milli M]
                                  gate a results store against a committed
                                  golden; exits nonzero on regression

run parameters (one per campaign axis, same names and values):
",
    );
    for param in PARAMS {
        let default = match &param.default {
            Val::Str(s) if s.is_empty() => "none".to_string(),
            v @ (Val::Str(_) | Val::U64(_)) => v.to_string(),
        };
        let head = format!("  {} {}", flag(param), param.domain);
        out.push_str(&format!("{head:<40}[{default}]\n"));
    }
    for (mode, title) in [
        (Mode::Both, "options"),
        (Mode::Run, "kernel-run options"),
        (Mode::Serve, "serve options"),
    ] {
        out.push_str(&format!("\n{title}:\n"));
        for extra in EXTRAS.iter().filter(|e| e.mode == mode) {
            let head = format!("  {} {}", extra.flag, extra.arg);
            out.push_str(&format!("{head:<22}{}\n", extra.help));
        }
    }
    let kernels: Vec<&str> = Kernel::ALL.iter().map(Kernel::name).collect();
    out.push_str(&format!(
        "\nvalue syntax:
  kernel      {}
  faults      ';'-separated clauses from busy:<bank|*>:<period>:<len>,
              nack:<permille>:<retries>, storm:<period>:<len> and
              stall:<period>:<len>
  fault_seed  seeds the fault injector, the chaos injector and the
              closed-loop client retries
  tenants     '+'-separated class:count:kernel:n[:stride] groups (class
              ls|bh), e.g. ls:2:daxpy:256+bh:6:copy:1024; a served point
              runs the mix's kernels, so its own kernel, n and stride stay
              at their defaults
  placement   interleaved[:bytes] | sequential | numa[:home]
  chaos       ';'-separated channel-fault clauses from
              brownout:<ch>:<from>:<len>:<mult>, outage:<ch>:<from>:<len>
              and devfail:<ch>:<dev>:<from>:<mult>; in a serve the windows
              slide to each request's submission. A faults or chaos clause
              naming a bank, channel or device the system lacks fails the
              run",
        kernels.join("|")
    ));
    out
}

/// Whether the grid pins `param` for every point of `point`'s mode: its
/// collapse rule holds on the defaults with `point`'s tenant mix but not
/// with the other mode's. Such a flag does not apply to the command line.
fn pinned_by_mode(param: &Param, point: &RunPoint) -> bool {
    let Some(rule) = param.collapse else {
        return false;
    };
    let mode = RunPoint {
        tenants: point.tenants.clone(),
        ..RunPoint::default()
    };
    let other = RunPoint {
        tenants: if point.tenants.is_empty() { "-" } else { "" }.to_string(),
        ..RunPoint::default()
    };
    (rule.holds)(&mode) && !(rule.holds)(&other)
}

/// Parse command-line arguments (without the program name).
///
/// The [`PARAMS`] flags may come in any order (the last of a repeated flag
/// wins); the point they describe is configured by [`sweep::job_for`], then
/// the CLI-only flags apply in command-line order.
///
/// # Errors
///
/// A human-readable message for an unknown flag, a missing or invalid
/// value (naming the flag), a flag that does not apply to the point's mode,
/// or a point [`sweep::job_for`] rejects.
pub fn parse(args: &[String]) -> Result<Job, String> {
    let mut values: Vec<Option<Val<'static>>> = vec![None; PARAMS.len()];
    let mut extras: Vec<(&Extra, &str)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(at) = PARAMS.iter().position(|p| flag(p) == arg) {
            let parsed = PARAMS[at].domain.parse_arg(value_of(args, &mut i)?);
            values[at] = Some(parsed.map_err(|e| format!("{arg}: {e}"))?);
        } else if let Some(extra) = EXTRAS.iter().find(|e| e.flag == arg) {
            let v = if extra.arg.is_empty() {
                ""
            } else {
                value_of(args, &mut i)?
            };
            extras.push((extra, v));
        } else {
            return Err(format!("unknown option {arg:?}\n{}", usage()));
        }
        i += 1;
    }
    let mut point = RunPoint::default();
    for (param, value) in PARAMS.iter().zip(&values) {
        if let Some(v) = value {
            (param.set)(&mut point, v);
        }
    }
    // Writing a run's attribution is what makes its point collect it.
    if extras
        .iter()
        .any(|(extra, _)| extra.flag == "--attribution-out")
    {
        point.attribution = 1;
    }
    let served = !point.tenants.is_empty();
    for (param, value) in PARAMS.iter().zip(&values) {
        let Some(v) = value else {
            continue;
        };
        if let Some(rule) = param.collapse.filter(|_| pinned_by_mode(param, &point)) {
            return Err(format!("{} does not apply when {}", flag(param), rule.when));
        }
        if served && sweep::SERVE_IGNORES.contains(&param.name) && *v != param.default {
            return Err(format!(
                "{} does not apply to a served point: each tenant group names its own \
                 kernel, n and stride",
                flag(param)
            ));
        }
        // A value the runner validates is checked on an otherwise default
        // point, so the error names its flag; those checks are context-free.
        if param.domain == Domain::Text {
            let mut probe = RunPoint::default();
            (param.set)(&mut probe, v);
            sweep::job_for(&probe).map_err(|e| format!("{}: {e}", flag(param)))?;
        }
    }
    let (kernel, config) = sweep::job_for(&point)?;
    let serve = (!point.tenants.is_empty()).then(|| sweep::serve_config_of(&point, &config));
    let mode = if serve.is_some() {
        Mode::Serve
    } else {
        Mode::Run
    };
    let mut job = Job {
        point,
        kernel,
        config,
        serve,
        json: false,
        explain: false,
        record_trace: None,
        metrics_out: None,
        perfetto_out: None,
        attribution_out: None,
        prom_out: None,
        trace_out: None,
    };
    for (extra, v) in extras {
        if extra.mode != Mode::Both && extra.mode != mode {
            return Err(match mode {
                Mode::Serve => format!("{} does not apply to a served point", extra.flag),
                Mode::Run | Mode::Both => {
                    format!("{} applies only to a point with a tenant mix", extra.flag)
                }
            });
        }
        (extra.apply)(&mut job, v).map_err(|e| format!("{}: {e}", extra.flag))?;
    }
    if job.point.attribution != 0 && job.attribution_out.is_none() {
        return Err("a run collects attribution only to write it to --attribution-out F".into());
    }
    Ok(job)
}

/// Run the job and format its result: a kernel run, or a serve for a
/// point with a tenant mix.
///
/// # Errors
///
/// A human-readable message when the run fails — an invalid configuration,
/// a malformed tenant mix, a structured fault-injection failure (livelock,
/// exhausted retries, blown cycle budget) — or an output file cannot be
/// written.
pub fn execute(job: &Job) -> Result<String, String> {
    if let Some(cfg) = &job.serve {
        return serve(job, cfg);
    }
    let (n, stride) = (job.point.n, job.point.stride);
    let result = match run_kernel(job.kernel, n, stride, &job.config) {
        Ok(r) => r,
        Err(e) => {
            // Even a failed run leaves evidence: the livelock report and
            // recovery counters go out through the same metric catalog.
            if let Some(path) = &job.metrics_out {
                let registry = metrics::failure_metrics(&e);
                std::fs::write(path, registry.to_jsonl())
                    .map_err(|werr| format!("cannot write metrics to {path}: {werr}"))?;
            }
            let mut msg = e.to_string();
            if let Some(plan) = &job.config.faults {
                msg.push_str(&format!(
                    " (faults '{}', seed {})",
                    plan.to_spec(),
                    job.config.fault_seed
                ));
            }
            return Err(msg);
        }
    };
    if let Some(tel) = &result.telemetry {
        if let Some(path) = &job.metrics_out {
            std::fs::write(path, tel.registry.to_jsonl())
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        }
        if let Some(path) = &job.perfetto_out {
            std::fs::write(path, tel.perfetto_json())
                .map_err(|e| format!("cannot write Perfetto trace to {path}: {e}"))?;
        }
        if let Some(path) = &job.attribution_out {
            std::fs::write(path, tel.attribution.to_json())
                .map_err(|e| format!("cannot write attribution to {path}: {e}"))?;
        }
        if let Some(path) = &job.prom_out {
            std::fs::write(path, telemetry::exposition::to_prometheus(&tel.registry))
                .map_err(|e| format!("cannot write exposition to {path}: {e}"))?;
        }
    }
    if let Some(path) = &job.record_trace {
        let trace = TraceFile {
            device: job.config.device.clone(),
            channels: job.config.channels,
            commands: result.commands.clone(),
        };
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    if job.json {
        return serde_json::to_string_pretty(&result).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    if job.explain {
        let sys = job.config.stream_system();
        let org = job.config.memory.organization();
        out.push_str(&format!(
            "{}\n\n",
            analytic::explain::explain_cache(&sys, org, job.kernel.total_streams(), n, stride)
        ));
        if let AccessOrder::Smc { fifo_depth } = job.config.ordering {
            let w = analytic::smc::Workload {
                reads: job.kernel.reads(),
                writes: job.kernel.writes(),
                length: n,
                stride,
            };
            out.push_str(&format!(
                "{}\n\n",
                analytic::explain::explain_smc(&sys, org, &w, fifo_depth as u64)
            ));
        }
    }
    out.push_str(&summarize(&result));
    Ok(out)
}

/// Serve the job's tenant mix through the `tenancy` layer (see
/// [`crate::serve`]) and render the report.
fn serve(job: &Job, cfg: &tenancy::ServeConfig) -> Result<String, String> {
    let mix = tenancy::TenantMix::parse(&job.point.tenants).map_err(|e| e.to_string())?;
    if mix.is_empty() {
        return Err("serve needs a non-empty tenant mix".to_string());
    }
    // Tracing never perturbs the report, so every serve records a trace;
    // it is written out only on request, and the chaos/recovery totals are
    // reported only when chaos or closed-loop retries are armed, so a plain
    // serve prints what it printed before those layers existed.
    let (report, trace, total) = crate::serve::run_serve_chaos(&mix, cfg, &job.config)?;
    let trace = (job.trace_out.is_some() || job.perfetto_out.is_some()).then_some(trace);
    let chaos_total = (job.config.chaos_active() || job.point.retry_budget != 0).then_some(total);
    if let Some(trace) = &trace {
        if let Some(path) = &job.trace_out {
            std::fs::write(path, crate::observe::trace_jsonl(trace))
                .map_err(|e| format!("cannot write trace stream to {path}: {e}"))?;
        }
        if let Some(path) = &job.perfetto_out {
            std::fs::write(path, crate::observe::serve_perfetto(trace))
                .map_err(|e| format!("cannot write Perfetto trace to {path}: {e}"))?;
        }
    }
    if let Some(path) = &job.metrics_out {
        let mut registry = telemetry::Registry::new();
        Sources::serve(&report, chaos_total).record(&mut registry);
        crate::serve::record_serve_histograms(&report, trace.as_ref(), &mut registry);
        std::fs::write(path, registry.to_jsonl())
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    let chaos = chaos_total.map(|total| Sources::serve(&report, Some(total)).chaos_block());
    if job.json {
        return Ok(serve_report_json(&report, chaos.as_deref()));
    }
    Ok(render_serve_report(&report, chaos.as_deref()))
}

/// Replay a recorded trace file through the timing-conformance checker,
/// one channel at a time.
///
/// Returns the rendered report on a clean trace.
///
/// # Errors
///
/// A human-readable message when the file cannot be read or parsed, or the
/// full violation report when the trace breaks any timing rule.
pub fn run_check(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let trace: TraceFile = text.parse().map_err(|e| format!("{path}: {e}"))?;
    let violations = crate::check_channels(&trace.device, trace.channels, &trace.commands);
    let report = format!(
        "{path}: {} command(s), {}",
        trace.commands.len(),
        checker::report(&violations)
    );
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(report)
    }
}

/// A `smcsim report` section: the file's path and text in, the rendered
/// section or what is wrong with the file out.
type Section = fn(&str, &str) -> Result<String, String>;

/// The `smcsim report` sections, in output order: flag, what the file
/// holds, and its renderer.
const SECTIONS: [(&str, &str, Section); 5] = [
    ("--metrics", "metrics", |_, text| {
        let table = metrics::table_from_jsonl(text).map_err(|e| e.to_string())?;
        Ok(table.render())
    }),
    ("--attribution", "attribution", |_, text| {
        let attr = telemetry::CycleAttribution::from_json(text).map_err(|e| e.to_string())?;
        Ok(crate::observe::render_attribution(&attr))
    }),
    ("--percentiles", "trace stream", |path, text| {
        let trace = crate::observe::trace_from_jsonl(text).map_err(|e| e.to_string())?;
        let (completed, failed, shed, rejected) = trace.outcome_totals();
        Ok(format!(
            "{path}: {} spans ({completed} completed, {failed} failed, {shed} shed, \
             {rejected} rejected), {} incidents\n{}",
            trace.spans().len(),
            trace.incidents().len(),
            crate::observe::percentiles_table(&trace).render(),
        ))
    }),
    ("--prom", "exposition", |path, text| {
        let s = telemetry::exposition::parse(text).map_err(|e| e.to_string())?;
        Ok(format!(
            "{path}: OK ({} families, {} samples, {} histograms)\n",
            s.families, s.samples, s.histograms,
        ))
    }),
    ("--perfetto", "Perfetto trace", |path, text| {
        let s = telemetry::perfetto::validate(text).map_err(|e| e.to_string())?;
        Ok(format!(
            "{path}: OK ({} events over {} tracks: {} spans, {} counter samples, \
             {} instants)\n",
            s.events, s.tracks, s.complete_events, s.counter_events, s.instant_events,
        ))
    }),
];

/// `smcsim report`: render or validate each file given, one section per
/// flag, in the order of `SECTIONS`.
///
/// # Errors
///
/// A human-readable message for an unknown flag, a file that cannot be
/// read, or a file whose contents fail to parse or validate.
pub fn run_report(args: &[String]) -> Result<String, String> {
    let mut paths = [None; SECTIONS.len()];
    let mut i = 0;
    while i < args.len() {
        let at = SECTIONS
            .iter()
            .position(|(flag, ..)| *flag == args[i])
            .ok_or_else(|| format!("report: unknown option {:?}\n{}", args[i], usage()))?;
        paths[at] = Some(value_of(args, &mut i)?);
        i += 1;
    }
    let mut sections = Vec::new();
    for ((_, what, render), path) in SECTIONS.iter().zip(paths) {
        let Some(path) = path else {
            continue;
        };
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {what} {path}: {e}"))?;
        sections.push(render(path, &text).map_err(|e| format!("{path}: {e}"))?);
    }
    if sections.is_empty() {
        return Err(format!(
            "report needs --metrics, --attribution, --percentiles, --prom, \
             and/or --perfetto\n{}",
            usage()
        ));
    }
    Ok(sections.join("\n"))
}

/// `smcsim serve`: the default command line with a tenant mix required.
///
/// # Errors
///
/// A human-readable message for bad flags, a missing or malformed tenant
/// mix, an invalid serve configuration, or a serve run that blew its cycle
/// budget.
pub fn run_serve_cmd(args: &[String]) -> Result<String, String> {
    let job = parse(args)?;
    if job.serve.is_none() {
        return Err(format!("serve needs a tenant mix\n{}", usage()));
    }
    execute(&job)
}

/// A report's chaos block ([`Sources::chaos_block`]) as one summary line.
fn chaos_line(block: &[(&str, u64)]) -> String {
    let fields: Vec<String> = block.iter().map(|(k, v)| format!("{k} {v}")).collect();
    format!("chaos: {}\n", fields.join(", "))
}

/// Render a serve report as the CLI's text summary. The chaos block only
/// exists when the run injected channel faults or armed the closed loop,
/// so fault-free output is byte-identical to pre-chaos builds.
fn render_serve_report(report: &tenancy::ServeReport, chaos: Option<&[(&str, u64)]>) -> String {
    let (submitted, completed, failed, shed, rejected, misses, words) = report.totals();
    let mut out = format!(
        "serve: {} tenants, {} cycles, {} dispatches ({} policy)\n\
         requests: {submitted} submitted, {completed} completed, {failed} failed, \
         {shed} shed, {rejected} rejected, {misses} deadline misses\n\
         moved {words} useful words; fairness {} milli; peak degradation {}\n",
        report.tenants.len(),
        report.cycles,
        report.dispatches,
        report.policy,
        report.fairness_milli(),
        report.peak_level.label(),
    );
    if report.budget_violations > 0 {
        out.push_str(&format!(
            "BUDGET VIOLATIONS: {} dispatches granted while over budget\n",
            report.budget_violations
        ));
    }
    if let Some(block) = chaos {
        out.push_str(&chaos_line(block));
    }
    for s in &report.starvation {
        out.push_str(&format!(
            "starvation: tenant {} ({}) waited {} cycles at cycle {} \
             (queue {}, level {})\n",
            s.name,
            s.class.label(),
            s.waited,
            s.now,
            s.queue_len,
            s.level.label(),
        ));
    }
    out.push_str(
        "tenant  class  submitted  completed  failed  shed  rejected  misses  \
         words  max-wait\n",
    );
    for t in &report.tenants {
        out.push_str(&format!(
            "{}  {}  {}  {}  {}  {}  {}  {}  {}  {}\n",
            t.name,
            t.class,
            t.submitted,
            t.completed,
            t.failed,
            t.shed,
            t.rejected,
            t.deadline_misses,
            t.useful_words,
            t.max_wait,
        ));
    }
    out
}

/// Hand-rolled JSON for a serve report (stable field order). The `chaos`
/// object only appears when channel faults or the closed loop were armed,
/// keeping fault-free output byte-identical to pre-chaos builds.
fn serve_report_json(report: &tenancy::ServeReport, chaos: Option<&[(&str, u64)]>) -> String {
    let tenants: Vec<String> = report
        .tenants
        .iter()
        .map(|t| {
            format!(
                "  {{\"name\":\"{}\",\"class\":\"{}\",\"submitted\":{},\"completed\":{},\
                 \"failed\":{},\"shed\":{},\"rejected\":{},\"deadline_misses\":{},\
                 \"useful_words\":{},\"service_cycles\":{},\"max_wait\":{}}}",
                t.name,
                t.class,
                t.submitted,
                t.completed,
                t.failed,
                t.shed,
                t.rejected,
                t.deadline_misses,
                t.useful_words,
                t.service_cycles,
                t.max_wait,
            )
        })
        .collect();
    let chaos_section = chaos.map_or_else(String::new, |block| {
        let fields: Vec<String> = block.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("\"chaos\":{{{}}},", fields.join(","))
    });
    format!(
        "{{\"kind\":\"serve-report\",\"cycles\":{},\"dispatches\":{},\"policy\":\"{}\",\
         \"fairness_milli\":{},\"peak_level\":\"{}\",\"budget_violations\":{},\
         \"starvation_reports\":{},{}\"tenants\":[\n{}\n]}}\n",
        report.cycles,
        report.dispatches,
        report.policy,
        report.fairness_milli(),
        report.peak_level.label(),
        report.budget_violations,
        report.starvation.len(),
        chaos_section,
        tenants.join(",\n"),
    )
}

/// `smcsim campaign ...`: run, list, or diff declarative parameter-sweep
/// campaigns (see [`campaign`] and [`crate::sweep`]).
///
/// # Errors
///
/// A human-readable message for an unknown subcommand, a malformed spec or
/// store, an unwritable output file — or the rendered diff report when the
/// gate finds a regression.
pub fn run_campaign_cmd(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("run") => campaign_run(&args[1..]),
        Some("list") => campaign_list(&args[1..]),
        Some("diff") => campaign_diff(&args[1..]),
        Some(other) => Err(format!(
            "campaign: unknown subcommand {other:?}\n{}",
            usage()
        )),
        None => Err(format!("campaign needs run, list, or diff\n{}", usage())),
    }
}

fn load_spec(path: &str) -> Result<campaign::CampaignSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    campaign::CampaignSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn campaign_run(args: &[String]) -> Result<String, String> {
    let mut spec_path: Option<String> = None;
    let mut workers = default_workers();
    let mut out_path: Option<String> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                workers = number_of(args, &mut i)?;
                if workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            "--out" => out_path = Some(value_of(args, &mut i)?.to_string()),
            "--quiet" => quiet = true,
            other if !other.starts_with("--") && spec_path.is_none() => {
                spec_path = Some(other.to_string());
            }
            other => {
                return Err(format!(
                    "campaign run: unknown option {other:?}\n{}",
                    usage()
                ))
            }
        }
        i += 1;
    }
    let spec_path =
        spec_path.ok_or_else(|| format!("campaign run needs a spec file\n{}", usage()))?;
    let spec = load_spec(&spec_path)?;
    let progress = |done: usize, total: usize| {
        eprintln!("campaign {}: {done}/{total} runs complete", spec.name);
    };
    let store = sweep::run_spec(&spec, workers, (!quiet).then_some(&progress));
    let out_path = out_path.unwrap_or_else(|| format!("{}.results.jsonl", spec.name));
    std::fs::write(&out_path, store.to_jsonl())
        .map_err(|e| format!("cannot write results to {out_path}: {e}"))?;
    let mut out = format!(
        "campaign {}: {} runs ({} ok, {} failed) on {} workers\nresults written to {}\n",
        spec.name,
        store.records.len(),
        store.completed(),
        store.errored(),
        workers,
        out_path
    );
    for record in &store.records {
        if let campaign::Outcome::Error(e) = &record.outcome {
            out.push_str(&format!(
                "  failed {} ({}): {e}\n",
                record.run_id,
                record.point.key()
            ));
        }
    }
    Ok(out)
}

fn campaign_list(args: &[String]) -> Result<String, String> {
    let [spec_path] = args else {
        return Err(format!(
            "campaign list needs exactly one spec file\n{}",
            usage()
        ));
    };
    let spec = load_spec(spec_path)?;
    let points = campaign::expand(&spec);
    let mut out = format!("campaign {}: {} runs\n", spec.name, points.len());
    for point in &points {
        out.push_str(&format!("{}  {}\n", point.run_id(), point.key()));
    }
    Ok(out)
}

fn load_store(path: &str) -> Result<campaign::ResultsStore, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read store {path}: {e}"))?;
    campaign::ResultsStore::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn campaign_diff(args: &[String]) -> Result<String, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut tol = campaign::Tolerance::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cycles-tol-permille" => tol.cycles_permille = number_of(args, &mut i)?,
            "--peak-tol-milli" => tol.peak_milli = number_of(args, &mut i)?,
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => {
                return Err(format!(
                    "campaign diff: unknown option {other:?}\n{}",
                    usage()
                ))
            }
        }
        i += 1;
    }
    let [golden_path, current_path] = paths.as_slice() else {
        return Err(format!(
            "campaign diff needs GOLDEN.jsonl and CURRENT.jsonl\n{}",
            usage()
        ));
    };
    let golden = load_store(golden_path)?;
    let current = load_store(current_path)?;
    let report = campaign::diff_stores(&golden, &current, tol);
    let rendered = report.render();
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(rendered)
    }
}

fn summarize(r: &RunResult) -> String {
    let s = r.summary();
    let mut out = format!(
        "{} x {} elements (stride {}): {} cycles, {:.1}% of peak ({:.2} GB/s effective)\n",
        r.kernel, r.n, r.stride, r.cycles, s.percent_peak, s.effective_gbps,
    );
    if r.stride > 1 {
        out.push_str(&format!(
            "  {:.1}% of attainable (50% cap for non-unit strides)\n",
            s.percent_attainable
        ));
    }
    let d = &r.device_stats;
    out.push_str(&format!(
        "  device: {} activates, {} reads, {} writes, {} turnarounds, page-hit rate {}\n",
        d.activates,
        d.read_packets,
        d.write_packets,
        d.turnarounds,
        s.page_hit_rate
            .map_or("n/a".into(), |h| format!("{:.1}%", 100.0 * h)),
    ));
    if let Some(m) = &r.msu_stats {
        out.push_str(&format!(
            "  msu: {} fifo switches, {} idle cycles, {} speculative row commands\n",
            m.fifo_switches, m.idle_cycles, m.speculative_activates
        ));
        if m.data_nacks > 0 || m.injected_stall_cycles > 0 || m.degraded_banks > 0 {
            out.push_str(&format!(
                "  recovery: {} data NACKs retried, {} injected stall cycles absorbed, \
                 {} banks degraded to closed-page\n",
                m.data_nacks, m.injected_stall_cycles, m.degraded_banks
            ));
        }
    }
    if let Some(b) = &r.baseline {
        if b.data_nacks > 0 {
            out.push_str(&format!(
                "  recovery: {} data NACKs retried\n",
                b.data_nacks
            ));
        }
    }
    if !r.chaos_stats.is_empty() {
        out.push_str("  ");
        out.push_str(&chaos_line(&Sources::run(r).chaos_block()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A path to `file` in the scratch directory of the test `test`.
    fn scratch(test: &str, file: &str) -> String {
        let dir = std::env::temp_dir().join(format!("smcsim-cli-{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(file).to_str().unwrap().to_string()
    }

    #[test]
    fn defaults_parse() {
        let job = parse(&[]).unwrap();
        assert_eq!(job.point, RunPoint::default());
        assert_eq!(job.kernel, Kernel::Daxpy);
        assert_eq!(job.config.ordering, AccessOrder::Smc { fifo_depth: 64 });
        assert!(job.serve.is_none());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&args("--kernel bogus"))
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(parse(&args("--frobnicate"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse(&args("--faults bogus:1:2"))
            .unwrap_err()
            .contains("bad fault clause"));
        // A clause in the other plan is an error that names its flag.
        for (line, flag) in [
            ("--faults outage:1:0:5000", "--faults: "),
            ("--chaos nack:500:8", "--chaos: "),
        ] {
            let err = parse(&args(&format!("--channels 2 {line}"))).unwrap_err();
            assert!(err.starts_with(flag), "{line}: {err}");
        }
        // Checked on one channel too, where it would have no effect.
        assert!(parse(&args("--placement warp"))
            .unwrap_err()
            .starts_with("--placement: "));
        // A clause aimed at a bank, device or channel the system lacks
        // parses (each flag is probed on a one-channel point), then fails
        // the run, naming the clause, instead of running inert.
        let run = "--kernel copy --n 256 --memory cli --order smc --fifo 32";
        let two = "--channels 2 --placement interleaved:1024";
        for (line, clause) in [
            ("--faults busy:99:100:50", "`busy:99:100:50`"),
            ("--chaos devfail:0:3:0:4", "`devfail:0:3:0:4`"),
            (
                &format!("{two} --chaos outage:2:0:5000"),
                "`outage:2:0:5000`",
            ),
        ] {
            let job = parse(&args(&format!("{run} {line}"))).unwrap();
            let err = execute(&job).unwrap_err();
            assert!(err.contains(clause), "{line}: {err}");
            assert!(err.contains("which the system lacks"), "{line}: {err}");
        }
        let job = parse(&args(&format!("{run} {two} --chaos outage:1:0:5000"))).unwrap();
        assert!(execute(&job).is_ok(), "channel 1 of 2 exists");
        let err = run_serve_cmd(&args(&format!(
            "--tenants ls:1:copy:64 {two} --chaos outage:2:0:500"
        )))
        .unwrap_err();
        assert!(err.contains("`outage:2:0:500`"), "{err}");
        // Vectors that do not fit the memory fail the run, naming the bytes.
        let job = parse(&args("--kernel daxpy --n 524288 --memory pi --fifo 64")).unwrap();
        let err = execute(&job).unwrap_err();
        assert!(
            err.contains("layout needs 8397824 bytes but only 8388608 are addressable"),
            "{err}"
        );
    }

    #[test]
    fn a_chaos_run_reports_its_chaos() {
        let mut job = parse(&args(
            "--kernel copy --n 4096 --memory cli --order smc --fifo 32 --channels 2 \
             --chaos outage:1:500:3000",
        ))
        .unwrap();
        let text = execute(&job).unwrap();
        assert!(
            text.contains("outages_observed 1, mttr_cycles 3000"),
            "{text}"
        );
        job.json = true;
        let json = execute(&job).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let channel = &v["chaos_stats"][1];
        assert_eq!(channel["outages_observed"].as_u64(), Some(1), "{json}");
        assert_eq!(channel["mttr_cycles"].as_u64(), Some(3000), "{json}");
    }

    #[test]
    fn execute_produces_a_summary_and_json() {
        let mut job = parse(&args("--kernel copy --n 64 --fifo 16")).unwrap();
        let text = execute(&job).unwrap();
        assert!(text.contains("% of peak"), "{text}");
        assert!(text.contains("fifo switches"));
        job.json = true;
        let json = execute(&job).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kernel"], "Copy");
        assert_eq!(v["n"], 64);
    }

    #[test]
    fn record_trace_round_trips_through_check() {
        let path = scratch("test", "copy.trace.json");
        let mut job = parse(&args("--kernel copy --n 64 --fifo 16")).unwrap();
        job.config.record_commands = true;
        job.record_trace = Some(path.clone());
        execute(&job).unwrap();

        let report = run_check(&path).expect("recorded trace is conformant");
        assert!(report.contains("OK"), "{report}");

        // Corrupt the trace: pull one command 8 cycles earlier and verify
        // the checker rejects it through the same entry point.
        let text = std::fs::read_to_string(&path).unwrap();
        let trace: TraceFile = text.parse().unwrap();
        let mut bad = trace.clone();
        let mid = bad.commands.len() / 2;
        bad.commands[mid].cycle = bad.commands[mid].cycle.saturating_sub(8);
        std::fs::write(&path, bad.to_json()).unwrap();
        let err = run_check(&path).expect_err("mutated trace must fail");
        assert!(err.contains("violation"), "{err}");
        std::fs::remove_file(&path).ok();

        // Two channels under chaos: the trace holds global bank numbers and
        // the channel count, and it checks clean one channel at a time.
        let path = scratch("test", "copy-2ch.trace.json");
        let job = parse(&args(&format!(
            "--kernel copy --n 1024 --memory cli --order smc --fifo 32 --channels 2 \
             --placement interleaved:1024 \
             --chaos brownout:0:100:1500:4;outage:1:400:600;devfail:1:0:2000:2 \
             --record-trace {path}"
        )))
        .unwrap();
        execute(&job).unwrap();
        let report = run_check(&path).expect("two-channel chaos trace is conformant");
        assert!(report.contains("OK"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_reports_unreadable_and_malformed_traces() {
        assert!(run_check("/nonexistent/trace.json")
            .unwrap_err()
            .contains("cannot read"));
        let path = scratch("test", "garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = run_check(&path).unwrap_err();
        assert!(err.contains("parse error"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_flags_write_metrics_and_perfetto_files() {
        let (metrics, perfetto) = (scratch("tel", "m.jsonl"), scratch("tel", "t.json"));
        let job = parse(&args(&format!(
            "--kernel copy --n 64 --fifo 16 --metrics-out {metrics} --perfetto-out {perfetto}"
        )))
        .unwrap();
        assert!(job.config.telemetry, "flags imply telemetry collection");
        execute(&job).unwrap();

        let report = run_report(&args(&format!("--metrics {metrics} --perfetto {perfetto}")))
            .expect("both artifacts validate");
        assert!(report.contains("run.cycles"), "{report}");
        assert!(report.contains("OK ("), "{report}");

        // A failing run still writes the failure registry.
        let mut job = parse(&args(&format!(
            "--kernel copy --n 32 --faults busy:*:1:1 --metrics-out {metrics}"
        )))
        .unwrap();
        job.config.check_conformance = false;
        execute(&job).unwrap_err();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains(
                "\"metric\":\"livelock.watchdog_trips\",\"kind\":\"counter\",\
                 \"unit\":\"events\",\"value\":1"
            ),
            "{text}"
        );
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&perfetto).ok();
    }

    #[test]
    fn report_rejects_bad_inputs() {
        assert!(run_report(&[]).unwrap_err().contains("--metrics"));
        assert!(run_report(&args("--metrics /nonexistent/m.jsonl"))
            .unwrap_err()
            .contains("cannot read"));
        assert!(run_report(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        let bad = scratch("report", "bad.json");
        std::fs::write(&bad, "{\"traceEvents\":7}").unwrap();
        let err =
            run_report(&args(&format!("--perfetto {bad}"))).expect_err("invalid trace must fail");
        assert!(err.contains("traceEvents"), "{err}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn campaign_run_list_and_diff_round_trip() {
        let dir = std::env::temp_dir().join("smcsim-cli-campaign");
        let spec_path = scratch("campaign", "spec.json");
        std::fs::write(
            &spec_path,
            "{\"schema\": 1, \"name\": \"cli-test\", \
             \"axes\": {\"kernel\": [\"copy\", \"daxpy\"], \"fifo\": [16], \"n\": [64]}}",
        )
        .unwrap();

        let listing = run_campaign_cmd(&args(&format!("list {spec_path}"))).unwrap();
        assert!(listing.contains("2 runs"), "{listing}");
        assert!(listing.contains("copy|smc:16|cli"), "{listing}");

        let golden = scratch("campaign", "golden.jsonl");
        let out = run_campaign_cmd(&args(&format!(
            "run {spec_path} --workers 2 --out {golden} --quiet"
        )))
        .unwrap();
        assert!(out.contains("2 runs (2 ok, 0 failed)"), "{out}");

        // A re-run at a different worker count produces the identical store
        // and the diff gate reports it clean.
        let current = scratch("campaign", "current.jsonl");
        run_campaign_cmd(&args(&format!(
            "run {spec_path} --workers 1 --out {current} --quiet"
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(&golden).unwrap(),
            std::fs::read(&current).unwrap(),
            "stores are byte-identical across worker counts"
        );
        let verdict = run_campaign_cmd(&args(&format!("diff {golden} {current}"))).unwrap();
        assert!(verdict.contains("CLEAN"), "{verdict}");

        // Corrupt one cycle count: the gate must fail with a rendered report.
        let text = std::fs::read_to_string(&current).unwrap();
        let mut store = campaign::ResultsStore::from_jsonl(&text).unwrap();
        if let campaign::Outcome::Ok(stats) = &mut store.records[0].outcome {
            stats.cycles += 1;
        }
        std::fs::write(&current, store.to_jsonl()).unwrap();
        let err = run_campaign_cmd(&args(&format!("diff {golden} {current}")))
            .expect_err("drifted store must fail the gate");
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("cycles"), "{err}");
        // ...and a loose-enough tolerance lets it pass.
        let ok = run_campaign_cmd(&args(&format!(
            "diff {golden} {current} --cycles-tol-permille 1000"
        )))
        .unwrap();
        assert!(ok.contains("CLEAN"), "{ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_bad_invocations() {
        assert!(run_campaign_cmd(&[])
            .unwrap_err()
            .contains("run, list, or diff"));
        assert!(run_campaign_cmd(&args("explode"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(run_campaign_cmd(&args("run"))
            .unwrap_err()
            .contains("needs a spec file"));
        assert!(run_campaign_cmd(&args("run /nonexistent/spec.json"))
            .unwrap_err()
            .contains("cannot read spec"));
        assert!(run_campaign_cmd(&args("diff only-one.jsonl"))
            .unwrap_err()
            .contains("GOLDEN.jsonl and CURRENT.jsonl"));
        assert!(run_campaign_cmd(&args("run spec.json --workers 0"))
            .unwrap_err()
            .contains("positive"));
        let bad = scratch("campaign-err", "bad.json");
        std::fs::write(&bad, "{\"schema\": 1, \"axes\": {\"warp\": [1]}}").unwrap();
        let err = run_campaign_cmd(&args(&format!("list {bad}"))).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn serve_runs_a_mix_and_renders_both_formats() {
        let text = run_serve_cmd(&args("--tenants ls:1:daxpy:64+bh:2:copy:64 --fifo 16")).unwrap();
        assert!(text.contains("serve: 3 tenants"), "{text}");
        assert!(text.contains("ls0"), "{text}");
        assert!(text.contains("bh1"), "{text}");
        assert!(text.contains("fairness"), "{text}");

        let json = run_serve_cmd(&args(
            "--tenants bh:2:copy:64 --fifo 16 --arb regulated --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], "serve-report");
        assert_eq!(v["policy"], "regulated");
        assert_eq!(v["budget_violations"].as_u64(), Some(0));
        assert_eq!(v["tenants"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn serve_writes_metrics_and_rejects_bad_flags() {
        let metrics = scratch("serve", "serve.jsonl");
        run_serve_cmd(&args(&format!(
            "--tenants bh:1:copy:64 --fifo 16 --metrics-out {metrics}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("serve.submitted"), "{text}");
        assert!(text.contains("serve.fairness_milli"), "{text}");
        std::fs::remove_file(&metrics).ok();

        assert!(run_serve_cmd(&[]).unwrap_err().contains("tenant mix"));
        assert!(run_serve_cmd(&args("--tenants xx:1:copy:64"))
            .unwrap_err()
            .contains("unknown tenant class"));
        assert!(run_serve_cmd(&args("--tenants ls:1:warp:64"))
            .unwrap_err()
            .contains("warp"));
        for arb in ["lifo", "bank-aware"] {
            let err = run_serve_cmd(&args(&format!("--tenants ls:1:copy:64 --arb {arb}")));
            assert!(err.unwrap_err().contains(arb), "{arb}");
        }
        assert!(run_serve_cmd(&args("--tenants ls:1:copy:64 --frob"))
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn serve_accepts_a_multi_channel_topology() {
        let json = run_serve_cmd(&args(
            "--tenants ls:1:daxpy:64+bh:2:copy:128 --fifo 16 --arb regulated \
             --budget-permille 500 --channels 2 --placement interleaved:1024 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], "serve-report");
        assert_eq!(v["budget_violations"].as_u64(), Some(0));
        let completed: u64 = v["tenants"]
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t["completed"].as_u64().unwrap())
            .sum();
        assert!(completed > 0, "{json}");

        assert!(
            run_serve_cmd(&args("--tenants ls:1:copy:64 --placement warp"))
                .unwrap_err()
                .contains("--placement")
        );
        assert!(
            run_serve_cmd(&args("--tenants ls:1:copy:64 --remote-penalty 0,x"))
                .unwrap_err()
                .contains("--remote-penalty")
        );
    }

    #[test]
    fn serve_chaos_reports_degradation_and_stays_inert_when_absent() {
        // No chaos flags: not a byte of chaos output anywhere.
        let plain = run_serve_cmd(&args(
            "--tenants ls:1:daxpy:64+bh:1:copy:64 --fifo 16 --json",
        ))
        .unwrap();
        assert!(!plain.contains("chaos"), "{plain}");
        // A channel brownout shows up in the JSON chaos block and in the
        // fault/recovery metrics, deterministically.
        let cmd = "--tenants ls:1:daxpy:64+bh:1:copy:64 --fifo 16 --channels 2 \
                   --chaos brownout:0:0:4000:4;outage:1:500:900 --fault-seed 3 --json";
        let chaotic = run_serve_cmd(&args(cmd)).unwrap();
        let v: serde_json::Value = serde_json::from_str(&chaotic).unwrap();
        assert!(
            v["chaos"]["degraded_commands"].as_u64().unwrap() > 0,
            "{chaotic}"
        );
        assert_eq!(
            v["chaos"]["mttr_cycles"].as_u64().unwrap(),
            v["chaos"]["outages_observed"].as_u64().unwrap() * 900,
            "{chaotic}"
        );
        assert_eq!(run_serve_cmd(&args(cmd)).unwrap(), chaotic);
        // The block holds exactly the binding table's chaos-group rows, so
        // a new chaos counter reaches it with no edit to the renderers.
        let block = v["chaos"].as_object().unwrap();
        let mut keys: Vec<&str> = block.iter().map(|(key, _)| key.as_str()).collect();
        let mut rows: Vec<&str> = campaign::STATS
            .iter()
            .filter(|s| s.group == campaign::Group::Chaos)
            .map(|s| s.name.split_once('_').map_or(s.name, |(_, key)| key))
            .collect();
        keys.sort_unstable();
        rows.sort_unstable();
        assert_eq!(keys, rows);
        // The chaos metrics land in the registry dump.
        let metrics = scratch("serve-chaos", "chaos.jsonl");
        run_serve_cmd(&args(&format!("{cmd} --metrics-out {metrics}"))).unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("fault.degraded_requests"), "{text}");
        assert!(text.contains("recovery.mttr_cycles"), "{text}");
        std::fs::remove_file(&metrics).ok();
        // Bad plans and the text renderer's chaos block both work.
        assert!(
            run_serve_cmd(&args("--tenants ls:1:copy:64 --chaos gremlins:9"))
                .unwrap_err()
                .contains("chaos spec")
        );
        let text = run_serve_cmd(&args(
            "--tenants bh:1:copy:64 --fifo 16 --channels 2 --chaos outage:0:100:300",
        ))
        .unwrap();
        assert!(
            text.contains("outages_observed 1, mttr_cycles 300, retries 0"),
            "{text}"
        );
    }

    #[test]
    fn faulted_runs_report_recovery_counters() {
        let job = parse(&args(
            "--kernel copy --n 128 --fifo 16 --faults nack:200:10 --fault-seed 3",
        ))
        .unwrap();
        let text = execute(&job).unwrap();
        assert!(text.contains("recovery:"), "{text}");
        assert!(text.contains("data NACKs retried"), "{text}");
    }

    #[test]
    fn hopeless_faults_surface_as_errors_not_panics() {
        let job = parse(&args("--kernel copy --n 32 --faults busy:*:1:1")).unwrap();
        let err = execute(&job).unwrap_err();
        assert!(
            err.contains("livelock") || err.contains("no forward progress"),
            "{err}"
        );
        assert!(err.contains("busy:*:1:1"), "error names the plan: {err}");
    }

    /// The flags that reproduce `point`: every row the grid does not pin.
    fn flags_of(point: &RunPoint) -> Vec<[String; 2]> {
        PARAMS
            .iter()
            .filter(|p| !p.collapse.is_some_and(|c| (c.holds)(point)))
            .map(|p| [flag(p), (p.get)(point).to_string()])
            .collect()
    }

    #[test]
    fn flags_reproduce_every_committed_golden_point() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns");
        for name in [
            "smoke",
            "multichannel-smoke",
            "tenancy-smoke",
            "chaos-smoke",
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{name}.golden.jsonl")).unwrap();
            let store = campaign::ResultsStore::from_jsonl(&text).unwrap();
            for record in &store.records {
                // A served point takes the rows it ignores only at their
                // defaults, so a served record is reproduced without them.
                let mut point = record.point.clone();
                if !point.tenants.is_empty() {
                    for param in PARAMS
                        .iter()
                        .filter(|p| sweep::SERVE_IGNORES.contains(&p.name))
                    {
                        (param.set)(&mut point, &param.default);
                    }
                }
                let mut pairs = flags_of(&point);
                let forward: Vec<String> = pairs.concat();
                pairs.reverse();
                let backward: Vec<String> = pairs.concat();
                // The command line configures exactly the campaign's run.
                let (_, config) = sweep::job_for(&record.point).unwrap();
                let serve = (!point.tenants.is_empty())
                    .then(|| sweep::serve_config_of(&record.point, &config));
                for cli in [&forward, &backward] {
                    let job = parse(cli).unwrap_or_else(|e| panic!("{cli:?}: {e}"));
                    assert_eq!(job.point, point, "{cli:?}");
                    assert_eq!(job.config, config, "{cli:?}");
                    assert_eq!(job.serve, serve, "{cli:?}");
                }
                let mut job = parse(&forward).unwrap();
                job.json = true;
                let campaign::Outcome::Ok(stats) = &record.outcome else {
                    panic!("{name} golden runs clean");
                };
                let v: serde_json::Value = serde_json::from_str(&execute(&job).unwrap()).unwrap();
                assert_eq!(v["cycles"].as_u64(), Some(stats.cycles), "{forward:?}");
            }
        }
    }

    #[test]
    fn every_param_is_a_checked_flag_in_the_help() {
        let help = usage();
        for param in PARAMS {
            let name = flag(param);
            assert!(
                help.contains(&format!("  {name} {}", param.domain)),
                "{name}"
            );
            let e = parse(std::slice::from_ref(&name)).unwrap_err();
            assert_eq!(e, format!("{name} needs a value"));
            let invalid = match param.domain {
                Domain::Text => "bogus:9".to_string(),
                Domain::OneOf(_) => "bogus".to_string(),
                Domain::AtLeast(0) | Domain::Switch => "x".to_string(),
                Domain::AtLeast(min) => (min - 1).to_string(),
            };
            for bad in
                std::iter::once(invalid).chain((!param.domain.is_text()).then(|| "-1".into()))
            {
                match parse(&[name.clone(), bad.clone()]) {
                    Err(e) => assert!(e.starts_with(&format!("{name}: ")), "{name} {bad}: {e}"),
                    // A tenant mix is checked when it is served.
                    Ok(job) => assert!(job.serve.is_some() && execute(&job).is_err(), "{name}"),
                }
            }
        }
        for extra in EXTRAS {
            assert!(help.contains(&format!("  {} {}", extra.flag, extra.arg)));
        }
    }

    #[test]
    fn flags_outside_the_points_mode_are_rejected() {
        let serve = "--tenants ls:1:copy:64";
        for (cli, wanted) in [
            ("--budget-permille 500".to_string(), "`tenants` is empty"),
            ("--retry-budget 2".to_string(), "`tenants` is empty"),
            (format!("{serve} --attribution 1"), "`tenants` is not empty"),
            ("--arb regulated".to_string(), "tenant mix"),
            ("--queue-cap 4".to_string(), "tenant mix"),
            (format!("{serve} --explain"), "served point"),
            (format!("{serve} --record-trace t.json"), "served point"),
            (format!("{serve} --attribution-out a.json"), "served point"),
            (format!("{serve} --kernel copy"), "--kernel does not apply"),
            (format!("{serve} --n 99"), "--n does not apply"),
            (format!("{serve} --stride 4"), "--stride does not apply"),
            ("--attribution 1".to_string(), "--attribution-out"),
        ] {
            let e = parse(&args(&cli)).unwrap_err();
            assert!(e.contains(wanted), "{cli}: {e}");
        }
        // At their defaults the rows a serve ignores are accepted.
        let defaults = format!("{serve} --kernel daxpy --n 1024 --stride 1");
        parse(&args(&defaults)).unwrap();
        // Writing the attribution is what makes a point collect it.
        let job = parse(&args("--attribution-out a.json")).unwrap();
        assert_eq!(job.point.attribution, 1);
        assert!(job.config.telemetry);
        let both = parse(&args("--attribution 1 --attribution-out a.json")).unwrap();
        assert_eq!(both.point, job.point);
        // A seed with chaos but no fault plan is the chaos and retry seed.
        let job = parse(&args(&format!(
            "{serve} --channels 2 --chaos outage:0:0:100 --fault-seed 7 --retry-budget 2"
        )))
        .unwrap();
        assert_eq!(job.config.chaos_seed, 7);
        assert_eq!(
            job.serve.unwrap(),
            sweep::serve_config_of(&job.point, &job.config)
        );
    }

    #[test]
    fn cli_only_flags_adjust_the_points_config() {
        let job = parse(&args(
            "--kernel vaxpy --memory pi --fifo 32 --alignment aligned --devices-per-channel 2 \
             --channels 2 --placement numa:1 --policy bank-aware --cpu-cycles 1 --spec \
             --refresh --write-allocate --cache --remote-penalty 0,40 --json",
        ))
        .unwrap();
        let (kernel, mut config) = sweep::job_for(&job.point).unwrap();
        assert_eq!(kernel, Kernel::Vaxpy);
        assert_eq!(config.device.devices, 2);
        assert_eq!(config.placement, memsys::Placement::Numa { home: 1 });
        config.policy = smc::Policy::BankAware;
        config.cpu_access_cycles = 1;
        config.speculative = true;
        config.refresh = true;
        config.write_allocate = true;
        config.cache = Some(baseline::cache::CacheConfig::i860xp());
        config.remote_penalty = vec![0, 40];
        assert_eq!(job.config, config);
        assert!(job.json);
        assert!(parse(&args("--remote-penalty 0,x"))
            .unwrap_err()
            .starts_with("--remote-penalty: "));
        assert!(parse(&args("--policy lifo"))
            .unwrap_err()
            .contains("unknown policy"));
    }
}
