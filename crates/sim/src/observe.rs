//! Rendering and parsing for the observability surfaces.
//!
//! The substrates produce pure data — [`CycleAttribution`] in `telemetry`,
//! [`ServeTrace`] in `tenancy` — and this module turns them into the
//! artifacts operators actually consume:
//!
//! * [`serve_perfetto`] — a Chrome trace-event / Perfetto JSON timeline of
//!   a traced serve run, one thread track per tenant under a dedicated
//!   "serve" process, with queue/execute spans per request and instants
//!   for sheds, rejects, deadline misses, starvation trips, and executor
//!   failures;
//! * [`trace_jsonl`] / [`trace_from_jsonl`] — a line-per-record JSONL
//!   stream of the same trace, the machine-readable export behind
//!   `smcsim serve --trace-out` and `smcsim report --percentiles`;
//! * [`percentiles_table`] — exact per-tenant latency and deadline-slack
//!   p50/p95/p99/max over completed requests;
//! * [`attribution_table`] / [`attribution_bank_table`] /
//!   [`render_attribution`] — the `smcsim report --attribution` view of a
//!   run's exclusive cycle decomposition.
//!
//! Everything here runs strictly after the simulation: nothing in this
//! module touches the hot path, and every number is integer arithmetic on
//! already-recorded cycles.

use telemetry::perfetto::{self, SERVE_PID};
use telemetry::CycleAttribution;
use tenancy::{IncidentKind, RequestOutcome, RequestSpan, ServeTrace, TraceIncident};

use crate::report::Table;

/// Perfetto thread id for tenant `t` under [`SERVE_PID`] (tid 0 is the
/// process-metadata track).
fn tenant_tid(tenant: usize) -> u64 {
    tenant as u64 + 1
}

/// Escape a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a traced serve run as Chrome trace-event / Perfetto JSON.
///
/// The serve clock becomes a third process (pid [`SERVE_PID`], next to the
/// device and controller timelines of a single-run trace) with one thread
/// track per tenant. Each dispatched request contributes a `queue` span
/// (admission to dispatch) and an outcome-named execute span (dispatch to
/// resolution); requests that never dispatched (shed, rejected) appear as
/// instants, as do deadline misses and every recorded incident. Events are
/// sorted per track so the result passes
/// [`telemetry::perfetto::validate`]'s monotonicity check.
pub fn serve_perfetto(trace: &ServeTrace) -> String {
    let mut meta = vec![perfetto::process_name(SERVE_PID, "serve")];
    for tenant in 0..trace.tenant_count() {
        meta.push(perfetto::thread_name(
            SERVE_PID,
            tenant_tid(tenant),
            &format!("tenant {tenant}"),
        ));
    }

    // (tid, ts, rendered event) so each track can be sorted by timestamp.
    let mut timed: Vec<(u64, u64, String)> = Vec::new();
    for span in trace.spans() {
        let tid = tenant_tid(span.tenant);
        let tag = format!("t{} r{}", span.tenant, span.seq);
        match span.dispatched_at {
            Some(d) => {
                timed.push((
                    tid,
                    span.submitted_at,
                    perfetto::complete(
                        &format!("queue {tag}"),
                        span.submitted_at,
                        d.saturating_sub(span.submitted_at),
                        SERVE_PID,
                        tid,
                    ),
                ));
                timed.push((
                    tid,
                    d,
                    perfetto::complete(
                        &format!("{} {tag}", span.outcome.label()),
                        d,
                        span.resolved_at.saturating_sub(d),
                        SERVE_PID,
                        tid,
                    ),
                ));
            }
            None => {
                timed.push((
                    tid,
                    span.resolved_at,
                    perfetto::instant_at(
                        &format!("{} {tag}", span.outcome.label()),
                        span.resolved_at,
                        SERVE_PID,
                        tid,
                    ),
                ));
            }
        }
        if span.deadline_missed {
            timed.push((
                tid,
                span.resolved_at,
                perfetto::instant_at(
                    &format!("deadline miss {tag}"),
                    span.resolved_at,
                    SERVE_PID,
                    tid,
                ),
            ));
        }
    }
    for inc in trace.incidents() {
        let tid = tenant_tid(inc.tenant);
        timed.push((
            tid,
            inc.cycle,
            perfetto::instant_at(
                &format!("{}: {}", inc.kind.label(), escape_json(&inc.detail)),
                inc.cycle,
                SERVE_PID,
                tid,
            ),
        ));
    }
    // Stable sort: per-track timestamps become monotone, recording order
    // breaks ties.
    timed.sort_by_key(|(tid, ts, _)| (*tid, *ts));

    let mut events = meta;
    events.extend(timed.into_iter().map(|(_, _, e)| e));
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
        events.join(",\n")
    )
}

/// Serialize a serve trace as JSONL: one `{"kind":"span",...}` line per
/// request lifecycle (in resolution order), then one
/// `{"kind":"incident",...}` line per incident (in recording order).
pub fn trace_jsonl(trace: &ServeTrace) -> String {
    let mut out = String::new();
    for s in trace.spans() {
        let dispatched = match s.dispatched_at {
            Some(d) => d.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"kind\":\"span\",\"tenant\":{},\"seq\":{},\"submitted_at\":{},\
             \"dispatched_at\":{dispatched},\"resolved_at\":{},\"deadline_at\":{},\
             \"outcome\":\"{}\",\"deadline_missed\":{}}}\n",
            s.tenant,
            s.seq,
            s.submitted_at,
            s.resolved_at,
            s.deadline_at,
            s.outcome.label(),
            s.deadline_missed,
        ));
    }
    for i in trace.incidents() {
        out.push_str(&format!(
            "{{\"kind\":\"incident\",\"cycle\":{},\"tenant\":{},\"incident\":\"{}\",\
             \"detail\":\"{}\"}}\n",
            i.cycle,
            i.tenant,
            i.kind.label(),
            escape_json(&i.detail),
        ));
    }
    out
}

/// Parse a JSONL trace stream (as written by [`trace_jsonl`]) back into a
/// [`ServeTrace`] — the `smcsim report --percentiles` path.
///
/// # Errors
///
/// A human-readable message naming the first malformed line.
pub fn trace_from_jsonl(text: &str) -> Result<ServeTrace, String> {
    let mut trace = ServeTrace::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("line {}: missing integer field {key:?}", lineno + 1))
        };
        let text_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(|f| f.as_str())
                .map(String::from)
                .ok_or_else(|| format!("line {}: missing string field {key:?}", lineno + 1))
        };
        match text_field("kind")?.as_str() {
            "span" => {
                let outcome = match text_field("outcome")?.as_str() {
                    "completed" => RequestOutcome::Completed,
                    "failed" => RequestOutcome::Failed,
                    "shed_at_arrival" => RequestOutcome::ShedAtArrival,
                    "shed_queued" => RequestOutcome::ShedQueued,
                    "rejected" => RequestOutcome::Rejected,
                    other => return Err(format!("line {}: unknown outcome {other:?}", lineno + 1)),
                };
                let dispatched_at = match v.get("dispatched_at") {
                    Some(d) if d.is_null() => None,
                    Some(d) => Some(d.as_u64().ok_or_else(|| {
                        format!("line {}: dispatched_at must be integer or null", lineno + 1)
                    })?),
                    None => {
                        return Err(format!("line {}: missing dispatched_at", lineno + 1));
                    }
                };
                trace.record_span(RequestSpan {
                    tenant: num("tenant")? as usize,
                    seq: num("seq")?,
                    submitted_at: num("submitted_at")?,
                    dispatched_at,
                    resolved_at: num("resolved_at")?,
                    deadline_at: num("deadline_at")?,
                    outcome,
                    deadline_missed: v
                        .get("deadline_missed")
                        .and_then(|b| b.as_bool())
                        .ok_or_else(|| format!("line {}: missing deadline_missed", lineno + 1))?,
                });
            }
            "incident" => {
                let kind = match text_field("incident")?.as_str() {
                    "starvation" => IncidentKind::Starvation,
                    "executor_failure" => IncidentKind::ExecutorFailure,
                    "retry" => IncidentKind::Retry,
                    other => {
                        return Err(format!("line {}: unknown incident {other:?}", lineno + 1))
                    }
                };
                trace.record_incident(TraceIncident {
                    cycle: num("cycle")?,
                    tenant: num("tenant")? as usize,
                    kind,
                    detail: text_field("detail")?,
                });
            }
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        }
    }
    if trace.spans().is_empty() && trace.incidents().is_empty() {
        return Err("trace stream contains no records".into());
    }
    Ok(trace)
}

/// Format a percentile cell, `-` when the tenant completed nothing.
fn cell(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".into(),
    }
}

/// Exact per-tenant latency and deadline-slack percentiles over completed
/// requests, one row per tenant track the trace touches.
pub fn percentiles_table(trace: &ServeTrace) -> Table {
    let mut t = Table::new(vec![
        "tenant".into(),
        "completed".into(),
        "lat-p50".into(),
        "lat-p95".into(),
        "lat-p99".into(),
        "lat-max".into(),
        "slack-p50".into(),
        "slack-p95".into(),
        "slack-p99".into(),
        "slack-max".into(),
    ]);
    for tenant in 0..trace.tenant_count() {
        let lat = trace.latency_percentiles(tenant);
        let slack = trace.slack_percentiles(tenant);
        t.row(vec![
            tenant.to_string(),
            lat.map(|p| p.count).unwrap_or(0).to_string(),
            cell(lat.map(|p| p.p50)),
            cell(lat.map(|p| p.p95)),
            cell(lat.map(|p| p.p99)),
            cell(lat.map(|p| p.max)),
            cell(slack.map(|p| p.p50)),
            cell(slack.map(|p| p.p95)),
            cell(slack.map(|p| p.p99)),
            cell(slack.map(|p| p.max)),
        ]);
    }
    t
}

/// Permille of `part` in `total`, 0 when the total is empty.
fn permille(part: u64, total: u64) -> u64 {
    if total == 0 {
        0
    } else {
        (u128::from(part) * 1000 / u128::from(total)) as u64
    }
}

/// The global cycle decomposition as a category table: one row per
/// category with its cycle count and share (permille of the run), plus a
/// reconciling `total` row.
pub fn attribution_table(attr: &CycleAttribution) -> Table {
    let g = attr.global();
    let total = attr.total();
    let mut t = Table::new(vec!["category".into(), "cycles".into(), "permille".into()]);
    for (name, cycles) in [
        ("data", g.data),
        ("turnaround", g.turnaround),
        ("row-overhead", g.row_overhead),
        ("bank-conflict", g.bank_conflict),
        ("retry", g.retry),
        ("idle", g.idle),
    ] {
        t.row(vec![
            name.into(),
            cycles.to_string(),
            permille(cycles, total).to_string(),
        ]);
    }
    t.row(vec!["total".into(), total.to_string(), "1000".into()]);
    t
}

/// Per-bank attribution rows for every bank that was charged any cycles.
/// Idle is omitted: it is a global-only category (no bank owns an idle
/// cycle), and per-bank retry covers only incidents naming a bank.
pub fn attribution_bank_table(attr: &CycleAttribution) -> Table {
    let mut t = Table::new(vec![
        "bank".into(),
        "data".into(),
        "turnaround".into(),
        "row-overhead".into(),
        "bank-conflict".into(),
        "retry".into(),
    ]);
    for (bank, c) in attr.banks().iter().enumerate() {
        if c.sum() == 0 {
            continue;
        }
        t.row(vec![
            bank.to_string(),
            c.data.to_string(),
            c.turnaround.to_string(),
            c.row_overhead.to_string(),
            c.bank_conflict.to_string(),
            c.retry.to_string(),
        ]);
    }
    t
}

/// The full `smcsim report --attribution` text: the exactness check's
/// verdict, the global category table, and the per-bank breakdown.
pub fn render_attribution(attr: &CycleAttribution) -> String {
    let verdict = match attr.check_exact() {
        Ok(()) => format!(
            "attribution: {} cycles fully attributed ({} turnaround gaps)\n",
            attr.total(),
            attr.turnaround_gaps()
        ),
        Err(msg) => format!("attribution: INEXACT — {msg}\n"),
    };
    let banks = attribution_bank_table(attr);
    let mut out = format!("{verdict}\n{}", attribution_table(attr).render());
    if !banks.is_empty() {
        out.push('\n');
        out.push_str(&banks.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Kernel;

    use crate::{run_kernel, MemorySystem, SystemConfig};

    fn traced_run() -> ServeTrace {
        let mix = tenancy::TenantMix::parse("ls:1:daxpy:64+bh:2:copy:128").expect("valid mix");
        let base = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32);
        let cfg =
            crate::serve::serve_config_for(base.device.total_banks(), 0, base.device.timing.t_pack);
        let (_, trace, _) = crate::serve::run_serve_chaos(&mix, &cfg, &base).expect("serve runs");
        trace
    }

    #[test]
    fn serve_perfetto_validates_with_one_track_per_tenant() {
        let trace = traced_run();
        let json = serve_perfetto(&trace);
        let summary = telemetry::perfetto::validate(&json).expect("valid trace");
        assert_eq!(summary.tracks, trace.tenant_count());
        let dispatched = trace
            .spans()
            .iter()
            .filter(|s| s.dispatched_at.is_some())
            .count();
        assert_eq!(summary.complete_events, 2 * dispatched);
        assert!(json.contains("\"name\":\"tenant 0\""), "{json}");
        assert!(json.contains("queue t0 r0"), "{json}");
        assert!(json.contains("completed"), "{json}");
    }

    #[test]
    fn trace_jsonl_round_trips() {
        let mut trace = traced_run();
        trace.record_incident(TraceIncident {
            cycle: 7,
            tenant: 1,
            kind: IncidentKind::Starvation,
            detail: "waited 51 cycles (queue 3, level \"Shed\")".into(),
        });
        trace.record_incident(TraceIncident {
            cycle: 9,
            tenant: 0,
            kind: IncidentKind::Retry,
            detail: "attempt 1 backs off 72 cycles".into(),
        });
        let text = trace_jsonl(&trace);
        let back = trace_from_jsonl(&text).expect("parses");
        assert_eq!(back, trace);

        assert!(trace_from_jsonl("").is_err());
        assert!(trace_from_jsonl("{not json").is_err());
        assert!(trace_from_jsonl("{\"kind\":\"span\"}").is_err());
        assert!(trace_from_jsonl("{\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn percentiles_table_covers_every_tenant() {
        let trace = traced_run();
        let text = percentiles_table(&trace).render();
        for tenant in 0..trace.tenant_count() {
            let label = format!("{tenant} ");
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(&label)),
                "tenant {tenant} missing:\n{text}"
            );
        }
        let p = trace.latency_percentiles(0).expect("tenant 0 completed");
        assert!(text.contains(&p.p50.to_string()), "{text}");
    }

    #[test]
    fn attribution_tables_reconcile_with_the_run() {
        let cfg = SystemConfig::smc(MemorySystem::PageInterleaved, 64).with_telemetry();
        let r = run_kernel(Kernel::Copy, 256, 1, &cfg).expect("fault-free run");
        let attr = &r.telemetry.as_ref().expect("telemetry").attribution;
        let text = render_attribution(attr);
        assert!(text.contains("fully attributed"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert!(text.contains(&attr.total().to_string()), "{text}");
        let g = attr.global();
        assert!(text.contains(&g.data.to_string()), "{text}");
        // The bank table lists at least one bank carrying data cycles.
        assert!(text.contains("bank"), "{text}");

        // Round-trip through the JSON export, as `report --attribution` does.
        let back = CycleAttribution::from_json(&attr.to_json()).expect("parses");
        assert_eq!(back.total(), attr.total());
        assert_eq!(render_attribution(&back), text);
    }

    #[test]
    fn escape_json_handles_quotes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
