//! The serving loop: multiplex many tenants onto the serially-owned SMC.
//!
//! [`serve_traced`] runs a virtual-time event loop. Requests arrive on each
//! tenant's deterministic cadence, pass admission (degradation-ladder
//! shedding, then bounded-queue backpressure), wait for the arbitration
//! policy and the bandwidth regulator to grant a dispatch, and are then
//! executed one at a time by an [`Executor`] — the serving layer never
//! touches the memory system directly, so it can be driven by the real
//! simulator (`sim::serve`) or by a synthetic model in tests.
//!
//! Robustness contract, enforced by the overload property suite:
//!
//! - queues are bounded; overload surfaces as `Rejected { retry_after }`,
//!   never as unbounded growth or a panic;
//! - the regulator's dispatch audit shows zero budget violations;
//! - shedding is monotone by class — no latency-sensitive request is shed
//!   before bandwidth-hungry shedding has begun;
//! - a per-tenant forward-progress watchdog converts starvation into
//!   structured [`StarvationReport`]s instead of silent hangs, and the
//!   loop itself always terminates (time always advances).

use std::collections::BTreeMap;
use std::fmt;

use crate::arbiter::{policy_by_name, ArbiterView, QueueView};
use crate::ladder::{DegradeLevel, Ladder, LadderConfig, LadderTransition, OverloadSignal};
use crate::queue::{Admission, Request, TenantQueue};
use crate::regulator::{DispatchAudit, Regulator, RegulatorConfig};
use crate::retry::{RetryAudit, RetryPolicy};
use crate::tenant::{Cycle, TenantClass, TenantMix, TenantSpec};
use crate::trace::{IncidentKind, RequestOutcome, RequestSpan, ServeTrace, TraceIncident};

/// What the executor reports back for one serviced request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceReport {
    /// Device cycles the request occupied the memory system.
    pub cycles: Cycle,
    /// 64-bit words of useful stream data the request moved.
    pub useful_words: u64,
    /// DATA-bus cycles per bank touched, `(bank, cycles)` pairs — the
    /// memory system's measured per-bank occupancy, which the regulator
    /// charges against its per-bank budgets.
    pub bank_data_cycles: Vec<(usize, u64)>,
    /// Injected-fault events the request absorbed (NACKs, stall cycles);
    /// non-zero values tell the ladder a fault storm is active.
    pub fault_events: u64,
}

/// Executes one admitted request against the memory system.
pub trait Executor {
    /// Run `req` for `tenant`; `Err` is a structured failure (for example
    /// a livelock report or retry exhaustion from the underlying SMC)
    /// that the server absorbs as a failed request.
    fn execute(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String>;
}

impl<F> Executor for F
where
    F: Fn(&TenantSpec, &Request) -> Result<ServiceReport, String>,
{
    fn execute(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
        self(tenant, req)
    }
}

/// Serving-layer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-tenant admission-queue capacity.
    pub queue_capacity: usize,
    /// Bandwidth-regulator sizing.
    pub regulator: RegulatorConfig,
    /// Degradation-ladder thresholds.
    pub ladder: LadderConfig,
    /// Arbitration policy name (`fcfs`, `rr`, `bank-aware`, `regulated`).
    pub policy: String,
    /// Per-tenant forward-progress deadline: a tenant whose queue head has
    /// waited longer than this since the tenant last progressed produces a
    /// [`StarvationReport`].
    pub progress_deadline: Cycle,
    /// Virtual cycles charged when the executor fails a request (the
    /// underlying run's watchdog budget, roughly).
    pub failure_penalty: Cycle,
    /// Hard ceiling on the serve clock; exceeding it is a [`ServeError`].
    pub max_cycles: Cycle,
    /// Closed-loop client retry policy; disabled by default, which keeps
    /// rejected requests terminal exactly as before the closed loop
    /// existed.
    pub retry: RetryPolicy,
}

impl ServeConfig {
    /// Defaults sized for `banks` banks: bounded queues of 8, the default
    /// regulator and ladder, FCFS arbitration.
    pub fn default_for(banks: usize) -> Self {
        Self {
            queue_capacity: 8,
            regulator: RegulatorConfig::default_for(banks),
            ladder: LadderConfig::default(),
            policy: "fcfs".to_string(),
            progress_deadline: 1_000_000,
            failure_penalty: 4_096,
            max_cycles: 1_000_000_000,
            retry: RetryPolicy::disabled(),
        }
    }
}

/// A tenant that waited past its forward-progress deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarvationReport {
    /// Tenant id.
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// Tenant class.
    pub class: TenantClass,
    /// Cycle the watchdog tripped.
    pub now: Cycle,
    /// Cycles since the tenant last made forward progress.
    pub waited: Cycle,
    /// Requests queued for the tenant at the trip.
    pub queue_len: usize,
    /// Ladder level at the trip.
    pub level: DegradeLevel,
}

/// Why a serve run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid configuration or mix.
    Config(String),
    /// The serve clock exceeded [`ServeConfig::max_cycles`].
    Budget {
        /// Clock value at the overrun.
        cycles: Cycle,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
            ServeError::Budget { cycles } => {
                write!(f, "serve clock exceeded its budget at cycle {cycles}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-tenant accounting for one serve run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantServeStats {
    /// Tenant name.
    pub name: String,
    /// Class label (`ls`/`bh`).
    pub class: String,
    /// Requests the tenant offered.
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests rejected with backpressure (queue full).
    pub rejected: u64,
    /// Requests shed by the degradation ladder (at arrival or drained
    /// from the queue at critical level).
    pub shed: u64,
    /// Requests completed by the executor.
    pub completed: u64,
    /// Requests the executor failed (absorbed livelocks etc.).
    pub failed: u64,
    /// Completed requests that finished after their deadline.
    pub deadline_misses: u64,
    /// Device cycles of service the tenant consumed.
    pub service_cycles: Cycle,
    /// Useful 64-bit words the tenant moved.
    pub useful_words: u64,
    /// Summed completion latency (completion - submission) over completed
    /// requests.
    pub latency_sum: Cycle,
    /// Worst queue wait observed at dispatch time.
    pub max_wait: Cycle,
    /// Closed-loop resubmissions scheduled for the tenant's rejected
    /// requests (each also counts in `submitted` when it re-arrives).
    pub retries: u64,
    /// Rejected requests the closed loop abandoned: retry budget spent,
    /// or the backoff would land past the request's deadline.
    pub retry_exhausted: u64,
}

/// Result of one serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Final virtual clock value.
    pub cycles: Cycle,
    /// Dispatches granted.
    pub dispatches: u64,
    /// Arbitration policy used.
    pub policy: String,
    /// Per-tenant accounting, indexed by tenant id.
    pub tenants: Vec<TenantServeStats>,
    /// Ladder transitions, in time order.
    pub transitions: Vec<LadderTransition>,
    /// Highest ladder level reached.
    pub peak_level: DegradeLevel,
    /// Starvation watchdog reports, in time order.
    pub starvation: Vec<StarvationReport>,
    /// Regulator dispatch audits (one per dispatch).
    pub audits: Vec<DispatchAudit>,
    /// Dispatches granted while a budget bucket was non-positive (must be
    /// zero; auditable via `audits`).
    pub budget_violations: u64,
    /// First cycle a bandwidth-hungry request was shed, if any.
    pub first_bh_shed: Option<Cycle>,
    /// First cycle a latency-sensitive request was shed, if any.
    pub first_ls_shed: Option<Cycle>,
    /// Closed-loop resubmission audit trail, in scheduling order (empty
    /// when the retry policy is disabled).
    pub retry_log: Vec<RetryAudit>,
}

impl ServeReport {
    /// Totals across tenants: `(submitted, completed, failed, shed,
    /// rejected, deadline_misses, useful_words)`.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0, 0, 0, 0);
        for s in &self.tenants {
            t.0 += s.submitted;
            t.1 += s.completed;
            t.2 += s.failed;
            t.3 += s.shed;
            t.4 += s.rejected;
            t.5 += s.deadline_misses;
            t.6 += s.useful_words;
        }
        t
    }

    /// Jain fairness index over per-tenant useful words, in milli
    /// (1000 = perfectly even). Tenants that completed nothing count as
    /// zero; an empty report is perfectly fair.
    pub fn fairness_milli(&self) -> u64 {
        let xs: Vec<u128> = self
            .tenants
            .iter()
            .map(|t| u128::from(t.useful_words))
            .collect();
        jain_milli(&xs)
    }

    /// Check internal conservation: every submitted request is accounted
    /// for exactly once per tenant.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (i, t) in self.tenants.iter().enumerate() {
            // `shed` covers both arrival sheds (outside `admitted`) and
            // queued drops (inside `admitted`); with empty queues at the
            // end of a run, admitted = completed + failed + shed_queued.
            let shed_queued = t.admitted.checked_sub(t.completed + t.failed);
            let shed_arrival = shed_queued.and_then(|q| t.shed.checked_sub(q));
            let balances =
                shed_arrival.is_some_and(|sa| t.submitted == t.admitted + t.rejected + sa);
            if !balances {
                return Err(format!(
                    "tenant {i} ({}) books do not balance: submitted {} admitted {} \
                     rejected {} shed {} completed {} failed {}",
                    t.name, t.submitted, t.admitted, t.rejected, t.shed, t.completed, t.failed
                ));
            }
        }
        Ok(())
    }
}

/// Jain index in milli over `xs`.
fn jain_milli(xs: &[u128]) -> u64 {
    if xs.is_empty() {
        return 1000;
    }
    let sum: u128 = xs.iter().sum();
    let sum_sq: u128 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0 {
        return 1000;
    }
    let n = xs.len() as u128;
    u64::try_from(sum * sum * 1000 / (n * sum_sq)).unwrap_or(0)
}

/// Internal per-tenant arrival/progress state.
struct TenantState {
    next_seq: u64,
    last_progress: Cycle,
}

/// Closed-loop retry state for one serve run: resubmissions pending by
/// maturity cycle, plus the audit trail.
struct RetryState {
    queue: BTreeMap<Cycle, Vec<(Request, u32)>>,
    log: Vec<RetryAudit>,
}

/// Account one rejection and, when the closed loop is on, either schedule
/// the resubmission (never earlier than `now + retry_after`) or abandon
/// the request as retry-exhausted. `rejected` pairs the request with the
/// resubmissions already consumed (0 = the original submission was
/// rejected) — the same shape the retry queue stores.
fn on_rejection(
    policy: &RetryPolicy,
    now: Cycle,
    rejected: (Request, u32),
    retry_after: Cycle,
    stat: &mut TenantServeStats,
    retry: &mut RetryState,
    mut trace: Option<&mut ServeTrace>,
) {
    let (req, attempt) = rejected;
    stat.rejected += 1;
    if let Some(tr) = trace.as_deref_mut() {
        tr.record_span(RequestSpan {
            tenant: req.tenant,
            seq: req.seq,
            submitted_at: req.submitted_at,
            dispatched_at: None,
            resolved_at: now.max(req.submitted_at),
            deadline_at: req.deadline_at,
            outcome: RequestOutcome::Rejected,
            deadline_missed: false,
        });
    }
    if !policy.is_enabled() {
        return;
    }
    if attempt >= policy.max_retries {
        stat.retry_exhausted += 1;
        return;
    }
    let hint = retry_after.max(1);
    let backoff = policy.backoff(req.tenant, req.seq, attempt);
    let resubmit_at = now.saturating_add(hint.max(backoff));
    if resubmit_at > req.deadline_at {
        // A resubmission that cannot beat its own deadline is abandoned:
        // deadlines bound retry amplification even under long outages.
        stat.retry_exhausted += 1;
        return;
    }
    stat.retries += 1;
    retry.log.push(RetryAudit {
        tenant: req.tenant,
        seq: req.seq,
        attempt,
        rejected_at: now,
        hint,
        backoff,
        resubmit_at,
    });
    if let Some(tr) = trace {
        tr.record_incident(TraceIncident {
            cycle: now,
            tenant: req.tenant,
            kind: IncidentKind::Retry,
            detail: format!(
                "seq {} attempt {attempt}: resubmit at {resubmit_at} \
                 (hint {hint}, backoff {backoff})",
                req.seq
            ),
        });
    }
    retry
        .queue
        .entry(resubmit_at)
        .or_default()
        .push((req, attempt + 1));
}

/// Run the serving loop for `mix` under `cfg`, executing requests with
/// `exec`, optionally recording every request lifecycle and incident into
/// `trace`. Deterministic: identical inputs produce identical reports.
/// Passing `None` does zero tracing work, and the report is identical
/// either way, so tracing can never perturb an existing golden.
pub fn serve_traced(
    mix: &TenantMix,
    cfg: &ServeConfig,
    exec: &dyn Executor,
    mut trace: Option<&mut ServeTrace>,
) -> Result<ServeReport, ServeError> {
    cfg.regulator.validate().map_err(ServeError::Config)?;
    if mix.is_empty() {
        return Err(ServeError::Config("tenant mix is empty".to_string()));
    }
    let mut policy = policy_by_name(&cfg.policy).map_err(ServeError::Config)?;

    let classes: Vec<bool> = mix
        .tenants
        .iter()
        .map(|t| t.class == TenantClass::BandwidthHungry)
        .collect();
    let mut regulator = Regulator::new(cfg.regulator.clone(), &classes);
    let mut ladder = Ladder::new(cfg.ladder);
    let mut queues: Vec<TenantQueue> = mix
        .tenants
        .iter()
        .map(|_| TenantQueue::new(cfg.queue_capacity))
        .collect();
    let mut states: Vec<TenantState> = mix
        .tenants
        .iter()
        .map(|_| TenantState {
            next_seq: 0,
            last_progress: 0,
        })
        .collect();
    let mut stats: Vec<TenantServeStats> = mix
        .tenants
        .iter()
        .map(|t| TenantServeStats {
            name: t.name.clone(),
            class: t.class.label().to_string(),
            ..TenantServeStats::default()
        })
        .collect();

    let mut now: Cycle = 0;
    let mut dispatches: u64 = 0;
    let mut miss_streak: u64 = 0;
    let mut fault_active = false;
    let mut last_served: Option<usize> = None;
    let mut last_bank: Option<usize> = None;
    let mut peak_level = DegradeLevel::Normal;
    let mut starvation: Vec<StarvationReport> = Vec::new();
    let mut first_bh_shed: Option<Cycle> = None;
    let mut first_ls_shed: Option<Cycle> = None;
    let mut retry = RetryState {
        queue: BTreeMap::new(),
        log: Vec::new(),
    };

    // Arrival cycle of tenant t's request k: a small per-tenant offset
    // breaks ties deterministically without floats or randomness.
    let arrival =
        |t: usize, k: u64| -> Cycle { (t as u64) + k.saturating_mul(mix.tenants[t].period.max(1)) };

    let total_capacity: u64 = (queues.len() as u64) * (cfg.queue_capacity.max(1) as u64);

    loop {
        // 1. Admit everything that has arrived by `now`.
        let level_now = ladder.level();
        for t in 0..mix.tenants.len() {
            let spec = &mix.tenants[t];
            while states[t].next_seq < spec.requests && arrival(t, states[t].next_seq) <= now {
                let seq = states[t].next_seq;
                states[t].next_seq += 1;
                stats[t].submitted += 1;
                let at = arrival(t, seq);
                let deadline_at = at.saturating_add(spec.deadline);
                if level_now.sheds(spec.class) {
                    stats[t].shed += 1;
                    note_shed(spec.class, now, &mut first_bh_shed, &mut first_ls_shed);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_span(RequestSpan {
                            tenant: t,
                            seq,
                            submitted_at: at,
                            dispatched_at: None,
                            resolved_at: now.max(at),
                            deadline_at,
                            outcome: RequestOutcome::ShedAtArrival,
                            deadline_missed: false,
                        });
                    }
                    continue;
                }
                let req = Request {
                    tenant: t,
                    seq,
                    submitted_at: at,
                    deadline_at,
                };
                match queues[t].offer(req, spec.period.max(1)) {
                    Admission::Admitted { .. } => stats[t].admitted += 1,
                    Admission::Rejected { retry_after } => on_rejection(
                        &cfg.retry,
                        now,
                        (req, 0),
                        retry_after,
                        &mut stats[t],
                        &mut retry,
                        trace.as_deref_mut(),
                    ),
                }
            }
        }

        // 1b. Closed-loop clients resubmit matured retries. Resubmissions
        // ride the same admission path as fresh arrivals — the ladder
        // sheds first (BH strictly before LS, so a retry storm cannot
        // amplify overload past the shed point), then the bounded queue
        // answers, and a renewed rejection re-enters the backoff loop
        // until the request's retry budget or deadline runs out.
        while let Some((&due, _)) = retry.queue.range(..=now).next() {
            let Some(batch) = retry.queue.remove(&due) else {
                break;
            };
            for (req, attempt) in batch {
                let t = req.tenant;
                let spec = &mix.tenants[t];
                stats[t].submitted += 1;
                if level_now.sheds(spec.class) {
                    stats[t].shed += 1;
                    note_shed(spec.class, now, &mut first_bh_shed, &mut first_ls_shed);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_span(RequestSpan {
                            tenant: t,
                            seq: req.seq,
                            submitted_at: req.submitted_at,
                            dispatched_at: None,
                            resolved_at: now.max(req.submitted_at),
                            deadline_at: req.deadline_at,
                            outcome: RequestOutcome::ShedAtArrival,
                            deadline_missed: false,
                        });
                    }
                    continue;
                }
                match queues[t].offer(req, spec.period.max(1)) {
                    Admission::Admitted { .. } => stats[t].admitted += 1,
                    Admission::Rejected { retry_after } => on_rejection(
                        &cfg.retry,
                        now,
                        (req, attempt),
                        retry_after,
                        &mut stats[t],
                        &mut retry,
                        trace.as_deref_mut(),
                    ),
                }
            }
        }

        // 2. Refill budgets up to `now`.
        regulator.advance(now);

        // 3. Feed the ladder and act on its level.
        let queued: u64 = queues.iter().map(|q| q.len() as u64).sum();
        let signal = OverloadSignal {
            queue_fill_permille: queued.saturating_mul(1000) / total_capacity.max(1),
            miss_streak,
            fault_active,
        };
        let level = ladder.observe(now, &signal);
        peak_level = peak_level.max(level);
        regulator.set_bh_throttle(level.bh_throttle_permille());
        if level == DegradeLevel::Critical {
            // Shed queued bandwidth-hungry work outright.
            for t in 0..mix.tenants.len() {
                if mix.tenants[t].class == TenantClass::BandwidthHungry {
                    let dropped = queues[t].drain();
                    if !dropped.is_empty() {
                        stats[t].shed += dropped.len() as u64;
                        note_shed(
                            TenantClass::BandwidthHungry,
                            now,
                            &mut first_bh_shed,
                            &mut first_ls_shed,
                        );
                        if let Some(tr) = trace.as_deref_mut() {
                            for req in &dropped {
                                tr.record_span(RequestSpan {
                                    tenant: t,
                                    seq: req.seq,
                                    submitted_at: req.submitted_at,
                                    dispatched_at: None,
                                    resolved_at: now,
                                    deadline_at: req.deadline_at,
                                    outcome: RequestOutcome::ShedQueued,
                                    deadline_missed: false,
                                });
                            }
                        }
                    }
                }
            }
        }

        // 4. Arbitrate among eligible queue heads.
        let views: Vec<QueueView> = queues
            .iter()
            .enumerate()
            .map(|(t, q)| {
                let head = q.head();
                QueueView {
                    tenant: t,
                    eligible: head.is_some() && regulator.eligible(t),
                    head_submitted_at: head.map_or(0, |r| r.submitted_at),
                    head_deadline_at: head.map_or(0, |r| r.deadline_at),
                    tokens: regulator.tenant_level(t),
                    first_bank: None,
                }
            })
            .collect();
        let view = ArbiterView {
            now,
            last_served,
            last_bank,
            queues: &views,
        };
        let choice = policy
            .select(&view)
            .filter(|&t| views.get(t).is_some_and(|v| v.eligible));

        if let Some(t) = choice {
            // 5. Dispatch the head request and run it to completion.
            let Some(req) = queues[t].pop() else {
                // Eligible implies a head; absent one (unreachable), keep
                // the clock moving so the loop still terminates.
                now = now.saturating_add(1);
                continue;
            };
            regulator.note_dispatch(now, t);
            let dispatched_at = now;
            let wait = now.saturating_sub(req.submitted_at);
            stats[t].max_wait = stats[t].max_wait.max(wait);
            dispatches += 1;
            match exec.execute(&mix.tenants[t], &req) {
                Ok(report) => {
                    now = now.saturating_add(report.cycles.max(1));
                    stats[t].completed += 1;
                    stats[t].service_cycles += report.cycles;
                    stats[t].useful_words += report.useful_words;
                    stats[t].latency_sum += now.saturating_sub(req.submitted_at);
                    if now > req.deadline_at {
                        stats[t].deadline_misses += 1;
                        miss_streak += 1;
                    } else {
                        miss_streak = 0;
                    }
                    fault_active = report.fault_events > 0;
                    last_bank = report.bank_data_cycles.first().map(|&(b, _)| b);
                    regulator.charge(t, report.cycles, &report.bank_data_cycles);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_span(RequestSpan {
                            tenant: t,
                            seq: req.seq,
                            submitted_at: req.submitted_at,
                            dispatched_at: Some(dispatched_at),
                            resolved_at: now,
                            deadline_at: req.deadline_at,
                            outcome: RequestOutcome::Completed,
                            deadline_missed: now > req.deadline_at,
                        });
                    }
                }
                Err(reason) => {
                    now = now.saturating_add(cfg.failure_penalty.max(1));
                    stats[t].failed += 1;
                    miss_streak += 1;
                    fault_active = true;
                    regulator.charge(t, cfg.failure_penalty, &[]);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_span(RequestSpan {
                            tenant: t,
                            seq: req.seq,
                            submitted_at: req.submitted_at,
                            dispatched_at: Some(dispatched_at),
                            resolved_at: now,
                            deadline_at: req.deadline_at,
                            outcome: RequestOutcome::Failed,
                            deadline_missed: now > req.deadline_at,
                        });
                        tr.record_incident(TraceIncident {
                            cycle: dispatched_at,
                            tenant: t,
                            kind: IncidentKind::ExecutorFailure,
                            detail: reason,
                        });
                    }
                }
            }
            last_served = Some(t);
            states[t].last_progress = now;
        } else {
            // 6. Nothing dispatchable: jump to the next event (arrival or
            // matured retry; the loop only ends once both are exhausted
            // and every queue is drained, so scheduled resubmissions are
            // never dropped).
            let fresh = (0..mix.tenants.len())
                .filter(|&t| states[t].next_seq < mix.tenants[t].requests)
                .map(|t| arrival(t, states[t].next_seq))
                .min();
            let matured = retry.queue.keys().next().copied();
            let next_arrival = match (fresh, matured) {
                (Some(a), Some(r)) => Some(a.min(r)),
                (a, r) => a.or(r),
            };
            let any_queued = queues.iter().any(|q| !q.is_empty());
            let next = match (next_arrival, any_queued) {
                (None, false) => break, // all work accounted for
                (Some(a), false) => a,
                (None, true) => regulator.next_refill(),
                (Some(a), true) => a.min(regulator.next_refill()),
            };
            now = next.max(now.saturating_add(1));
        }

        // 7. Forward-progress watchdog.
        for t in 0..mix.tenants.len() {
            if let Some(head) = queues[t].head() {
                let baseline = states[t].last_progress.max(head.submitted_at);
                let waited = now.saturating_sub(baseline);
                if waited > cfg.progress_deadline {
                    let queue_len = queues[t].len();
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_incident(TraceIncident {
                            cycle: now,
                            tenant: t,
                            kind: IncidentKind::Starvation,
                            detail: format!(
                                "{} waited {waited} cycles (queue {queue_len}, level {:?})",
                                mix.tenants[t].name,
                                ladder.level()
                            ),
                        });
                    }
                    starvation.push(StarvationReport {
                        tenant: t,
                        name: mix.tenants[t].name.clone(),
                        class: mix.tenants[t].class,
                        now,
                        waited,
                        queue_len,
                        level: ladder.level(),
                    });
                    states[t].last_progress = now; // one report per incident
                }
            }
        }

        if now > cfg.max_cycles {
            return Err(ServeError::Budget { cycles: now });
        }
    }

    Ok(ServeReport {
        cycles: now,
        dispatches,
        policy: cfg.policy.clone(),
        tenants: stats,
        transitions: ladder.transitions().to_vec(),
        peak_level,
        starvation,
        budget_violations: regulator.violations(),
        audits: regulator.audits().to_vec(),
        first_bh_shed,
        first_ls_shed,
        retry_log: retry.log,
    })
}

fn note_shed(
    class: TenantClass,
    now: Cycle,
    first_bh: &mut Option<Cycle>,
    first_ls: &mut Option<Cycle>,
) {
    match class {
        TenantClass::BandwidthHungry => {
            if first_bh.is_none() {
                *first_bh = Some(now);
            }
        }
        TenantClass::LatencySensitive => {
            if first_ls.is_none() {
                *first_ls = Some(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic executor: fixed service time per request,
    /// optional per-request failures.
    struct Fixed {
        cycles: Cycle,
        words: u64,
    }

    impl Executor for Fixed {
        fn execute(&self, _t: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
            Ok(ServiceReport {
                cycles: self.cycles,
                useful_words: self.words,
                bank_data_cycles: vec![(req.seq as usize % 4, self.words / 4)],
                fault_events: 0,
            })
        }
    }

    fn mix(spec: &str) -> TenantMix {
        TenantMix::parse(spec).unwrap()
    }

    fn cfg() -> ServeConfig {
        ServeConfig::default_for(16)
    }

    #[test]
    fn completes_a_small_mix_and_balances_the_books() {
        let m = mix("ls:2:copy:64+bh:2:copy:64");
        let exec = Fixed {
            cycles: 300,
            words: 128,
        };
        let report = serve_traced(&m, &cfg(), &exec, None).unwrap();
        let (submitted, completed, failed, shed, rejected, _miss, words) = report.totals();
        assert_eq!(submitted, m.total_requests());
        assert_eq!(completed + failed + shed + rejected, submitted);
        assert_eq!(failed, 0);
        assert_eq!(words, completed * 128);
        assert_eq!(report.budget_violations, 0);
        assert!(report.starvation.is_empty());
        assert_eq!(report.dispatches, completed);
        assert_eq!(report.audits.len() as u64, report.dispatches);
        report.check_conservation().unwrap();
        assert!(report.cycles > 0);
    }

    #[test]
    fn identical_inputs_are_bit_identical() {
        let m = mix("ls:1:daxpy:128+bh:3:copy:256");
        let exec = Fixed {
            cycles: 777,
            words: 64,
        };
        let a = serve_traced(&m, &cfg(), &exec, None).unwrap();
        let b = serve_traced(&m, &cfg(), &exec, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slow_service_causes_misses_and_never_hangs() {
        let m = mix("ls:1:copy:64+bh:4:copy:64");
        // Service far slower than the deadline allows.
        let exec = Fixed {
            cycles: 60_000,
            words: 16,
        };
        let report = serve_traced(&m, &cfg(), &exec, None).unwrap();
        let (_s, completed, _f, _shed, _r, misses, _w) = report.totals();
        assert!(misses > 0, "overloaded run must record deadline misses");
        assert!(completed > 0);
        report.check_conservation().unwrap();
    }

    #[test]
    fn executor_failures_are_absorbed_not_propagated() {
        let m = mix("bh:2:copy:64");
        let exec = |_t: &TenantSpec, req: &Request| -> Result<ServiceReport, String> {
            if req.seq.is_multiple_of(2) {
                Err("injected livelock".to_string())
            } else {
                Ok(ServiceReport {
                    cycles: 200,
                    useful_words: 32,
                    bank_data_cycles: Vec::new(),
                    fault_events: 1,
                })
            }
        };
        let report = serve_traced(&m, &cfg(), &exec, None).unwrap();
        let (_s, completed, failed, _shed, _r, _m2, _w) = report.totals();
        assert!(failed > 0);
        assert!(completed > 0);
        report.check_conservation().unwrap();
    }

    #[test]
    fn empty_mix_and_bad_policy_are_config_errors() {
        let exec = Fixed {
            cycles: 1,
            words: 1,
        };
        assert!(matches!(
            serve_traced(&TenantMix::default(), &cfg(), &exec, None),
            Err(ServeError::Config(_))
        ));
        let m = mix("ls:1:copy:64");
        let mut c = cfg();
        c.policy = "lifo".to_string();
        assert!(matches!(
            serve_traced(&m, &c, &exec, None),
            Err(ServeError::Config(_))
        ));
        let mut c = cfg();
        c.regulator.window = 0;
        assert!(matches!(
            serve_traced(&m, &c, &exec, None),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn budget_ceiling_is_enforced() {
        let m = mix("bh:1:copy:64");
        let mut c = cfg();
        c.max_cycles = 10;
        let exec = Fixed {
            cycles: 1_000,
            words: 1,
        };
        assert!(matches!(
            serve_traced(&m, &c, &exec, None),
            Err(ServeError::Budget { .. })
        ));
    }

    #[test]
    fn fairness_is_perfect_for_identical_tenants() {
        let m = mix("bh:4:copy:64");
        let exec = Fixed {
            cycles: 100,
            words: 64,
        };
        let report = serve_traced(&m, &cfg(), &exec, None).unwrap();
        assert_eq!(report.fairness_milli(), 1000);
    }

    #[test]
    fn jain_index_handles_edges() {
        assert_eq!(jain_milli(&[]), 1000);
        assert_eq!(jain_milli(&[0, 0]), 1000);
        assert_eq!(jain_milli(&[5, 5, 5, 5]), 1000);
        // One active tenant out of four: J = 1/4.
        assert_eq!(jain_milli(&[8, 0, 0, 0]), 250);
    }

    #[test]
    fn every_policy_serves_the_same_workload() {
        let m = mix("ls:2:copy:64+bh:2:copy:64");
        let exec = Fixed {
            cycles: 250,
            words: 32,
        };
        for policy in ["fcfs", "rr", "bank-aware", "regulated"] {
            let mut c = cfg();
            c.policy = policy.to_string();
            let report = serve_traced(&m, &c, &exec, None).unwrap();
            let (submitted, completed, failed, shed, rejected, _m2, _w) = report.totals();
            assert_eq!(completed + failed + shed + rejected, submitted, "{policy}");
            assert_eq!(report.budget_violations, 0, "{policy}");
            report.check_conservation().unwrap();
        }
    }

    #[test]
    fn tracing_never_perturbs_the_report() {
        let m = mix("ls:2:daxpy:64+bh:3:copy:128");
        let exec = Fixed {
            cycles: 700,
            words: 64,
        };
        let untraced = serve_traced(&m, &cfg(), &exec, None).unwrap();
        let mut trace = ServeTrace::new();
        let traced = serve_traced(&m, &cfg(), &exec, Some(&mut trace)).unwrap();
        assert_eq!(traced, untraced, "tracing must be observationally inert");
        assert!(!trace.spans().is_empty());
    }

    #[test]
    fn trace_spans_conserve_the_report_totals() {
        // Overloaded mix: rejections and sheds occur alongside completions.
        let m = mix("ls:1:copy:64+bh:4:copy:64");
        let exec = |_t: &TenantSpec, req: &Request| -> Result<ServiceReport, String> {
            if req.seq % 7 == 3 {
                Err("injected livelock".to_string())
            } else {
                Ok(ServiceReport {
                    cycles: 9_000,
                    useful_words: 16,
                    bank_data_cycles: Vec::new(),
                    fault_events: u64::from(req.seq.is_multiple_of(5)),
                })
            }
        };
        let mut trace = ServeTrace::new();
        let report = serve_traced(&m, &cfg(), &exec, Some(&mut trace)).unwrap();
        let (submitted, completed, failed, shed, rejected, _miss, _w) = report.totals();
        assert_eq!(
            trace.spans().len() as u64,
            submitted,
            "every submitted request leaves exactly one span"
        );
        assert_eq!(
            trace.outcome_totals(),
            (completed, failed, shed, rejected),
            "span outcomes match the report's books"
        );
        // Executor failures surface as incidents carrying the error text.
        let failures = trace
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::ExecutorFailure)
            .count() as u64;
        assert_eq!(failures, failed);
        assert!(trace
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::ExecutorFailure)
            .all(|i| i.detail == "injected livelock"));
        // Span ordering invariants: dispatch never precedes submission,
        // resolution never precedes dispatch.
        for s in trace.spans() {
            if let Some(d) = s.dispatched_at {
                assert!(d >= s.submitted_at);
                assert!(s.resolved_at >= d);
            }
        }
    }

    #[test]
    fn starvation_incidents_mirror_the_reports() {
        let m = mix("ls:1:copy:64+bh:1:copy:64");
        let mut c = cfg();
        c.progress_deadline = 50;
        let exec = Fixed {
            cycles: 5_000,
            words: 8,
        };
        let mut trace = ServeTrace::new();
        let report = serve_traced(&m, &c, &exec, Some(&mut trace)).unwrap();
        let starved = trace
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::Starvation)
            .count();
        assert_eq!(starved, report.starvation.len());
        for (incident, sr) in trace
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::Starvation)
            .zip(&report.starvation)
        {
            assert_eq!(incident.cycle, sr.now);
            assert_eq!(incident.tenant, sr.tenant);
            assert!(incident.detail.contains("waited"));
        }
    }

    #[test]
    fn closed_loop_resubmits_and_never_beats_the_hint() {
        let m = mix("ls:1:copy:64+bh:4:copy:64");
        let mut c = cfg();
        c.queue_capacity = 1;
        c.retry = RetryPolicy::with_budget(3, 7);
        let exec = Fixed {
            cycles: 2_000,
            words: 16,
        };
        let report = serve_traced(&m, &c, &exec, None).unwrap();
        report.check_conservation().unwrap();
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        assert!(
            retries > 0,
            "overload with bounded queues must engage the closed loop"
        );
        assert_eq!(report.retry_log.len() as u64, retries);
        for a in &report.retry_log {
            assert!(
                a.resubmit_at >= a.rejected_at + a.hint,
                "client resubmitted before its retry_after hint: {a:?}"
            );
            assert_eq!(a.resubmit_at, a.rejected_at + a.hint.max(a.backoff));
            assert!(a.attempt < c.retry.max_retries);
        }
        // Retry amplification is bounded by the configured budget.
        let (submitted, ..) = report.totals();
        let original = m.total_requests();
        assert!(
            submitted <= original * (1 + u64::from(c.retry.max_retries)),
            "submitted {submitted} exceeds the amplification bound"
        );
        assert!(submitted > original, "resubmissions count as submissions");
        // Bit-identical replay.
        assert_eq!(serve_traced(&m, &c, &exec, None).unwrap(), report);
    }

    #[test]
    fn disabled_retry_keeps_rejections_terminal() {
        let m = mix("ls:1:copy:64+bh:4:copy:64");
        let mut c = cfg();
        c.queue_capacity = 1;
        let exec = Fixed {
            cycles: 2_000,
            words: 16,
        };
        let report = serve_traced(&m, &c, &exec, None).unwrap();
        let (submitted, _c2, _f, _s, rejected, _m2, _w) = report.totals();
        assert!(rejected > 0, "this workload must overflow its queues");
        assert_eq!(submitted, m.total_requests(), "no resubmissions");
        assert!(report.retry_log.is_empty());
        for t in &report.tenants {
            assert_eq!(t.retries, 0);
            assert_eq!(t.retry_exhausted, 0);
        }
    }

    #[test]
    fn retry_budget_and_deadline_bound_the_loop() {
        let m = mix("bh:4:copy:64");
        let mut c = cfg();
        c.queue_capacity = 1;
        c.retry = RetryPolicy::with_budget(2, 11);
        // Service so slow every retry is eventually exhausted or abandoned.
        let exec = Fixed {
            cycles: 30_000,
            words: 8,
        };
        let report = serve_traced(&m, &c, &exec, None).unwrap();
        report.check_conservation().unwrap();
        let exhausted: u64 = report.tenants.iter().map(|t| t.retry_exhausted).sum();
        assert!(exhausted > 0, "slow service must exhaust some retry loops");
        // No audit entry ever exceeds the per-request budget, and none
        // schedules past its deadline.
        for a in &report.retry_log {
            assert!(a.attempt < 2);
        }
        let (submitted, ..) = report.totals();
        assert!(submitted <= m.total_requests() * 3);
    }

    #[test]
    fn retried_spans_still_conserve_the_report() {
        let m = mix("ls:1:copy:64+bh:4:copy:64");
        let mut c = cfg();
        c.queue_capacity = 1;
        c.retry = RetryPolicy::with_budget(3, 5);
        let exec = Fixed {
            cycles: 2_000,
            words: 16,
        };
        let untraced = serve_traced(&m, &c, &exec, None).unwrap();
        let mut trace = ServeTrace::new();
        let traced = serve_traced(&m, &c, &exec, Some(&mut trace)).unwrap();
        assert_eq!(
            traced, untraced,
            "tracing stays inert under the closed loop"
        );
        let (submitted, completed, failed, shed, rejected, _m2, _w) = traced.totals();
        assert_eq!(
            trace.spans().len() as u64,
            submitted,
            "every submission (including resubmissions) leaves one span"
        );
        assert_eq!(trace.outcome_totals(), (completed, failed, shed, rejected));
        let retry_incidents = trace
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::Retry)
            .count() as u64;
        assert_eq!(
            retry_incidents,
            traced.retry_log.len() as u64,
            "one retry incident per scheduled resubmission"
        );
    }

    #[test]
    fn starvation_watchdog_reports_instead_of_hanging() {
        let m = mix("ls:1:copy:64+bh:1:copy:64");
        let mut c = cfg();
        c.progress_deadline = 50; // absurdly tight: any queue wait trips it
        let exec = Fixed {
            cycles: 5_000,
            words: 8,
        };
        let report = serve_traced(&m, &c, &exec, None).unwrap();
        assert!(
            !report.starvation.is_empty(),
            "tight progress deadline must produce starvation reports"
        );
        // Reports are structured, not fatal: the run still completed.
        report.check_conservation().unwrap();
        for r in &report.starvation {
            assert!(r.waited > 50);
            assert!(!r.name.is_empty());
        }
    }
}
