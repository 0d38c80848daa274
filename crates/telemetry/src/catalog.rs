//! The static metric catalog: every metric the registry can hold.
//!
//! Metric identity is a closed enum rather than free-form strings so the
//! registry can be a flat array (no hashing on any path) and so the set of
//! metrics is documented in one place. One `metrics!` list declares the
//! enum and the catalog together; EXPERIMENTS.md's metric catalog
//! reproduces it, and a test holds the two in step.

/// What a metric measures and how it accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Last-written value.
    Gauge,
    /// Log2-bucketed distribution of observed values.
    Histogram,
}

impl MetricKind {
    /// The kind as JSONL dumps, Prometheus `# TYPE` lines and report
    /// tables write it.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's identity.
    pub id: MetricId,
    /// Stable dotted name, e.g. `device.activates`.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Unit of the value (`packets`, `cycles`, `elements`, ...).
    pub unit: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// Declares [`MetricId`], [`CATALOG`] and [`METRIC_COUNT`] from one list of
/// metrics: variant, dotted name, kind, unit and help string. The help
/// string is also the variant's doc comment.
macro_rules! metrics {
    ($($variant:ident $name:literal $kind:ident $unit:literal $help:literal;)*) => {
        /// Identity of every metric the registry can hold.
        ///
        /// The discriminants index the registry's backing array and
        /// [`CATALOG`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum MetricId {
            $(#[doc = $help] $variant,)*
        }

        /// One entry per [`MetricId`], in discriminant order.
        pub const CATALOG: &[MetricDef] = &[$(MetricDef {
            id: MetricId::$variant,
            name: $name,
            kind: MetricKind::$kind,
            unit: $unit,
            help: $help,
        }),*];

        /// Number of metrics in the catalog (= length of the registry's
        /// backing array).
        pub const METRIC_COUNT: usize = CATALOG.len();
    };
}

metrics! {
    RunCycles "run.cycles" Counter "cycles"
        "total cycles from time 0 to the last DATA packet / CPU access";
    UsefulWords "run.useful_words" Counter "words"
        "64-bit words of useful stream data moved";
    Activates "device.activates" Counter "packets"
        "ROW ACT packets issued (each one a page miss serviced)";
    Precharges "device.precharges" Counter "packets"
        "explicit ROW PRER packets issued";
    AutoPrecharges "device.auto_precharges" Counter "packets"
        "pages closed via COL auto-precharge";
    ReadHits "device.read_hits" Counter "packets"
        "COL RD packets issued to an already-open row";
    WriteHits "device.write_hits" Counter "packets"
        "COL WR packets issued to an already-open row";
    ReadPackets "device.read_packets" Counter "packets"
        "read DATA packets transferred";
    WritePackets "device.write_packets" Counter "packets"
        "write DATA packets transferred";
    Turnarounds "device.turnarounds" Counter "events"
        "write-to-read DATA-bus turnarounds paid";
    DataBusyCycles "device.data_busy_cycles" Counter "cycles"
        "cycles the DATA bus carried packets";
    BankActivatingCycles "device.bank_activating_cycles" Counter "cycles"
        "summed cycles banks spent activating a row (timeline replay)";
    BankOpenCycles "device.bank_open_cycles" Counter "cycles"
        "summed cycles banks held a row open (timeline replay)";
    BankPrechargingCycles "device.bank_precharging_cycles" Counter "cycles"
        "summed cycles banks spent precharging (timeline replay)";
    FifoSwitches "msu.fifo_switches" Counter "events"
        "times the MSU moved service to a different FIFO";
    MsuIdleCycles "msu.idle_cycles" Counter "cycles"
        "cycles with memory work remaining but nothing schedulable";
    SpeculativeActivates "msu.speculative_activates" Counter "packets"
        "speculative PRER/ACT commands issued";
    DataNacks "recovery.data_nacks" Counter "events"
        "DATA packets NACKed by the fault injector and retried";
    InjectedStallCycles "recovery.injected_stall_cycles" Counter "cycles"
        "cycles lost to injected controller stalls";
    DegradedBanks "recovery.degraded_banks" Counter "banks"
        "banks demoted from open-page to closed-page service";
    RefreshesIssued "device.refreshes_issued" Counter "events"
        "DRAM refreshes performed";
    LineTransfers "baseline.line_transfers" Counter "lines"
        "cacheline transfers performed by the natural-order controller";
    WatchdogTrips "livelock.watchdog_trips" Counter "events"
        "forward-progress watchdog livelock reports";
    LivelockStalledFor "livelock.stalled_for" Counter "cycles"
        "cycles without observable progress when the watchdog tripped";
    LivelockInFlight "livelock.in_flight" Counter "accesses"
        "accesses in flight when the watchdog tripped";
    LivelockPending "livelock.pending" Counter "accesses"
        "work admitted but not in flight when the watchdog tripped";
    LivelockOpenBanks "livelock.open_banks" Counter "banks"
        "banks holding an open page when the watchdog tripped";
    FifoCount "smc.fifo_count" Gauge "fifos"
        "stream FIFOs programmed into the SBU";
    BankCount "device.bank_count" Gauge "banks"
        "banks on the simulated channel";
    FifoOccupancy "smc.fifo_occupancy" Histogram "elements"
        "distribution of per-FIFO occupancy samples";
    OpenSpanCycles "device.open_span_cycles" Histogram "cycles"
        "distribution of bank open-page residency span lengths";
    DataGapCycles "device.data_gap_cycles" Histogram "cycles"
        "distribution of gaps between consecutive DATA packets";
    ServeSubmitted "serve.submitted" Counter "requests"
        "requests offered to the multi-tenant serving layer";
    ServeCompleted "serve.completed" Counter "requests"
        "requests completed by the serving layer";
    ServeFailed "serve.failed" Counter "requests"
        "requests the executor failed (absorbed livelocks, retry exhaustion)";
    ServeShed "serve.shed" Counter "requests"
        "requests shed by the degradation ladder";
    ServeRejected "serve.rejected" Counter "requests"
        "requests rejected with backpressure (admission queue full)";
    ServeDeadlineMisses "serve.deadline_misses" Counter "requests"
        "completed requests that finished after their deadline";
    ServeUsefulWords "serve.useful_words" Counter "words"
        "useful 64-bit words moved on behalf of tenants";
    ServeStarvationReports "serve.starvation_reports" Counter "events"
        "per-tenant forward-progress starvation reports";
    ServeTenants "serve.tenants" Gauge "tenants"
        "tenants in the served mix";
    ServeFairnessMilli "serve.fairness_milli" Gauge "milli"
        "Jain fairness index over per-tenant useful words";
    ServeWaitCycles "serve.wait_cycles" Histogram "cycles"
        "distribution of worst per-tenant queue waits";
    AttrDataCycles "attr.data_cycles" Counter "cycles"
        "attributed cycles: DATA bus carrying packets";
    AttrRetryCycles "attr.retry_cycles" Counter "cycles"
        "attributed cycles: fault recovery (injected stalls, NACK retries)";
    AttrTurnaroundCycles "attr.turnaround_cycles" Counter "cycles"
        "attributed cycles: write-to-read DATA-bus turnaround gaps";
    AttrRowOverheadCycles "attr.row_overhead_cycles" Counter "cycles"
        "attributed cycles: the next packet's bank activating/precharging";
    AttrBankConflictCycles "attr.bank_conflict_cycles" Counter "cycles"
        "attributed cycles: stalled behind another bank's activate/precharge";
    AttrIdleCycles "attr.idle_cycles" Counter "cycles"
        "attributed cycles: nothing happening on the interface";
    ServeLatencyCycles "serve.latency_cycles" Histogram "cycles"
        "distribution of per-request serve latencies (submit to completion)";
    ServeSlackCycles "serve.deadline_slack_cycles" Histogram "cycles"
        "distribution of per-request deadline slack at completion";
    FaultDegradedRequests "fault.degraded_requests" Counter "requests"
        "deliveries stretched by a channel brownout or device failure";
    FaultDeferredRequests "fault.deferred_requests" Counter "requests"
        "deliveries deferred past a channel outage window";
    FaultDeferredCycles "fault.deferred_cycles" Counter "cycles"
        "cycles deliveries sat deferred behind channel outages";
    FaultBrownoutPenaltyCycles "fault.brownout_penalty_cycles" Counter "cycles"
        "extra delivery cycles paid to brownout cost multipliers";
    FaultDevfailPenaltyCycles "fault.devfail_penalty_cycles" Counter "cycles"
        "extra delivery cycles paid to failed-device cost multipliers";
    RecoveryOutagesObserved "recovery.outages_observed" Counter "outages"
        "channel outage windows observed end to end (entered and recovered)";
    RecoveryMttrCycles "recovery.mttr_cycles" Counter "cycles"
        "summed first-deferral-to-recovery spans of observed outages";
    ServeRetries "serve.retries" Counter "requests"
        "closed-loop client resubmissions of rejected requests";
    ServeRetryExhausted "serve.retry_exhausted" Counter "requests"
        "rejections abandoned on an exhausted retry budget or passed deadline";
}

impl MetricId {
    /// Index of this metric in the registry's backing array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The catalog entry for this metric.
    pub fn def(self) -> &'static MetricDef {
        &CATALOG[self.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_dense() {
        assert_eq!(CATALOG.len(), METRIC_COUNT);
        for (i, def) in CATALOG.iter().enumerate() {
            assert_eq!(def.id.index(), i, "{} out of order", def.name);
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in CATALOG.iter().enumerate() {
            for b in &CATALOG[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn experiments_md_lists_the_catalog() {
        // The metric catalog in EXPERIMENTS.md lists every metric, in
        // order, with its kind and unit.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let rows: Vec<&str> = doc.lines().filter(|l| l.starts_with("| `")).collect();
        let mut at = 0;
        for def in CATALOG {
            let head = format!("| `{}` | {} | {} |", def.name, def.kind.label(), def.unit);
            at += 1 + rows[at..]
                .iter()
                .position(|r| r.starts_with(&head))
                .unwrap_or_else(|| panic!("EXPERIMENTS.md has no row `{head} ...` in order"));
        }
    }

    #[test]
    fn def_round_trips() {
        assert_eq!(MetricId::Turnarounds.def().name, "device.turnarounds");
        assert_eq!(MetricId::FifoOccupancy.def().kind, MetricKind::Histogram);
    }
}
