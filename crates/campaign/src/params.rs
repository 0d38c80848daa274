//! The parameter and counter tables: every [`RunPoint`] parameter and every
//! [`RunStats`] counter declared once.
//!
//! A [`Param`] row carries everything the campaign layer needs to know about
//! one parameter: its JSON name (the axis name, the exclude field and the
//! record field), how it appears in the run key, its [`Group`], its default,
//! the values it accepts, the rule that pins it to its default during grid
//! expansion, and accessors on [`RunPoint`] and [`Axes`]. The run key, the
//! record form, axis and exclude parsing, exclude matching and grid
//! expansion are generic loops over [`PARAMS`] and [`STATS`].
//!
//! One rule keeps older goldens byte-identical as groups are added: a
//! non-[`Group::Base`] group is written to the key and the record if and
//! only if any of its members differs from its default.

use std::borrow::Cow;
use std::fmt;

use serde_json::Value;

use crate::spec::Order;

/// The feature group a parameter or counter belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper's grid: always written.
    Base,
    /// Multi-tenant serving.
    Tenancy,
    /// Cycle attribution.
    Attribution,
    /// Multi-channel memory-system topology.
    Topology,
    /// Channel-level chaos and closed-loop retries.
    Chaos,
}

impl Group {
    /// Every group, in record order.
    pub const ALL: [Group; 5] = [
        Group::Base,
        Group::Tenancy,
        Group::Attribution,
        Group::Topology,
        Group::Chaos,
    ];

    /// Whether `point` writes this group to its key and record: always for
    /// [`Group::Base`], otherwise when any member is off its default.
    pub fn active(self, point: &RunPoint) -> bool {
        written(point)[self as usize]
    }
}

/// Which groups `point` writes, indexed by `Group as usize`.
pub(crate) fn written(point: &RunPoint) -> [bool; Group::ALL.len()] {
    let mut on = [false; Group::ALL.len()];
    on[Group::Base as usize] = true;
    for param in PARAMS {
        if (param.get)(point) != param.default {
            on[param.group as usize] = true;
        }
    }
    on
}

/// One parameter value: a string or an unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val<'a> {
    /// A string value.
    Str(Cow<'a, str>),
    /// An unsigned integer value.
    U64(u64),
}

impl Val<'_> {
    /// The string, or `""` for an integer.
    pub fn as_str(&self) -> &str {
        match self {
            Val::Str(s) => s,
            Val::U64(_) => "",
        }
    }

    /// The integer, or 0 for a string.
    pub fn as_u64(&self) -> u64 {
        match self {
            Val::U64(n) => *n,
            Val::Str(_) => 0,
        }
    }

    /// The value with its string copied out of any borrow.
    pub fn into_owned(self) -> Val<'static> {
        match self {
            Val::Str(s) => Val::Str(Cow::Owned(s.into_owned())),
            Val::U64(n) => Val::U64(n),
        }
    }

    /// The JSON form of the value.
    pub fn to_json(&self) -> Value {
        match self {
            Val::Str(s) => Value::String(s.to_string()),
            Val::U64(n) => Value::UInt(*n),
        }
    }
}

impl fmt::Display for Val<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Str(s) => f.write_str(s),
            Val::U64(n) => write!(f, "{n}"),
        }
    }
}

/// The values a parameter accepts, which also fixes its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Any string (spec strings the runner validates).
    Text,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// An unsigned integer no smaller than the bound.
    AtLeast(u64),
    /// 0 (off) or 1 (on).
    Switch,
}

impl Domain {
    /// Whether values of this domain are strings.
    pub fn is_text(self) -> bool {
        matches!(self, Domain::Text | Domain::OneOf(_))
    }

    /// Read a JSON value of this domain's type, without range checks.
    pub fn read(self, v: &Value) -> Option<Val<'_>> {
        if self.is_text() {
            v.as_str().map(|s| Val::Str(Cow::Borrowed(s)))
        } else {
            v.as_u64().map(Val::U64)
        }
    }

    /// Read and validate one value of a spec (an axis element or an
    /// exclude field).
    ///
    /// # Errors
    ///
    /// What is wrong with the value.
    pub fn parse(self, v: &Value) -> Result<Val<'static>, String> {
        let expected = if self.is_text() {
            "a string"
        } else {
            "an unsigned integer"
        };
        let val = self.read(v).ok_or_else(|| format!("expected {expected}"))?;
        match (self, &val) {
            (Domain::OneOf(allowed), Val::Str(s)) if !allowed.contains(&s.as_ref()) => {
                Err(format!("expected one of {allowed:?}, got {s:?}"))
            }
            (Domain::AtLeast(min), Val::U64(n)) if *n < min => Err(format!("must be >= {min}")),
            (Domain::Switch, Val::U64(n)) if *n > 1 => Err("must be 0 or 1".to_string()),
            _ => Ok(val.into_owned()),
        }
    }
}

/// How a parameter appears in the run key.
#[derive(Debug, Clone, Copy)]
pub enum Key {
    /// The bare value (`copy`).
    Bare,
    /// `label=value` (`fseed=7`).
    Label(&'static str),
    /// A custom rendering of the point (`smc:64`).
    Custom(fn(&RunPoint) -> String),
    /// Not in the key (folded into another parameter's rendering).
    Omit,
}

/// A collapse rule: while `holds` is true of the point being expanded, the
/// parameter is pinned to its default, whatever its axis lists.
#[derive(Debug, Clone, Copy)]
pub struct Collapse {
    /// The condition in words, for documentation.
    pub when: &'static str,
    /// The condition, over the parameters expanded before this one.
    pub holds: fn(&RunPoint) -> bool,
}

/// One row of [`PARAMS`].
#[derive(Debug, Clone)]
pub struct Param {
    /// JSON name: the axis name, the exclude field and the record field.
    pub name: &'static str,
    /// How the parameter appears in the run key.
    pub key: Key,
    /// The group it is written with.
    pub group: Group,
    /// The default: the single-value axis an omitted axis takes, and the
    /// value a collapse rule pins.
    pub default: Val<'static>,
    /// The values it accepts.
    pub domain: Domain,
    /// When expansion pins it to its default, if ever.
    pub collapse: Option<Collapse>,
    /// Read the parameter from a point.
    pub get: fn(&RunPoint) -> Val<'_>,
    /// Write the parameter into a point.
    pub set: fn(&mut RunPoint, &Val<'_>),
    /// The values of its axis.
    pub axis: fn(&Axes) -> Vec<Val<'_>>,
    /// Replace its axis.
    pub set_axis: fn(&mut Axes, &[Val<'_>]),
}

/// The row of [`PARAMS`] named `name`.
pub fn param(name: &str) -> Option<&'static Param> {
    PARAMS.iter().find(|p| p.name == name)
}

/// [`PARAMS`] in grid-nesting order: the record order with `memory` (row 3)
/// moved ahead of `order` and `fifo` (rows 1 and 2). This order fixes the
/// record order of every campaign.
pub fn expansion_order() -> impl Iterator<Item = &'static Param> {
    [0, 3, 1, 2]
        .into_iter()
        .chain(4..PARAMS.len())
        .map(|i| &PARAMS[i])
}

/// The Rust type of a `text` or `uint` parameter.
macro_rules! kind_ty {
    (text) => {
        String
    };
    (uint) => {
        u64
    };
}

/// The [`PARAMS`] row of a `text` or `uint` parameter stored in the
/// `RunPoint` field and `Axes` list of the given names.
macro_rules! row {
    (text $field:ident $axis:ident, $key:expr, $group:ident, $default:literal, $domain:expr, $collapse:expr) => {
        Param {
            name: stringify!($field),
            key: $key,
            group: Group::$group,
            default: Val::Str(Cow::Borrowed($default)),
            domain: $domain,
            collapse: $collapse,
            get: |p| Val::Str(Cow::Borrowed(&p.$field)),
            set: |p, v| v.as_str().clone_into(&mut p.$field),
            axis: |a| a.$axis.iter().map(|s| Val::Str(Cow::Borrowed(s))).collect(),
            set_axis: |a, v| a.$axis = v.iter().map(|x| x.as_str().to_string()).collect(),
        }
    };
    (uint $field:ident $axis:ident, $key:expr, $group:ident, $default:literal, $domain:expr, $collapse:expr) => {
        Param {
            name: stringify!($field),
            key: $key,
            group: Group::$group,
            default: Val::U64($default),
            domain: $domain,
            collapse: $collapse,
            get: |p| Val::U64(p.$field),
            set: |p, v| p.$field = v.as_u64(),
            axis: |a| a.$axis.iter().map(|&n| Val::U64(n)).collect(),
            set_axis: |a, v| a.$axis = v.iter().map(Val::as_u64).collect(),
        }
    };
}

/// Declares [`RunPoint`], [`Axes`], their defaults and [`PARAMS`] from one
/// list of parameters. A plain row is the field's doc comment, then
/// `field: kind in axis` (the field name is also the JSON name), then its
/// key form, group, default, domain and collapse rule. `order` and `fifo`
/// share the `RunPoint::order` field, so their two rows are written out in
/// full, after the first plain row.
macro_rules! params {
    (
        $(#[$doc0:meta])* $field0:ident: $kind0:ident in $axis0:ident,
            $key0:expr, $group0:ident, $default0:literal, $domain0:expr, $collapse0:expr;
        $order:expr, $fifo:expr;
        $($(#[$doc:meta])* $field:ident: $kind:ident in $axis:ident,
            $key:expr, $group:ident, $default:literal, $domain:expr, $collapse:expr;)*
    ) => {
        /// One fully-resolved point of a campaign grid: everything needed to
        /// reconstruct the simulated system and reproduce the run. Each field
        /// is a row of [`PARAMS`], which gives its default, group and
        /// collapse rule.
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        pub struct RunPoint {
            $(#[$doc0])* pub $field0: kind_ty!($kind0),
            /// Access ordering and FIFO depth (the `order` and `fifo` rows).
            pub order: Order,
            $($(#[$doc])* pub $field: kind_ty!($kind),)*
        }

        /// The parameter axes of a campaign, one list per [`PARAMS`] row. The
        /// grid is their cartesian product. A *missing* axis takes the
        /// single-value list of its default; an *explicitly empty* axis makes
        /// the whole product empty (zero runs), which is legal.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Axes {
            #[doc = concat!("Values of the `", stringify!($field0), "` axis.")]
            pub $axis0: Vec<kind_ty!($kind0)>,
            /// Values of the `order` axis: ordering families, `smc` or `natural`.
            pub orders: Vec<String>,
            /// Values of the `fifo` axis: SMC FIFO depths in elements.
            pub fifos: Vec<u64>,
            $(#[doc = concat!("Values of the `", stringify!($field), "` axis.")]
            pub $axis: Vec<kind_ty!($kind)>,)*
        }

        impl Default for RunPoint {
            /// Every parameter at its [`PARAMS`] default.
            fn default() -> Self {
                let mut point = RunPoint {
                    $field0: Default::default(),
                    order: Order::Natural,
                    $($field: Default::default(),)*
                };
                for param in PARAMS {
                    (param.set)(&mut point, &param.default);
                }
                point
            }
        }

        impl Default for Axes {
            /// Every axis at the single-value list of its [`PARAMS`] default.
            fn default() -> Self {
                let mut axes = Axes {
                    $axis0: Vec::new(),
                    orders: Vec::new(),
                    fifos: Vec::new(),
                    $($axis: Vec::new(),)*
                };
                for param in PARAMS {
                    (param.set_axis)(&mut axes, std::slice::from_ref(&param.default));
                }
                axes
            }
        }

        /// Every run-point parameter, in record order.
        pub const PARAMS: &[Param] = &[
            row!($kind0 $field0 $axis0, $key0, $group0, $default0, $domain0, $collapse0),
            $order,
            $fifo,
            $(row!($kind $field $axis, $key, $group, $default, $domain, $collapse),)*
        ];
    };
}

const fn pinned_when(when: &'static str, holds: fn(&RunPoint) -> bool) -> Option<Collapse> {
    Some(Collapse { when, holds })
}

params! {
    /// Kernel name (`copy`, `daxpy`, ... — validated by the runner, not
    /// here, so the orchestration layer stays simulator-agnostic).
    kernel: text in kernels, Key::Bare, Base, "daxpy", Domain::Text, None;

    // The key shows `smc:64` or `natural`; the record shows the family and
    // the depth (0 when natural).
    Param {
        name: "order",
        key: Key::Custom(|p| p.order.label()),
        group: Group::Base,
        default: Val::Str(Cow::Borrowed("smc")),
        domain: Domain::OneOf(&["smc", "natural"]),
        collapse: None,
        get: |p| Val::Str(Cow::Borrowed(p.order.family())),
        set: |p, v| {
            p.order = match v.as_str() {
                "natural" => Order::Natural,
                _ => Order::Smc { fifo: p.order.fifo() },
            }
        },
        axis: |a| a.orders.iter().map(|s| Val::Str(Cow::Borrowed(s))).collect(),
        set_axis: |a, v| a.orders = v.iter().map(|x| x.as_str().to_string()).collect(),
    },
    Param {
        name: "fifo",
        key: Key::Omit,
        group: Group::Base,
        default: Val::U64(64),
        domain: Domain::AtLeast(1),
        collapse: pinned_when("`order` is `natural`", |p| p.order == Order::Natural),
        get: |p| Val::U64(p.order.fifo()),
        set: |p, v| {
            if let Order::Smc { fifo } = &mut p.order {
                *fifo = v.as_u64();
            }
        },
        axis: |a| a.fifos.iter().map(|&n| Val::U64(n)).collect(),
        set_axis: |a, v| a.fifos = v.iter().map(Val::as_u64).collect(),
    };

    /// Memory organization: `cli` or `pi`.
    memory: text in memories, Key::Bare, Base, "cli", Domain::OneOf(&["cli", "pi"]), None;
    /// Vector placement: `staggered` or `aligned`.
    alignment: text in alignments, Key::Bare, Base, "staggered",
        Domain::OneOf(&["staggered", "aligned"]), None;
    /// Elements per stream.
    n: uint in lengths, Key::Label("n"), Base, 1024, Domain::AtLeast(1), None;
    /// Stride in 64-bit words.
    stride: uint in strides, Key::Label("stride"), Base, 1, Domain::AtLeast(1), None;
    /// Fault plan in `--faults` spec syntax; empty runs clean.
    faults: text in faults, Key::Label("faults"), Base, "", Domain::Text, None;
    /// Seed for the fault injector.
    fault_seed: uint in fault_seeds, Key::Label("fseed"), Base, 0, Domain::AtLeast(0),
        pinned_when("`faults` is empty", |p| p.faults.is_empty());
    /// Tenant mix in `tenancy` spec syntax (`ls:1:daxpy:64+bh:2:copy:64`);
    /// empty means a classic single-tenant run.
    tenants: text in tenant_mixes, Key::Label("tenants"), Tenancy, "", Domain::Text, None;
    /// Bandwidth-hungry budget as permille of the default regulator budget
    /// (0 means the default).
    budget_permille: uint in budgets, Key::Label("budget"), Tenancy, 0, Domain::AtLeast(0),
        pinned_when("`tenants` is empty", |p| p.tenants.is_empty());
    /// Whether the run collects cycle attribution (0 = off, 1 = on).
    attribution: uint in attributions, Key::Label("attr"), Attribution, 0, Domain::Switch,
        pinned_when("`tenants` is not empty", |p| !p.tenants.is_empty());
    /// Independent memory channels.
    channels: uint in channel_counts, Key::Label("channels"), Topology, 1,
        Domain::AtLeast(1), None;
    /// RDRAM devices ganged on each channel.
    devices_per_channel: uint in devices_per_channel, Key::Label("devices"), Topology, 1,
        Domain::AtLeast(1), None;
    /// Cross-channel placement spec (`interleaved[:bytes]`, `sequential`,
    /// or `numa[:home]` — validated by the runner).
    placement: text in placements, Key::Label("placement"), Topology, "interleaved",
        Domain::Text, pinned_when("`channels` is 1", |p| p.channels <= 1);
    /// Channel-level chaos plan in fault-plan spec syntax
    /// (`brownout:<ch>:<from>:<len>:<mult>`, `outage:<ch>:<from>:<len>`,
    /// `devfail:<ch>:<dev>:<from>:<mult>`, `;`-separated — validated by
    /// the runner); empty runs healthy.
    chaos: text in chaos_plans, Key::Label("chaos"), Chaos, "", Domain::Text, None;
    /// Closed-loop client retry budget: resubmissions allowed per
    /// rejected request (0 disables retries).
    retry_budget: uint in retry_budgets, Key::Label("rbudget"), Chaos, 0, Domain::AtLeast(0),
        pinned_when("`tenants` is empty", |p| p.tenants.is_empty());
}

/// One row of [`STATS`]: a [`RunStats`] counter, its group and accessors.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// Record field name.
    pub name: &'static str,
    /// The group it is written with.
    pub group: Group,
    /// Read the counter.
    pub get: fn(&RunStats) -> u64,
    /// Write the counter.
    pub set: fn(&mut RunStats, u64),
}

/// Declares [`RunStats`] and [`STATS`] from one list of documented counters,
/// each with its group.
macro_rules! counters {
    ($($(#[$doc:meta])* $group:ident $field:ident,)*) => {
        /// Integer statistics of one completed run: cycle count, bandwidth
        /// as milli-percent of peak, and the recovery/telemetry counters the
        /// fault and telemetry subsystems expose. A counter outside
        /// [`Group::Base`] is written to the record only with its group.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct RunStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// Every [`RunStats`] counter, in record order, with its group.
        pub const STATS: &[Stat] = &[$(Stat {
            name: stringify!($field),
            group: Group::$group,
            get: |s| s.$field,
            set: |s, v| s.$field = v,
        }),*];
    };
}

counters! {
    /// Total simulated bus cycles.
    Base cycles,
    /// Effective bandwidth in milli-percent of peak (`98250` = 98.250%).
    Base percent_peak_milli,
    /// 64-bit words of useful data moved.
    Base useful_words,
    /// Bank activations issued.
    Base activates,
    /// Read data packets on the channel.
    Base read_packets,
    /// Write data packets on the channel.
    Base write_packets,
    /// Bus turnarounds (read↔write direction changes).
    Base turnarounds,
    /// SMC FIFO switches (0 for natural order).
    Base fifo_switches,
    /// Cycles the data bus sat idle.
    Base idle_cycles,
    /// NACKed data packets recovered by retry.
    Base data_nacks,
    /// Cycles lost to injected controller stalls.
    Base injected_stall_cycles,
    /// Banks the page-policy watchdog degraded to closed-page.
    Base degraded_banks,
    /// Requests completed by the serving layer (multi-tenant runs only;
    /// stays 0 — and unserialized — for single-tenant points).
    Tenancy serve_completed,
    /// Requests shed by the degradation ladder.
    Tenancy serve_shed,
    /// Requests rejected at admission (queue full).
    Tenancy serve_rejected,
    /// Requests that completed after their deadline.
    Tenancy serve_deadline_misses,
    /// Jain fairness index over per-tenant useful words, in milli.
    Tenancy serve_fairness_milli,
    /// Starvation reports from the forward-progress watchdog.
    Tenancy serve_starvation,
    /// Token-budget violations observed at dispatch (must stay 0).
    Tenancy serve_budget_violations,
    /// Attribution: cycles moving useful data (attribution points only;
    /// stays 0 — and unserialized — when `attribution` is off).
    Attribution attr_data_cycles,
    /// Attribution: bus-turnaround cycles.
    Attribution attr_turnaround_cycles,
    /// Attribution: activate/precharge cycles hiding no data transfer.
    Attribution attr_row_overhead_cycles,
    /// Attribution: cycles waiting on a busy conflicting bank.
    Attribution attr_bank_conflict_cycles,
    /// Attribution: cycles lost to retries and fault recovery.
    Attribution attr_retry_cycles,
    /// Attribution: cycles no component can claim.
    Attribution attr_idle_cycles,
    /// Closed-loop client resubmissions of rejected requests (chaos/retry
    /// points only; stays 0 — and unserialized — at the defaults).
    Chaos serve_retries,
    /// Rejections abandoned on an exhausted retry budget or passed
    /// deadline.
    Chaos serve_retry_exhausted,
    /// Deliveries stretched by a channel brownout or device failure.
    Chaos chaos_degraded_commands,
    /// Deliveries deferred past a channel outage window.
    Chaos chaos_deferred_commands,
    /// Cycles deliveries sat deferred behind channel outages.
    Chaos chaos_deferred_cycles,
    /// Extra delivery cycles paid to brownout cost multipliers.
    Chaos chaos_brownout_penalty_cycles,
    /// Extra delivery cycles paid to failed-device cost multipliers.
    Chaos chaos_devfail_penalty_cycles,
    /// Channel outage windows observed end to end.
    Chaos chaos_outages_observed,
    /// Summed first-deferral-to-recovery spans of observed outages.
    Chaos chaos_mttr_cycles,
}

#[cfg(test)]
mod tests {
    //! One table-driven test of the inertness rule, the collapse rules and
    //! validation, over every row of [`PARAMS`] and [`STATS`].

    use super::*;
    use crate::expand;
    use crate::spec::CampaignSpec;
    use crate::store::{Outcome, ResultsStore, RunRecord};

    /// The `k`-th value (from 1) of `param` that is valid but not its
    /// default, if there is one.
    fn off(param: &Param, k: u64) -> Option<Val<'static>> {
        match param.domain {
            Domain::Text => Some(Val::Str(format!("probe{k}").into())),
            Domain::OneOf(allowed) => allowed
                .iter()
                .filter(|s| **s != param.default.as_str())
                .nth(k as usize - 1)
                .map(|s| Val::Str((*s).into())),
            Domain::AtLeast(_) => Some(Val::U64(param.default.as_u64() + k)),
            Domain::Switch => (k == 1).then_some(Val::U64(1)),
        }
    }

    /// An axis of `param`'s default and its first other value.
    fn widened(param: &Param) -> (&Param, Vec<Val<'static>>) {
        (param, vec![param.default.clone(), off(param, 1).unwrap()])
    }

    fn with(param: &Param, value: &Val<'_>) -> RunPoint {
        let mut point = RunPoint::default();
        (param.set)(&mut point, value);
        point
    }

    fn spec_with(axes: &[(&Param, Vec<Val<'_>>)]) -> CampaignSpec {
        let mut spec = CampaignSpec::named("t");
        for (param, values) in axes {
            (param.set_axis)(&mut spec.axes, values);
        }
        spec
    }

    /// A record of `point` whose every written counter is non-zero.
    fn record(point: RunPoint) -> RunRecord {
        let mut stats = RunStats::default();
        for (i, stat) in STATS.iter().enumerate() {
            if stat.group.active(&point) {
                (stat.set)(&mut stats, 100 + i as u64);
            }
        }
        RunRecord {
            run_id: point.run_id(),
            point,
            outcome: Outcome::Ok(stats),
        }
    }

    fn parse(body: &str) -> Result<CampaignSpec, crate::SpecError> {
        CampaignSpec::from_json(&format!(r#"{{"schema": 1, "name": "t", {body}}}"#))
    }

    #[test]
    fn the_tables_are_consistent() {
        for (i, param) in PARAMS.iter().enumerate() {
            assert!(param.domain.parse(&param.default.to_json()).is_ok());
            assert_eq!(param.default, (param.get)(&RunPoint::default()));
            assert_eq!(PARAMS.iter().position(|p| p.name == param.name), Some(i));
        }
        let nested: Vec<&str> = expansion_order().map(|p| p.name).collect();
        assert_eq!(nested.len(), PARAMS.len());
        assert_eq!(nested[..4], ["kernel", "memory", "order", "fifo"]);
        for (i, stat) in STATS.iter().enumerate() {
            assert_eq!(STATS.iter().position(|s| s.name == stat.name), Some(i));
        }
        // The axis table in EXPERIMENTS.md lists every row, in order, with
        // its group and collapse rule.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let rows: Vec<&str> = doc.lines().filter(|l| l.starts_with("| `")).collect();
        let mut at = 0;
        for param in PARAMS {
            let head = format!("| `{}` |", param.name);
            let when = param.collapse.map_or("—", |c| c.when);
            let tail = format!("| {:?} | {when} |", param.group);
            at += rows[at..]
                .iter()
                .position(|r| r.starts_with(&head) && r.ends_with(&tail))
                .unwrap_or_else(|| panic!("EXPERIMENTS.md has no row `{head} ... {tail}`"));
        }
    }

    #[test]
    fn groups_are_inert_at_defaults_and_written_whole_when_moved() {
        let base = RunPoint::default();
        let base_key = base.key();
        let base_line = record(base.clone()).to_json_line();
        // The key segment each group adds when its first member moves.
        let segments = [
            "|tenants=probe1|budget=0",
            "|attr=1",
            "|channels=2|devices=1|placement=interleaved",
            "|chaos=probe1|rbudget=0",
        ];
        for (&group, segment) in Group::ALL[1..].iter().zip(segments) {
            assert!(!group.active(&base), "{group:?}");
            let members: Vec<&Param> = PARAMS.iter().filter(|p| p.group == group).collect();
            // At its defaults the group never shows, by any of its names.
            for param in &members {
                assert!(!base_line.contains(&format!("\"{}\":", param.name)));
                let Key::Label(label) = param.key else {
                    panic!("{} needs a key label", param.name);
                };
                assert!(!base_key.contains(&format!("|{label}=")), "{base_key}");
            }
            for stat in STATS.iter().filter(|s| s.group == group) {
                assert!(!base_line.contains(stat.name), "{base_line}");
            }
            // Moving any one member writes exactly this group: its key
            // segment, its record fields and its counters.
            for (i, param) in members.iter().enumerate() {
                let point = with(param, &off(param, 1).unwrap());
                for other in Group::ALL {
                    let expected = other == Group::Base || other == group;
                    assert_eq!(other.active(&point), expected, "{}", param.name);
                }
                let moved: Vec<String> = members
                    .iter()
                    .map(|m| match m.key {
                        Key::Label(label) => format!("|{label}={}", (m.get)(&point)),
                        Key::Bare | Key::Custom(_) | Key::Omit => unreachable!(),
                    })
                    .collect();
                assert_eq!(point.key(), format!("{base_key}{}", moved.concat()));
                if i == 0 {
                    assert_eq!(point.key(), format!("{base_key}{segment}"));
                }
                let rec = record(point.clone());
                let line = rec.to_json_line();
                for m in &members {
                    let field = format!("\"{}\":{}", m.name, (m.get)(&point).to_json());
                    assert!(line.contains(&field), "{field}: {line}");
                }
                for stat in STATS {
                    let shown = line.contains(&format!("\"{}\":", stat.name));
                    let expected = stat.group == Group::Base || stat.group == group;
                    assert_eq!(shown, expected, "{}: {line}", stat.name);
                }
                // The record round-trips through JSONL byte for byte.
                let store = ResultsStore {
                    campaign: "t".into(),
                    records: vec![rec],
                };
                let text = store.to_jsonl();
                let back = ResultsStore::from_jsonl(&text).unwrap();
                assert_eq!(back, store, "{}", param.name);
                assert_eq!(back.to_jsonl(), text);
            }
        }
    }

    #[test]
    fn explicit_default_axes_expand_like_omitted_ones() {
        // A grid that moves every group after Base somewhere.
        let wide = |skip: &str| -> Vec<(&Param, Vec<Val<'_>>)> {
            PARAMS
                .iter()
                .filter(|p| p.group != Group::Base && p.name != skip)
                .map(widened)
                .collect()
        };
        for param in PARAMS {
            // Widening an axis by a second value leaves the points at its
            // default exactly as they were, in the same order.
            let narrow = expand(&spec_with(&wide(param.name)));
            let mut axes = wide(param.name);
            axes.push(widened(param));
            let at_default: Vec<RunPoint> = expand(&spec_with(&axes))
                .into_iter()
                .filter(|p| (param.get)(p) == param.default)
                .collect();
            assert_eq!(at_default, narrow, "{}", param.name);
            // An explicit single-default axis parses like an omitted one.
            let body = format!(
                r#""axes": {{"{}": [{}]}}"#,
                param.name,
                param.default.to_json()
            );
            assert_eq!(parse(&body).unwrap(), CampaignSpec::named("t"), "{body}");
        }
    }

    #[test]
    fn every_collapse_rule_pins_its_axis() {
        let mut rules = Vec::new();
        for param in PARAMS {
            let values: Vec<Val<'_>> = (1..=2).filter_map(|k| off(param, k)).collect();
            let holds = |p: &RunPoint| param.collapse.is_some_and(|c| (c.holds)(p));
            // Widen the parameters whose move flips the rule: its parents.
            let parents: Vec<(&Param, Vec<Val<'_>>)> = PARAMS
                .iter()
                .filter(|p| p.name != param.name)
                .filter(|p| holds(&with(p, &off(p, 1).unwrap())) != holds(&RunPoint::default()))
                .map(widened)
                .collect();
            assert_eq!(
                parents.is_empty(),
                param.collapse.is_none(),
                "{}",
                param.name
            );
            rules.extend(parents.iter().map(|(p, _)| (param.name, p.name)));
            let mut axes = parents.clone();
            axes.push((param, values.clone()));
            let points = expand(&spec_with(&axes));
            for point in &points {
                if holds(point) {
                    // Pinned: the point already carries the default.
                    let mut pinned = point.clone();
                    (param.set)(&mut pinned, &param.default);
                    assert_eq!(&pinned, point, "{}", param.name);
                } else {
                    assert!(values.contains(&(param.get)(point)), "{point:?}");
                }
            }
            // Pinned, the axis contributes one point per parent combination;
            // free, it is walked in full.
            let combos = expand(&spec_with(&parents));
            let pinned = combos.iter().filter(|p| holds(p)).count();
            let free = combos.len() - pinned;
            assert_eq!(points.len(), pinned + free * values.len(), "{}", param.name);
            assert_eq!(pinned > 0, param.collapse.is_some(), "{}", param.name);
        }
        // The rules, as (pinned parameter, the parameter it depends on).
        let expected = [
            ("fifo", "order"),
            ("fault_seed", "faults"),
            ("budget_permille", "tenants"),
            ("attribution", "tenants"),
            ("placement", "channels"),
            ("retry_budget", "tenants"),
        ];
        assert_eq!(rules, expected);
    }

    #[test]
    fn axes_and_excludes_validate_every_value_with_a_json_path() {
        for param in PARAMS {
            let name = param.name;
            let wrong_type = if param.domain.is_text() {
                Value::UInt(5)
            } else {
                Value::String("x".into())
            };
            let out_of_range = match param.domain {
                Domain::Text | Domain::AtLeast(0) => None,
                Domain::OneOf(_) => Some(Value::String("bogus".into())),
                Domain::AtLeast(min) => Some(Value::UInt(min - 1)),
                Domain::Switch => Some(Value::UInt(2)),
            };
            for bad in std::iter::once(wrong_type).chain(out_of_range) {
                let e = parse(&format!(r#""axes": {{"{name}": [{bad}]}}"#)).unwrap_err();
                assert_eq!(e.path, format!("$.axes.{name}[0]"), "{e}");
                let e = parse(&format!(r#""exclude": [{{"{name}": {bad}}}]"#)).unwrap_err();
                assert_eq!(e.path, format!("$.exclude[0].{name}"), "{e}");
            }
            // A valid exclude value matches exactly the points carrying it.
            let value = off(param, 1).unwrap();
            let body = format!(r#""exclude": [{{"{name}": {}}}]"#, value.to_json());
            let clause = &parse(&body).unwrap().exclude[0];
            assert!(clause.matches(&with(param, &value)), "{name}");
            assert!(!clause.matches(&RunPoint::default()), "{name}");
        }
        // The unknown-axis message lists every axis.
        let e = parse(r#""axes": {"warp": [1]}"#).unwrap_err();
        assert!(PARAMS.iter().all(|p| e.message.contains(p.name)), "{e}");
        let e = parse(r#""exclude": [{"warp": 1}]"#).unwrap_err();
        assert!(e.message.contains("warp"), "{e}");
    }
}
