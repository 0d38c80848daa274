//! Campaign specifications: the parameter axes of a sweep, their JSON
//! form, and the fully-resolved [`RunPoint`]s a grid expands into.
//!
//! Parsing is a hand-written walk over the untyped [`serde_json::Value`]
//! tree (the vendored `serde` stand-in has no typed deserialization),
//! mirroring the approach of the conformance checker's `TraceFile`. Every
//! parse error names the JSON path of the offending element. Which axes and
//! exclude fields exist, and which values they accept, comes from
//! [`PARAMS`].

use std::fmt;

use serde_json::Value;

use crate::grid::fnv1a64;
use crate::params::{param, written, Key, Val, PARAMS};
pub use crate::params::{Axes, RunPoint};

/// Access ordering of one run point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// Conventional controller: cacheline fills in natural order. FIFO
    /// depth does not apply, so the fifo axis collapses for these points.
    Natural,
    /// Stream Memory Controller with per-stream FIFOs of the given depth.
    Smc {
        /// FIFO depth in 64-bit elements.
        fifo: u64,
    },
}

impl Order {
    /// Canonical label: `natural` or `smc:<fifo>`.
    pub fn label(&self) -> String {
        match self {
            Order::Natural => "natural".to_string(),
            Order::Smc { fifo } => format!("smc:{fifo}"),
        }
    }

    /// The ordering family without the FIFO depth: `natural` or `smc`.
    pub fn family(&self) -> &'static str {
        match self {
            Order::Natural => "natural",
            Order::Smc { .. } => "smc",
        }
    }

    /// FIFO depth for SMC points, 0 for natural-order points (the value
    /// serialized into result records).
    pub fn fifo(&self) -> u64 {
        match self {
            Order::Natural => 0,
            Order::Smc { fifo } => *fifo,
        }
    }
}

impl RunPoint {
    /// The canonical config fingerprint: a `|`-separated key covering
    /// every parameter that can change the simulated outcome. Two points
    /// with equal keys are the same run. A group other than the base grid
    /// appears only when one of its parameters is off its default, so run
    /// IDs from before the group existed never move.
    pub fn key(&self) -> String {
        let written = written(self);
        let segments: Vec<String> = PARAMS
            .iter()
            .filter(|p| written[p.group as usize])
            .filter_map(|param| match param.key {
                Key::Bare => Some((param.get)(self).to_string()),
                Key::Label(label) => Some(format!("{label}={}", (param.get)(self))),
                Key::Custom(render) => Some(render(self)),
                Key::Omit => None,
            })
            .collect();
        segments.join("|")
    }

    /// Deterministic run ID: the FNV-1a 64-bit hash of [`Self::key`],
    /// rendered as 16 hex digits. Stable across processes, platforms, and
    /// worker counts, so golden stores can be matched by ID.
    pub fn run_id(&self) -> String {
        format!("{:016x}", fnv1a64(self.key().as_bytes()))
    }

    /// A minimal clean SMC/CLI point — the base most tests and examples
    /// tweak a field or two on.
    pub fn smoke(kernel: &str, fifo: u64) -> Self {
        RunPoint {
            kernel: kernel.to_string(),
            order: Order::Smc { fifo },
            n: 128,
            ..RunPoint::default()
        }
    }
}

/// One exclusion clause: a point matching *all* of its (parameter, value)
/// pairs is dropped from the grid. Values are validated like axis values,
/// so a `fifo` clause (at least 1) never matches a natural-order point,
/// whose record depth is 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exclude {
    /// The [`PARAMS`] names this clause pins, with the values they must
    /// have.
    pub fields: Vec<(&'static str, Val<'static>)>,
}

impl Exclude {
    /// Whether `point` matches every field of this clause.
    pub fn matches(&self, point: &RunPoint) -> bool {
        self.fields
            .iter()
            .all(|(name, want)| param(name).is_some_and(|p| (p.get)(point) == *want))
    }
}

/// A parsed campaign: a name, the parameter axes, and exclusion filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name, stamped into the results store.
    pub name: String,
    /// The parameter axes.
    pub axes: Axes,
    /// Points matching any clause are dropped from the grid.
    pub exclude: Vec<Exclude>,
}

impl CampaignSpec {
    /// An all-defaults campaign with the given name.
    pub fn named(name: &str) -> Self {
        CampaignSpec {
            name: name.to_string(),
            axes: Axes::default(),
            exclude: Vec::new(),
        }
    }
}

/// Error from parsing a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// JSON path of the offending element (e.g. `$.axes.fifo[2]`).
    pub path: String,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign spec error at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(path: &str, message: impl Into<String>) -> SpecError {
    SpecError {
        path: path.to_string(),
        message: message.into(),
    }
}

fn parse_axes(v: &Value, path: &str) -> Result<Axes, SpecError> {
    let fields = v
        .as_object()
        .ok_or_else(|| err(path, "expected an object of axes"))?;
    let mut axes = Axes::default();
    for (key, value) in fields {
        let param = param(key).ok_or_else(|| {
            let known: Vec<&str> = PARAMS.iter().map(|p| p.name).collect();
            err(
                path,
                format!("unknown axis `{key}` (known: {})", known.join(", ")),
            )
        })?;
        let p = format!("{path}.{key}");
        let list = value
            .as_array()
            .ok_or_else(|| err(&p, "expected an array"))?;
        let values = list
            .iter()
            .enumerate()
            .map(|(i, item)| {
                param
                    .domain
                    .parse(item)
                    .map_err(|m| err(&format!("{p}[{i}]"), m))
            })
            .collect::<Result<Vec<_>, _>>()?;
        (param.set_axis)(&mut axes, &values);
    }
    Ok(axes)
}

fn parse_exclude(v: &Value, path: &str) -> Result<Exclude, SpecError> {
    let fields = v
        .as_object()
        .ok_or_else(|| err(path, "expected an object"))?;
    let mut clause = Exclude::default();
    for (key, value) in fields {
        let param =
            param(key).ok_or_else(|| err(path, format!("unknown exclude field `{key}`")))?;
        let want = param
            .domain
            .parse(value)
            .map_err(|m| err(&format!("{path}.{key}"), m))?;
        clause.fields.push((param.name, want));
    }
    Ok(clause)
}

impl CampaignSpec {
    /// Build a spec from an untyped JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the JSON path of the first element that does
    /// not match the expected shape, including an unknown axis or field
    /// (so typos fail loudly rather than silently running defaults).
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let fields = v
            .as_object()
            .ok_or_else(|| err("$", "expected a campaign object"))?;
        let mut name = None;
        let mut axes = Axes::default();
        let mut exclude = Vec::new();
        let mut schema = None;
        for (key, value) in fields {
            match key.as_str() {
                "schema" => {
                    schema = Some(
                        value
                            .as_u64()
                            .ok_or_else(|| err("$.schema", "expected an unsigned integer"))?,
                    );
                }
                "name" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| err("$.name", "expected a string"))?
                            .to_string(),
                    );
                }
                "description" => {
                    value
                        .as_str()
                        .ok_or_else(|| err("$.description", "expected a string"))?;
                }
                "axes" => axes = parse_axes(value, "$.axes")?,
                "exclude" => {
                    let list = value
                        .as_array()
                        .ok_or_else(|| err("$.exclude", "expected an array"))?;
                    for (i, item) in list.iter().enumerate() {
                        exclude.push(parse_exclude(item, &format!("$.exclude[{i}]"))?);
                    }
                }
                other => return Err(err("$", format!("unknown field `{other}`"))),
            }
        }
        match schema {
            Some(s) if s == crate::SCHEMA_VERSION => {}
            Some(s) => {
                return Err(err(
                    "$.schema",
                    format!(
                        "unsupported schema {s}, this build reads {}",
                        crate::SCHEMA_VERSION
                    ),
                ));
            }
            None => return Err(err("$", "missing field `schema`")),
        }
        Ok(CampaignSpec {
            name: name.ok_or_else(|| err("$", "missing field `name`"))?,
            axes,
            exclude,
        })
    }

    /// Parse a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for malformed JSON or an unexpected shape.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = serde_json::from_str(text).map_err(|e| err("$", e.to_string()))?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_takes_defaults() {
        let spec = CampaignSpec::from_json(r#"{"schema": 1, "name": "t"}"#).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.axes, Axes::default());
        assert!(spec.exclude.is_empty());
    }

    #[test]
    fn axes_and_excludes_parse() {
        let spec = CampaignSpec::from_json(
            r#"{
                "schema": 1,
                "name": "paper",
                "description": "the 4x2x2 matrix",
                "axes": {
                    "kernel": ["copy", "daxpy"],
                    "order": ["smc", "natural"],
                    "memory": ["cli", "pi"],
                    "fifo": [16, 64],
                    "n": [128, 1024],
                    "stride": [1],
                    "alignment": ["staggered", "aligned"],
                    "faults": ["", "nack:50:4"],
                    "fault_seed": [0, 7]
                },
                "exclude": [{"kernel": "copy", "memory": "pi"}, {"fifo": 16, "n": 1024}]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.axes.kernels, ["copy", "daxpy"]);
        assert_eq!(spec.axes.fifos, [16, 64]);
        assert_eq!(spec.exclude.len(), 2);
        assert_eq!(spec.exclude[1].fields[0], ("fifo", Val::U64(16)));
        let hit = RunPoint {
            memory: "pi".into(),
            ..RunPoint::smoke("copy", 64)
        };
        assert!(spec.exclude[0].matches(&hit));
        // Every field of a clause must match.
        assert!(!spec.exclude[0].matches(&RunPoint::smoke("copy", 64)));
    }

    #[test]
    fn errors_carry_json_paths() {
        let e = CampaignSpec::from_json(r#"{"schema": 1}"#).unwrap_err();
        assert!(e.message.contains("name"), "{e}");
        let e = CampaignSpec::from_json(r#"{"name": "t"}"#).unwrap_err();
        assert!(e.message.contains("schema"), "{e}");
        let e = CampaignSpec::from_json(r#"{"schema": 2, "name": "t"}"#).unwrap_err();
        assert_eq!(e.path, "$.schema");
        let e = CampaignSpec::from_json("not json").unwrap_err();
        assert_eq!(e.path, "$");
    }

    #[test]
    fn run_ids_are_stable_across_processes() {
        // The ID is a pure function of the key; pin one value so any
        // accidental change to the key format or hash shows up here.
        let p = RunPoint::smoke("copy", 64);
        assert_eq!(
            p.key(),
            "copy|smc:64|cli|staggered|n=128|stride=1|faults=|fseed=0"
        );
        assert_eq!(p.run_id(), format!("{:016x}", fnv1a64(p.key().as_bytes())));
        assert_eq!(p.run_id().len(), 16);
        // Different seeds with a real fault plan produce different IDs...
        let a = RunPoint {
            faults: "nack:50:4".into(),
            fault_seed: 1,
            ..p.clone()
        };
        let b = RunPoint {
            faults: "nack:50:4".into(),
            fault_seed: 2,
            ..p.clone()
        };
        assert_ne!(a.run_id(), b.run_id());
        // ...and the ID is deterministic run-to-run.
        assert_eq!(a.run_id(), a.run_id());
        // An empty kernel name still yields a well-formed key.
        let blank = RunPoint::smoke("", 64);
        assert!(blank.key().starts_with("|smc:64|"), "{}", blank.key());
    }

    #[test]
    fn exclude_matching_honours_order_and_fifo() {
        let smc = RunPoint::smoke("copy", 64);
        let nat = RunPoint {
            order: Order::Natural,
            ..smc.clone()
        };
        let clause = |json: &str| {
            let text = format!(r#"{{"schema": 1, "name": "t", "exclude": [{json}]}}"#);
            CampaignSpec::from_json(&text).unwrap().exclude.remove(0)
        };
        let by_fifo = clause(r#"{"fifo": 64}"#);
        assert!(by_fifo.matches(&smc));
        assert!(!by_fifo.matches(&nat), "fifo never matches natural order");
        let by_family = clause(r#"{"order": "natural"}"#);
        assert!(by_family.matches(&nat));
        assert!(!by_family.matches(&smc));
    }
}
