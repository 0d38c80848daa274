//! Schema-versioned JSONL results store.
//!
//! A store is one header line followed by one flat record per run:
//!
//! ```text
//! {"schema":1,"kind":"campaign-results","campaign":"smoke","runs":2}
//! {"run_id":"..","kernel":"copy",..,"status":"ok","cycles":1234,..}
//! {"run_id":"..","kernel":"daxpy",..,"status":"error","error":".."}
//! ```
//!
//! Serialization builds [`serde_json::Value`] trees field-by-field in a
//! fixed order and renders them compactly, so the bytes of a store are a
//! pure function of its records — the property the byte-stability tests
//! and golden-file diffs rely on. All quantities are integers; bandwidth
//! is carried as milli-percent of peak (`98250` = 98.250%).

use std::fmt;

use serde_json::Value;

use crate::params::{written, Group, RunStats, PARAMS, STATS};
use crate::spec::RunPoint;

/// How one run ended: statistics, or a structured error message.
///
/// The `Ok` variant inlines the full (and growing) stats block rather
/// than boxing it: records live in a flat `Vec` that is written out and
/// dropped, so the size asymmetry against `Error` never multiplies.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The run completed; here are its numbers.
    Ok(RunStats),
    /// The run failed (rendered `SimError`, spec problem, or worker
    /// loss); the campaign keeps going.
    Error(String),
}

/// One stored run: its deterministic ID, the point that produced it, and
/// the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// [`RunPoint::run_id`] of `point` — stored explicitly so diffs can
    /// match records without re-deriving keys.
    pub run_id: String,
    /// The parameter point.
    pub point: RunPoint,
    /// What happened.
    pub outcome: Outcome,
}

impl RunRecord {
    /// Render this record as one compact JSON line (no trailing newline):
    /// the run ID, every parameter of a written group, the status, then
    /// every counter of a written group (see [`Group::active`]).
    pub fn to_json_line(&self) -> String {
        let p = &self.point;
        let written = written(p);
        let mut fields: Vec<(String, Value)> =
            vec![("run_id".into(), Value::String(self.run_id.clone()))];
        for param in PARAMS.iter().filter(|x| written[x.group as usize]) {
            fields.push((param.name.into(), (param.get)(p).to_json()));
        }
        match &self.outcome {
            Outcome::Ok(stats) => {
                fields.push(("status".into(), Value::String("ok".into())));
                for stat in STATS.iter().filter(|x| written[x.group as usize]) {
                    fields.push((stat.name.into(), Value::UInt((stat.get)(stats))));
                }
            }
            Outcome::Error(message) => {
                fields.push(("status".into(), Value::String("error".into())));
                fields.push(("error".into(), Value::String(message.clone())));
            }
        }
        Value::Object(fields).to_string()
    }

    /// Rebuild a record from a parsed JSON line. Base parameters are
    /// required; a parameter of another group that is absent takes its
    /// default, so stores written before the group existed parse
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`StoreError`] naming the missing or mistyped field, or a stored
    /// `run_id` that is not the ID of the stored point (so any drift in
    /// the key format fails loudly instead of silently un-matching
    /// goldens).
    pub fn from_value(v: &Value, line: usize) -> Result<Self, StoreError> {
        let str_field = |name: &str| -> Result<String, StoreError> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| StoreError::at(line, format!("missing string field `{name}`")))
        };
        let u64_field = |name: &str| -> Result<u64, StoreError> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| StoreError::at(line, format!("missing integer field `{name}`")))
        };
        let mut point = RunPoint::default();
        for param in PARAMS {
            match v.get(param.name) {
                None if param.group != Group::Base => {}
                field => {
                    let value = field.and_then(|f| param.domain.read(f)).ok_or_else(|| {
                        let kind = if param.domain.is_text() {
                            "string"
                        } else {
                            "integer"
                        };
                        StoreError::at(line, format!("missing {kind} field `{}`", param.name))
                    })?;
                    (param.set)(&mut point, &value);
                }
            }
        }
        let written = written(&point);
        let outcome = match str_field("status")?.as_str() {
            "ok" => {
                let mut stats = RunStats::default();
                for stat in STATS.iter().filter(|x| written[x.group as usize]) {
                    (stat.set)(&mut stats, u64_field(stat.name)?);
                }
                Outcome::Ok(stats)
            }
            "error" => Outcome::Error(str_field("error")?),
            other => {
                return Err(StoreError::at(line, format!("unknown status `{other}`")));
            }
        };
        let run_id = str_field("run_id")?;
        if run_id != point.run_id() {
            return Err(StoreError::at(
                line,
                format!(
                    "run_id {run_id} does not match its point (key `{}` hashes to {})",
                    point.key(),
                    point.run_id()
                ),
            ));
        }
        Ok(RunRecord {
            run_id,
            point,
            outcome,
        })
    }
}

/// A complete campaign result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsStore {
    /// Campaign name from the spec.
    pub campaign: String,
    /// One record per deduplicated run, in expansion order.
    pub records: Vec<RunRecord>,
}

impl ResultsStore {
    /// Render the store as JSONL: a header line, then one line per run,
    /// each newline-terminated. Byte-for-byte deterministic for equal
    /// contents.
    pub fn to_jsonl(&self) -> String {
        let header = Value::Object(vec![
            ("schema".into(), Value::UInt(crate::SCHEMA_VERSION)),
            ("kind".into(), Value::String("campaign-results".into())),
            ("campaign".into(), Value::String(self.campaign.clone())),
            ("runs".into(), Value::UInt(self.records.len() as u64)),
        ]);
        let mut out = header.to_string();
        out.push('\n');
        for record in &self.records {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Parse a store back from JSONL text.
    ///
    /// # Errors
    ///
    /// [`StoreError`] for malformed JSON, a wrong/missing header, an
    /// unsupported schema version, or a record count that disagrees with
    /// the header.
    pub fn from_jsonl(text: &str) -> Result<Self, StoreError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header_text) = lines
            .next()
            .ok_or_else(|| StoreError::at(1, "empty store"))?;
        let header =
            serde_json::from_str(header_text).map_err(|e| StoreError::at(1, e.to_string()))?;
        match header.get("schema").and_then(Value::as_u64) {
            Some(s) if s == crate::SCHEMA_VERSION => {}
            Some(s) => {
                return Err(StoreError::at(
                    1,
                    format!(
                        "unsupported schema {s}, this build reads {}",
                        crate::SCHEMA_VERSION
                    ),
                ));
            }
            None => return Err(StoreError::at(1, "missing header field `schema`")),
        }
        if header.get("kind").and_then(Value::as_str) != Some("campaign-results") {
            return Err(StoreError::at(
                1,
                "not a campaign results store (missing kind)",
            ));
        }
        let campaign = header
            .get("campaign")
            .and_then(Value::as_str)
            .ok_or_else(|| StoreError::at(1, "missing header field `campaign`"))?
            .to_string();
        let declared = header
            .get("runs")
            .and_then(Value::as_u64)
            .ok_or_else(|| StoreError::at(1, "missing header field `runs`"))?;
        let mut records = Vec::new();
        for (idx, line) in lines {
            let v =
                serde_json::from_str(line).map_err(|e| StoreError::at(idx + 1, e.to_string()))?;
            records.push(RunRecord::from_value(&v, idx + 1)?);
        }
        if records.len() as u64 != declared {
            return Err(StoreError::at(
                1,
                format!(
                    "header declares {declared} runs, store has {}",
                    records.len()
                ),
            ));
        }
        Ok(ResultsStore { campaign, records })
    }

    /// Look up a record by run ID.
    pub fn find(&self, run_id: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.run_id == run_id)
    }

    /// Number of records whose outcome is [`Outcome::Ok`].
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ok(_)))
            .count()
    }

    /// Number of records whose outcome is [`Outcome::Error`].
    pub fn errored(&self) -> usize {
        self.records.len() - self.completed()
    }
}

/// Error from reading a results store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// 1-based line number in the JSONL text.
    pub line: usize,
    /// What was wrong there.
    pub message: String,
}

impl StoreError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        StoreError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "results store line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StoreError {}

/// Format a milli-percent value as a fixed three-decimal percentage
/// (`98250` → `"98.250"`) using integer arithmetic only.
pub fn milli_percent(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ResultsStore {
        let ok_point = RunPoint::smoke("copy", 64);
        let err_point = RunPoint {
            faults: "nack:900:1".into(),
            fault_seed: 3,
            ..RunPoint::smoke("daxpy", 16)
        };
        ResultsStore {
            campaign: "unit".into(),
            records: vec![
                RunRecord {
                    run_id: ok_point.run_id(),
                    point: ok_point,
                    outcome: Outcome::Ok(RunStats {
                        cycles: 1234,
                        percent_peak_milli: 98_250,
                        useful_words: 512,
                        activates: 9,
                        data_nacks: 2,
                        ..RunStats::default()
                    }),
                },
                RunRecord {
                    run_id: err_point.run_id(),
                    point: err_point,
                    outcome: Outcome::Error("retry budget exhausted \"mid-burst\"".into()),
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let store = sample_store();
        let text = store.to_jsonl();
        let back = ResultsStore::from_jsonl(&text).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.completed(), 1);
        assert_eq!(back.errored(), 1);
        assert!(back.find(&store.records[0].run_id).is_some());
        assert!(back.find("0000000000000000").is_none());
    }

    #[test]
    fn header_is_validated() {
        let e = ResultsStore::from_jsonl("").unwrap_err();
        assert!(e.message.contains("empty"), "{e}");
        let e = ResultsStore::from_jsonl(
            "{\"schema\":99,\"kind\":\"campaign-results\",\"campaign\":\"x\",\"runs\":0}\n",
        )
        .unwrap_err();
        assert!(e.message.contains("unsupported schema"), "{e}");
        let e =
            ResultsStore::from_jsonl("{\"schema\":1,\"campaign\":\"x\",\"runs\":0}\n").unwrap_err();
        assert!(e.message.contains("kind"), "{e}");
        let e = ResultsStore::from_jsonl(
            "{\"schema\":1,\"kind\":\"campaign-results\",\"campaign\":\"x\",\"runs\":5}\n",
        )
        .unwrap_err();
        assert!(e.message.contains("declares 5"), "{e}");
    }

    #[test]
    fn record_errors_carry_line_numbers() {
        let store = sample_store();
        let mut text = store.to_jsonl();
        text.push_str("{\"run_id\":\"zz\"}\n");
        let e = ResultsStore::from_jsonl(&text).unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn milli_percent_formats_fixed_point() {
        assert_eq!(milli_percent(98_250), "98.250");
        assert_eq!(milli_percent(100_000), "100.000");
        assert_eq!(milli_percent(7), "0.007");
        assert_eq!(milli_percent(0), "0.000");
    }
}
