//! On-disk trace format: the device configuration a run used, its channel
//! count, and every command the controller issued, as JSON.
//!
//! Writing uses the ordinary `Serialize` derives. Reading is a hand-written
//! walk over the untyped [`serde_json::Value`] tree, because the vendored
//! `serde` stand-in has no typed deserialization — the parser here mirrors
//! the exact shapes the derive-based serializer emits (externally tagged
//! enums: `{"Row": {"Activate": {...}}}`, `{"Col": {"op": ..., ...}}`).

use std::fmt;

use rdram::{ColOp, Command, CommandRecord, DeviceConfig, RowOp, Timing};
use serde::Serialize;
use serde_json::Value;

/// A recorded simulation trace: the device it ran against, its channel
/// count, and the command stream it produced, ready for
/// [`check`](crate::check) one channel at a time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceFile {
    /// Configuration of each channel's device. The checker needs it
    /// because legality depends on geometry and timing.
    pub device: DeviceConfig,
    /// Channels the run spread its banks over. Command banks are global:
    /// channel `c` owns banks `c * device.total_banks()` onwards.
    pub channels: usize,
    /// Every command the controller issued, tagged with its start cycle.
    pub commands: Vec<CommandRecord>,
}

/// Error from parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// JSON path to the element that failed to parse (e.g.
    /// `commands[3].cmd`).
    pub path: String,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(path: &str, message: impl Into<String>) -> ParseError {
    ParseError {
        path: path.to_string(),
        message: message.into(),
    }
}

fn field<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a Value, ParseError> {
    v.get(key)
        .ok_or_else(|| err(path, format!("missing field `{key}`")))
}

fn u64_field(v: &Value, path: &str, key: &str) -> Result<u64, ParseError> {
    field(v, path, key)?
        .as_u64()
        .ok_or_else(|| err(&format!("{path}.{key}"), "expected an unsigned integer"))
}

fn usize_field(v: &Value, path: &str, key: &str) -> Result<usize, ParseError> {
    let n = u64_field(v, path, key)?;
    usize::try_from(n).map_err(|_| err(&format!("{path}.{key}"), "value does not fit in usize"))
}

fn bool_field(v: &Value, path: &str, key: &str) -> Result<bool, ParseError> {
    field(v, path, key)?
        .as_bool()
        .ok_or_else(|| err(&format!("{path}.{key}"), "expected a boolean"))
}

fn parse_timing(v: &Value, path: &str) -> Result<Timing, ParseError> {
    Ok(Timing {
        t_pack: u64_field(v, path, "t_pack")?,
        t_rcd: u64_field(v, path, "t_rcd")?,
        t_rp: u64_field(v, path, "t_rp")?,
        t_cpol: u64_field(v, path, "t_cpol")?,
        t_cac: u64_field(v, path, "t_cac")?,
        t_rac: u64_field(v, path, "t_rac")?,
        t_rc: u64_field(v, path, "t_rc")?,
        t_rr: u64_field(v, path, "t_rr")?,
        t_rdly: u64_field(v, path, "t_rdly")?,
        t_rw: u64_field(v, path, "t_rw")?,
        t_ras: u64_field(v, path, "t_ras")?,
    })
}

fn parse_device(v: &Value, path: &str) -> Result<DeviceConfig, ParseError> {
    Ok(DeviceConfig {
        timing: parse_timing(field(v, path, "timing")?, &format!("{path}.timing"))?,
        devices: usize_field(v, path, "devices")?,
        banks: usize_field(v, path, "banks")?,
        page_bytes: u64_field(v, path, "page_bytes")?,
        rows_per_bank: u64_field(v, path, "rows_per_bank")?,
        double_bank: bool_field(v, path, "double_bank")?,
    })
}

fn parse_col_op(v: &Value, path: &str) -> Result<ColOp, ParseError> {
    if let Some(rd) = v.get("Read") {
        Ok(ColOp::Read {
            bank: usize_field(rd, &format!("{path}.Read"), "bank")?,
            col: u64_field(rd, &format!("{path}.Read"), "col")?,
        })
    } else if let Some(wr) = v.get("Write") {
        Ok(ColOp::Write {
            bank: usize_field(wr, &format!("{path}.Write"), "bank")?,
            col: u64_field(wr, &format!("{path}.Write"), "col")?,
        })
    } else {
        Err(err(path, "expected a `Read` or `Write` column operation"))
    }
}

fn parse_command(v: &Value, path: &str) -> Result<Command, ParseError> {
    if let Some(row) = v.get("Row") {
        let row_path = format!("{path}.Row");
        if let Some(act) = row.get("Activate") {
            let p = format!("{row_path}.Activate");
            Ok(Command::Row(RowOp::Activate {
                bank: usize_field(act, &p, "bank")?,
                row: u64_field(act, &p, "row")?,
            }))
        } else if let Some(pre) = row.get("Precharge") {
            Ok(Command::Row(RowOp::Precharge {
                bank: usize_field(pre, &format!("{row_path}.Precharge"), "bank")?,
            }))
        } else {
            Err(err(&row_path, "expected `Activate` or `Precharge`"))
        }
    } else if let Some(col) = v.get("Col") {
        let col_path = format!("{path}.Col");
        Ok(Command::Col {
            op: parse_col_op(field(col, &col_path, "op")?, &format!("{col_path}.op"))?,
            auto_precharge: bool_field(col, &col_path, "auto_precharge")?,
        })
    } else {
        Err(err(path, "expected a `Row` or `Col` command"))
    }
}

fn parse_record(v: &Value, path: &str) -> Result<CommandRecord, ParseError> {
    Ok(CommandRecord {
        cycle: u64_field(v, path, "cycle")?,
        cmd: parse_command(field(v, path, "cmd")?, &format!("{path}.cmd"))?,
    })
}

impl TraceFile {
    /// Build a trace file from an untyped JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the JSON path of the first element
    /// that does not match the expected shape.
    pub fn from_value(v: &Value) -> Result<Self, ParseError> {
        let device = parse_device(field(v, "$", "device")?, "$.device")?;
        let channels = usize_field(v, "$", "channels")?;
        if channels == 0 {
            return Err(err("$.channels", "a run has at least one channel"));
        }
        let list = field(v, "$", "commands")?
            .as_array()
            .ok_or_else(|| err("$.commands", "expected an array"))?;
        let mut commands = Vec::with_capacity(list.len());
        for (i, rec) in list.iter().enumerate() {
            commands.push(parse_record(rec, &format!("$.commands[{i}]"))?);
        }
        Ok(TraceFile {
            device,
            channels,
            commands,
        })
    }

    /// Render the trace as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

impl std::str::FromStr for TraceFile {
    type Err = ParseError;

    /// Parse a trace file from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for malformed JSON or an unexpected shape.
    fn from_str(s: &str) -> Result<Self, ParseError> {
        let v = serde_json::from_str(s).map_err(|e| err("$", e.to_string()))?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use std::str::FromStr;

    use super::*;

    fn sample() -> TraceFile {
        TraceFile {
            device: DeviceConfig::default(),
            channels: 1,
            commands: vec![
                CommandRecord {
                    cycle: 0,
                    cmd: Command::activate(2, 7),
                },
                CommandRecord {
                    cycle: 12,
                    cmd: Command::read(2, 16).with_auto_precharge(),
                },
                CommandRecord {
                    cycle: 16,
                    cmd: Command::write(3, 0),
                },
                CommandRecord {
                    cycle: 40,
                    cmd: Command::precharge(2),
                },
            ],
        }
    }

    #[test]
    fn serialized_trace_round_trips_through_the_parser() {
        let trace = sample();
        let json = trace.to_json();
        let back = TraceFile::from_str(&json).expect("round trip parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn errors_carry_json_paths() {
        let trace = sample();
        let mangled = trace.to_json().replace("\"cycle\"", "\"cyc\"");
        let e = TraceFile::from_str(&mangled).expect_err("missing field must fail");
        assert!(e.path.starts_with("$.commands[0]"), "{e}");
        assert!(e.message.contains("cycle"), "{e}");

        let e = TraceFile::from_str("{\"device\": {}}").expect_err("empty device");
        assert_eq!(e.path, "$.device");

        let e = TraceFile::from_str("not json").expect_err("garbage");
        assert_eq!(e.path, "$");

        let json = trace.to_json();
        let e = TraceFile::from_str(&json.replace("\"channels\"", "\"lanes\""))
            .expect_err("the channel count is required");
        assert_eq!(
            (e.path.as_str(), e.message.as_str()),
            ("$", "missing field `channels`")
        );
        let e = TraceFile::from_str(&json.replace("\"channels\": 1", "\"channels\": 0"))
            .expect_err("zero channels");
        assert_eq!(e.path, "$.channels");
    }

    #[test]
    fn files_written_with_a_device_trace_flag_still_parse() {
        // Trace files from before the device dropped its packet trace carry
        // a `trace_enabled` flag in the device; the reader ignores it.
        let trace = sample();
        let old = trace.to_json().replace(
            "\"double_bank\": false",
            "\"double_bank\": false,\n    \"trace_enabled\": false",
        );
        assert_ne!(old, trace.to_json(), "the flag was spliced in");
        assert_eq!(TraceFile::from_str(&old).expect("old file parses"), trace);
    }

    #[test]
    fn multi_byte_text_parses_and_a_cut_one_is_refused() {
        // A field the reader ignores, with multi-byte characters mid-string
        // and closing it; cut short after one, the text is no longer JSON.
        let trace = sample();
        let noted = trace.to_json().replacen(
            '{',
            "{\"note\": \"caf\u{e9} \u{2248} 4\u{b5}s \u{1f600}\",",
            1,
        );
        assert_eq!(TraceFile::from_str(&noted).expect("parses"), trace);
        let cut = &noted[..noted.find('\u{1f600}').unwrap() + '\u{1f600}'.len_utf8()];
        assert!(TraceFile::from_str(cut).is_err());
    }

    #[test]
    fn unknown_command_tag_is_rejected() {
        let json =
            r#"{"device": DEVICE, "channels": 1, "commands": [{"cycle": 0, "cmd": {"Nap": {}}}]}"#
                .replace(
                    "DEVICE",
                    &serde_json::to_string(&DeviceConfig::default()).unwrap(),
                );
        let e = TraceFile::from_str(&json).expect_err("unknown tag");
        assert_eq!(e.path, "$.commands[0].cmd");
    }
}
