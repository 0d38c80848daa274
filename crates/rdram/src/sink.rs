//! The record of one issued command.
//!
//! A [`CommandRecord`] records the *command itself*, so external tools —
//! the `checker` crate's timing-conformance analyzer, the `telemetry`
//! crate's timeline replay and its timing-diagram renderer — can replay and
//! audit the schedule. The `memsys` crate's memory system keeps one per
//! accepted command, so MSU-scheduled, baseline, speculative, and refresh
//! commands are all recorded in one place.

use serde::{Deserialize, Serialize};

use crate::{Command, Cycle};

/// One issued command, stamped with the cycle its packet started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommandRecord {
    /// Cycle at which the command packet began on its bus.
    pub cycle: Cycle,
    /// The command that was issued.
    pub cmd: Command,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_serde() {
        let rec = CommandRecord {
            cycle: 42,
            cmd: Command::write(5, 16).with_auto_precharge(),
        };
        let json = serde_json::to_string(&rec).expect("serializes");
        // The vendored serde deserializes into untyped values only; the
        // typed reader lives in the `checker` crate's trace-file parser.
        let back = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, serde_json::to_value(&rec).expect("to_value"));
        assert_eq!(back["cycle"].as_u64(), Some(42));
    }
}
