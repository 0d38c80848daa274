//! Structured errors for the stream controllers.
//!
//! The hot path of both controllers (the MSU and the natural-order
//! baseline) is panic-free: protocol violations, exhausted DATA retries,
//! and watchdog-detected livelock all surface as [`SmcError`] values that
//! carry enough state to diagnose the failure offline.

use std::fmt;

use serde::Serialize;

use rdram::{Cycle, ProtocolError};

/// Snapshot of controller state at the moment the forward-progress
/// watchdog tripped.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LivelockReport {
    /// Cycle at which the watchdog gave up.
    pub now: Cycle,
    /// Cycles since the last observable progress (command issued or FIFO
    /// element moved).
    pub stalled_for: Cycle,
    /// The last command the controller issued, if any (debug rendering).
    pub last_command: Option<String>,
    /// Cycle of that last command.
    pub last_command_cycle: Cycle,
    /// `(bank, open_row)` for every bank holding an open page.
    pub open_banks: Vec<(usize, u64)>,
    /// Per-FIFO occupancy in elements (empty for the baseline controller,
    /// which has no stream FIFOs).
    pub fifo_occupancy: Vec<usize>,
    /// Accesses in the controller's in-flight window.
    pub in_flight: usize,
    /// Work admitted but not yet in flight (baseline queue depth).
    pub pending: usize,
}

impl fmt::Display for LivelockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no forward progress for {} cycles (at cycle {}; last command {} at {}; \
             {} in flight, {} pending, open banks {:?}, fifo occupancy {:?})",
            self.stalled_for,
            self.now,
            self.last_command.as_deref().unwrap_or("<none>"),
            self.last_command_cycle,
            self.in_flight,
            self.pending,
            self.open_banks,
            self.fifo_occupancy,
        )
    }
}

/// An error escalated out of a stream controller's cycle loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SmcError {
    /// The device rejected a command the controller scheduled.
    Protocol(ProtocolError),
    /// The forward-progress watchdog detected livelock.
    Livelock(Box<LivelockReport>),
    /// A DATA transfer was NACKed more times than the fault plan's retry
    /// budget allows.
    RetryExhausted {
        /// Bank the access targeted.
        bank: usize,
        /// Packet address of the access.
        addr: u64,
        /// Attempts made (initial try plus retries).
        attempts: u32,
    },
    /// An internal scheduling invariant broke mid-run — a controller bug
    /// surfacing as a structured error instead of a panic, so a serving
    /// layer above can fail one request rather than the whole process.
    Internal(&'static str),
}

impl fmt::Display for SmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmcError::Protocol(e) => write!(f, "device rejected a scheduled command: {e}"),
            SmcError::Livelock(r) => write!(f, "livelock: {r}"),
            SmcError::RetryExhausted {
                bank,
                addr,
                attempts,
            } => write!(
                f,
                "DATA transfer to bank {bank} (addr {addr:#x}) NACKed on all {attempts} attempts"
            ),
            SmcError::Internal(what) => {
                write!(f, "internal controller invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for SmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmcError::Protocol(e) => Some(e),
            SmcError::Livelock(_) | SmcError::RetryExhausted { .. } | SmcError::Internal(_) => None,
        }
    }
}

impl From<ProtocolError> for SmcError {
    fn from(e: ProtocolError) -> Self {
        SmcError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let report = LivelockReport {
            now: 60_000,
            stalled_for: 50_000,
            last_command: Some("Activate { bank: 3, row: 7 }".into()),
            last_command_cycle: 10_000,
            open_banks: vec![(3, 7)],
            fifo_occupancy: vec![4, 0],
            in_flight: 2,
            pending: 0,
        };
        let e = SmcError::Livelock(Box::new(report));
        let msg = e.to_string();
        assert!(msg.contains("50000 cycles"), "{msg}");
        assert!(msg.contains("Activate"), "{msg}");

        let e = SmcError::RetryExhausted {
            bank: 5,
            addr: 0x1000,
            attempts: 4,
        };
        assert!(e.to_string().contains("bank 5"), "{e}");

        let proto = rdram::ProtocolError::BankClosed { bank: 2 };
        let e: SmcError = proto.clone().into();
        assert_eq!(e, SmcError::Protocol(proto));
    }
}
