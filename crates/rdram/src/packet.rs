//! Command packets and bus intervals.
//!
//! All communication with a Direct RDRAM happens in 4-cycle packets on three
//! independent buses: ROW commands (activate / precharge), COL commands
//! (read / write / retire), and DATA.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use serde::{Deserialize, Serialize};

use crate::Cycle;

/// Direction of a DATA-bus transfer, from the controller's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// Memory-to-controller (a read).
    Read,
    /// Controller-to-memory (a write).
    Write,
}

impl Dir {
    /// The opposite direction.
    pub fn flipped(self) -> Dir {
        match self {
            Dir::Read => Dir::Write,
            Dir::Write => Dir::Read,
        }
    }
}

/// A half-open interval of interface-clock cycles `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// First cycle of the interval.
    pub start: Cycle,
    /// One past the last cycle of the interval.
    pub end: Cycle,
}

impl Interval {
    /// Create an interval from a start cycle and a length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero (empty bus reservations are always a bug).
    pub fn with_len(start: Cycle, len: Cycle) -> Self {
        assert!(len > 0, "bus reservations must be non-empty");
        Interval {
            start,
            end: start.saturating_add(len),
        }
    }

    /// Number of cycles covered.
    pub fn len(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }

    /// Whether the interval covers no cycles.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether two intervals share at least one cycle.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Operations carried by ROW command packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOp {
    /// Open `row` in `bank`: move the row's cells into the bank's sense amps.
    Activate {
        /// Target bank index.
        bank: usize,
        /// Row (DRAM page) index within the bank.
        row: u64,
    },
    /// Close the open row in `bank` and begin precharging its sense amps.
    Precharge {
        /// Target bank index.
        bank: usize,
    },
}

/// Operations carried by COL command packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColOp {
    /// Transfer one DATA packet from the sense amps to the bus.
    Read {
        /// Target bank index.
        bank: usize,
        /// Byte offset of the packet within the open row.
        col: u64,
    },
    /// Transfer one DATA packet from the bus into the device write buffer.
    Write {
        /// Target bank index.
        bank: usize,
        /// Byte offset of the packet within the open row.
        col: u64,
    },
}

impl ColOp {
    /// The bank this column operation targets.
    pub fn bank(&self) -> usize {
        match *self {
            ColOp::Read { bank, .. } | ColOp::Write { bank, .. } => bank,
        }
    }

    /// The byte offset within the open row.
    pub fn col(&self) -> u64 {
        match *self {
            ColOp::Read { col, .. } | ColOp::Write { col, .. } => col,
        }
    }

    /// DATA-bus direction of this operation.
    pub fn dir(&self) -> Dir {
        match self {
            ColOp::Read { .. } => Dir::Read,
            ColOp::Write { .. } => Dir::Write,
        }
    }
}

/// A command a memory controller can issue to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Command {
    /// A ROW command packet.
    Row(RowOp),
    /// A COL command packet. When `auto_precharge` is set the device closes
    /// the page after the access via the COLX/PREX field, without occupying
    /// the ROW bus — this implements the closed-page policy and, per the
    /// paper, "can be completely overlapped with other activity".
    Col {
        /// The column operation to perform.
        op: ColOp,
        /// Close the page after this access (closed-page policy).
        auto_precharge: bool,
    },
}

impl Command {
    /// Convenience constructor for a ROW ACT packet.
    pub fn activate(bank: usize, row: u64) -> Self {
        Command::Row(RowOp::Activate { bank, row })
    }

    /// Convenience constructor for a ROW PRER packet.
    pub fn precharge(bank: usize) -> Self {
        Command::Row(RowOp::Precharge { bank })
    }

    /// Convenience constructor for a COL RD packet without auto-precharge.
    pub fn read(bank: usize, col: u64) -> Self {
        Command::Col {
            op: ColOp::Read { bank, col },
            auto_precharge: false,
        }
    }

    /// Convenience constructor for a COL WR packet without auto-precharge.
    pub fn write(bank: usize, col: u64) -> Self {
        Command::Col {
            op: ColOp::Write { bank, col },
            auto_precharge: false,
        }
    }

    /// The bank the command targets.
    pub fn bank(&self) -> usize {
        match self {
            Command::Row(RowOp::Activate { bank, .. })
            | Command::Row(RowOp::Precharge { bank }) => *bank,
            Command::Col { op, .. } => op.bank(),
        }
    }

    /// Set the auto-precharge flag on a COL command.
    ///
    /// # Panics
    ///
    /// Panics if the command is a ROW command, which has no such flag.
    pub fn with_auto_precharge(self) -> Self {
        match self {
            Command::Col { op, .. } => Command::Col {
                op,
                auto_precharge: true,
            },
            #[expect(
                clippy::panic,
                reason = "API misuse guard, documented under `# Panics`"
            )]
            Command::Row(_) => panic!("auto-precharge applies only to COL commands"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_overlap() {
        let a = Interval::with_len(0, 4);
        let b = Interval::with_len(3, 4);
        let c = Interval::with_len(4, 4);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_panics() {
        let _ = Interval::with_len(5, 0);
    }

    #[test]
    fn command_accessors() {
        let act = Command::activate(3, 7);
        assert_eq!(act.bank(), 3);
        let rd = Command::read(1, 64);
        assert_eq!(rd.bank(), 1);
        if let Command::Col { op, auto_precharge } = rd {
            assert_eq!(op.dir(), Dir::Read);
            assert_eq!(op.col(), 64);
            assert!(!auto_precharge);
        } else {
            panic!("read must be a COL command");
        }
        let rd_ap = rd.with_auto_precharge();
        if let Command::Col { auto_precharge, .. } = rd_ap {
            assert!(auto_precharge);
        }
    }

    #[test]
    #[should_panic(expected = "auto-precharge")]
    fn auto_precharge_on_row_panics() {
        let _ = Command::activate(0, 0).with_auto_precharge();
    }

    #[test]
    fn dir_flips() {
        assert_eq!(Dir::Read.flipped(), Dir::Write);
        assert_eq!(Dir::Write.flipped(), Dir::Read);
    }
}
