//! Packet buses: serialized command channels and the turnaround-sensitive
//! DATA bus.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use serde::{Deserialize, Serialize};

use crate::{Cycle, Dir, Interval, Timing};

/// A simple packet bus (ROW or COL command channel).
///
/// One packet occupies the bus at a time; reservations must be issued in
/// non-decreasing order of start cycle (the device is the only driver and
/// schedules monotonically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Bus {
    next_free: Cycle,
    busy_cycles: Cycle,
}

impl Bus {
    /// A bus that is free from cycle 0.
    pub fn new() -> Self {
        Bus::default()
    }

    /// First cycle at which a new packet may start.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Total cycles the bus has carried packets.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Reserve the bus for `packet`.
    ///
    /// # Panics
    ///
    /// Panics if the packet overlaps an earlier reservation; the device only
    /// issues at cycles it has itself validated, so an overlap is a bug.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "busy cycles sum non-overlapping packets, so they never exceed the last packet end"
    )]
    pub fn reserve(&mut self, packet: Interval) {
        assert!(
            packet.start >= self.next_free,
            "bus overlap: packet starts at {} but bus is busy until {}",
            packet.start,
            self.next_free
        );
        self.next_free = packet.end;
        self.busy_cycles += packet.len();
    }
}

/// The DATA bus: a packet bus that also enforces the write-to-read
/// turnaround delay `tRW`.
///
/// Per the paper, switching the bus from write back to read costs
/// `tRW = tPACK + tRDLY` (the retire packet plus the round-trip bus delay);
/// switching from read to write costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DataBus {
    inner: Bus,
    last_dir: Option<Dir>,
    turnarounds: u64,
    read_packets: u64,
    write_packets: u64,
}

impl DataBus {
    /// A data bus that is free from cycle 0.
    pub fn new() -> Self {
        DataBus::default()
    }

    /// First cycle at which a transfer in direction `dir` may start.
    pub fn earliest(&self, dir: Dir, t: &Timing) -> Cycle {
        let free = self.inner.next_free();
        match (self.last_dir, dir) {
            // Write data followed by read data: insert the turnaround gap.
            // `next_free` is the end of the write packet, so the gap is
            // measured from there.
            (Some(Dir::Write), Dir::Read) => free.saturating_add(t.t_rw),
            (Some(Dir::Write), Dir::Write)
            | (Some(Dir::Read), Dir::Read | Dir::Write)
            | (None, Dir::Read | Dir::Write) => free,
        }
    }

    /// Reserve the bus for a transfer in direction `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `packet` starts before [`earliest`](Self::earliest) allows.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "event counters, one increment per issued packet, bounded by the run length"
    )]
    pub fn reserve(&mut self, packet: Interval, dir: Dir, t: &Timing) {
        assert!(
            packet.start >= self.earliest(dir, t),
            "data bus turnaround violation: {dir:?} packet at {} but earliest is {}",
            packet.start,
            self.earliest(dir, t)
        );
        if self.last_dir == Some(Dir::Write) && dir == Dir::Read {
            self.turnarounds += 1;
        }
        match dir {
            Dir::Read => self.read_packets += 1,
            Dir::Write => self.write_packets += 1,
        }
        self.inner.reserve(packet);
        self.last_dir = Some(dir);
    }

    /// First cycle at which any transfer may start, ignoring direction.
    pub fn next_free(&self) -> Cycle {
        self.inner.next_free()
    }

    /// Total cycles the bus has carried data.
    pub fn busy_cycles(&self) -> Cycle {
        self.inner.busy_cycles()
    }

    /// Number of write-to-read direction switches so far.
    pub fn turnarounds(&self) -> u64 {
        self.turnarounds
    }

    /// Number of read DATA packets transferred.
    pub fn read_packets(&self) -> u64 {
        self.read_packets
    }

    /// Number of write DATA packets transferred.
    pub fn write_packets(&self) -> u64 {
        self.write_packets
    }

    /// Direction of the most recent transfer.
    pub fn last_dir(&self) -> Option<Dir> {
        self.last_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timing {
        Timing::default()
    }

    #[test]
    fn bus_serializes_packets() {
        let mut bus = Bus::new();
        bus.reserve(Interval::with_len(0, 4));
        assert_eq!(bus.next_free(), 4);
        bus.reserve(Interval::with_len(10, 4));
        assert_eq!(bus.next_free(), 14);
        assert_eq!(bus.busy_cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "bus overlap")]
    fn bus_rejects_overlap() {
        let mut bus = Bus::new();
        bus.reserve(Interval::with_len(0, 4));
        bus.reserve(Interval::with_len(2, 4));
    }

    #[test]
    fn back_to_back_reads_have_no_gap() {
        let mut d = DataBus::new();
        d.reserve(Interval::with_len(0, 4), Dir::Read, &t());
        assert_eq!(d.earliest(Dir::Read, &t()), 4);
        d.reserve(Interval::with_len(4, 4), Dir::Read, &t());
        assert_eq!(d.turnarounds(), 0);
        assert_eq!(d.read_packets(), 2);
    }

    #[test]
    fn write_to_read_costs_trw() {
        let mut d = DataBus::new();
        d.reserve(Interval::with_len(0, 4), Dir::Write, &t());
        assert_eq!(d.earliest(Dir::Read, &t()), 4 + 6);
        d.reserve(Interval::with_len(10, 4), Dir::Read, &t());
        assert_eq!(d.turnarounds(), 1);
    }

    #[test]
    fn read_to_write_is_free() {
        let mut d = DataBus::new();
        d.reserve(Interval::with_len(0, 4), Dir::Read, &t());
        assert_eq!(d.earliest(Dir::Write, &t()), 4);
        d.reserve(Interval::with_len(4, 4), Dir::Write, &t());
        assert_eq!(d.turnarounds(), 0);
    }

    #[test]
    #[should_panic(expected = "turnaround violation")]
    fn turnaround_violation_panics() {
        let mut d = DataBus::new();
        d.reserve(Interval::with_len(0, 4), Dir::Write, &t());
        d.reserve(Interval::with_len(5, 4), Dir::Read, &t());
    }
}
