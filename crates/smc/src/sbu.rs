//! The Stream Buffer Unit: the set of per-stream FIFOs.

use rdram::Cycle;

use crate::stream::PACKET_ELEMS;
use crate::{PacketAccess, StreamDescriptor, StreamFifo};

/// The Stream Buffer Unit (SBU): one FIFO per stream, indexed by the order
/// the streams were programmed.
///
/// Stream data — and only stream data — lives here, keeping the processor's
/// cache unpolluted. The processor sees each FIFO head as a memory-mapped
/// register; the MSU sees the buffers as an addressable staging store.
///
/// The processor side reaches the FIFOs only through the controller's
/// `cpu_read` and `cpu_write`, which keep two counters the controller reads
/// every cycle: the readiness epoch the MSU sleeps on, and the elements
/// moved that its watchdog watches.
#[derive(Debug, Clone)]
pub struct Sbu {
    fifos: Vec<StreamFifo>,
    /// Advances each time a CPU pop or push makes a FIFO ready for its
    /// next memory access.
    epoch: u64,
    /// Elements moved on either side of every FIFO: the sum of each FIFO's
    /// memory-side and CPU-side element counts.
    moved: u64,
}

impl Sbu {
    /// Build the SBU for a computation's streams, all with the same FIFO
    /// depth (in elements).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or `depth < 2` (a FIFO must hold a full
    /// DATA packet).
    pub fn new(streams: Vec<StreamDescriptor>, depth: usize) -> Self {
        assert!(
            !streams.is_empty(),
            "a computation needs at least one stream"
        );
        Sbu {
            fifos: streams
                .into_iter()
                .map(|s| StreamFifo::new(s, depth))
                .collect(),
            epoch: 0,
            moved: 0,
        }
    }

    /// Number of FIFOs (= number of streams).
    pub fn len(&self) -> usize {
        self.fifos.len()
    }

    /// Whether the SBU has no FIFOs (never true for a constructed SBU).
    pub fn is_empty(&self) -> bool {
        self.fifos.is_empty()
    }

    /// Read-only access to FIFO `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fifo(&self, i: usize) -> &StreamFifo {
        &self.fifos[i]
    }

    /// Mutable access to FIFO `i`, for the MSU's side of it. The processor
    /// side goes through [`cpu_pop`](Self::cpu_pop) and
    /// [`cpu_push`](Self::cpu_push), so no CPU-side change bypasses the
    /// readiness epoch.
    pub(crate) fn fifo_mut(&mut self, i: usize) -> &mut StreamFifo {
        &mut self.fifos[i]
    }

    /// Iterate over the FIFOs in stream order.
    pub fn iter(&self) -> std::slice::Iter<'_, StreamFifo> {
        self.fifos.iter()
    }

    /// Every stream has fully moved through its FIFO.
    pub fn all_complete(&self) -> bool {
        self.fifos.iter().all(StreamFifo::complete)
    }

    /// A count that advances each time a [`cpu_pop`](Self::cpu_pop) or
    /// [`cpu_push`](Self::cpu_push) makes a FIFO ready for its next memory
    /// access: a read FIFO gains a packet of room, or a write FIFO buffers
    /// a packet's elements. Processor-side changes reach the MSU only
    /// through readiness, so while the epoch stands still the MSU sees the
    /// same FIFOs.
    pub(crate) fn readiness_epoch(&self) -> u64 {
        self.epoch
    }

    /// Elements moved so far on either side of every FIFO: each FIFO's
    /// [`mem_next_elem`](crate::FifoState::mem_next_elem) plus its
    /// [`cpu_elems`](crate::FifoState::cpu_elems), summed.
    pub(crate) fn moved(&self) -> u64 {
        self.moved
    }

    /// Processor side: dereference the head of read FIFO `i` (see
    /// [`StreamFifo::cpu_pop`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, a write FIFO, or fully consumed.
    pub(crate) fn cpu_pop(&mut self, i: usize, now: Cycle) -> Option<u64> {
        let fifo = &mut self.fifos[i];
        let value = fifo.cpu_pop(now)?;
        self.moved += 1;
        if fifo.on_readiness_edge() {
            self.epoch += 1;
        }
        Some(value)
    }

    /// Processor side: append `value` to write FIFO `i` (see
    /// [`StreamFifo::cpu_push`]). Returns `false` when the FIFO is full.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, a read FIFO, or fully produced.
    pub(crate) fn cpu_push(&mut self, i: usize, value: u64, now: Cycle) -> bool {
        let fifo = &mut self.fifos[i];
        if !fifo.cpu_push(value, now) {
            return false;
        }
        self.moved += 1;
        if fifo.on_readiness_edge() {
            self.epoch += 1;
        }
        true
    }

    /// Memory side: admit FIFO `i`'s next packet access (see
    /// [`StreamFifo::admit_next_packet`]).
    pub(crate) fn admit(
        &mut self,
        i: usize,
        now: Cycle,
    ) -> Option<(PacketAccess, [u64; PACKET_ELEMS])> {
        let admitted = self.fifos[i].admit_next_packet(now)?;
        self.moved += admitted.0.elems;
        Some(admitted)
    }

    /// The first cycle after `now` at which a buffered write element
    /// becomes valid, if any write FIFO holds one not yet valid at `now`.
    pub(crate) fn next_write_valid_at(&self, now: Cycle) -> Option<Cycle> {
        self.fifos.iter().filter_map(|f| f.next_valid_at(now)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sbu() -> Sbu {
        Sbu::new(
            vec![
                StreamDescriptor::read("x", 0, 1, 8),
                StreamDescriptor::read("y", 4096, 1, 8),
                StreamDescriptor::write("z", 8192, 1, 8),
            ],
            16,
        )
    }

    /// Each FIFO's memory-side plus CPU-side element count, summed: what
    /// `Sbu::moved` must equal.
    fn moved_by_sum(s: &Sbu) -> u64 {
        s.iter()
            .map(|f| f.state().mem_next_elem + f.state().cpu_elems)
            .sum()
    }

    #[test]
    fn indexes_fifos_in_program_order() {
        let s = sbu();
        assert_eq!(s.len(), 3);
        assert_eq!(s.fifo(0).descriptor().name, "x");
        assert_eq!(s.fifo(2).descriptor().name, "z");
        assert!(!s.is_empty());
    }

    #[test]
    fn readiness_and_completion() {
        let mut s = sbu();
        assert!(s.fifo(0).ready_for_access(0)); // read FIFOs start empty => ready
        assert!(!s.all_complete());
        // Exhaust both read streams and drain the write stream, the way the
        // MSU does: admit each packet, then deliver a read's data.
        for i in 0..2 {
            for p in 0..4 {
                assert!(s.admit(i, 0).is_some());
                assert!(!s.all_complete(), "read data still in flight");
                s.fifo_mut(i).fulfill_read(&[p * 2, p * 2 + 1], 0);
            }
        }
        assert!(!s.all_complete(), "write stream not drained");
        for e in 0..8 {
            assert!(s.cpu_push(2, e, 0));
        }
        for _ in 0..4 {
            assert!(s.admit(2, 0).is_some());
        }
        assert!(s.all_complete());
        assert_eq!(s.moved(), moved_by_sum(&s));
    }

    #[test]
    fn the_epoch_advances_only_when_the_cpu_makes_a_fifo_ready() {
        // Depth 4: a read FIFO with two packets in it has no room until the
        // CPU pops a whole packet's worth.
        let mut s = Sbu::new(
            vec![
                StreamDescriptor::read("x", 0, 1, 8),
                StreamDescriptor::write("z", 8192, 1, 8),
            ],
            4,
        );
        for p in 0..2 {
            assert!(s.admit(0, 0).is_some());
            s.fifo_mut(0).fulfill_read(&[p * 2, p * 2 + 1], 0);
        }
        assert!(!s.fifo(0).ready_for_access(0));
        assert_eq!(s.cpu_pop(0, 0), Some(0));
        assert_eq!(
            s.readiness_epoch(),
            0,
            "one element of room is not a packet"
        );
        assert_eq!(s.cpu_pop(0, 0), Some(1));
        assert_eq!(s.readiness_epoch(), 1, "a packet of room makes x ready");
        assert!(s.fifo(0).ready_for_access(0));
        assert_eq!(s.cpu_pop(0, 0), Some(2));
        assert_eq!(s.readiness_epoch(), 1, "x was ready already");
        // The write FIFO turns ready when it buffers its packet's two
        // elements, and not again while it stays ready.
        assert!(s.cpu_push(1, 10, 0));
        assert_eq!(s.readiness_epoch(), 1);
        assert!(s.cpu_push(1, 11, 0));
        assert_eq!(s.readiness_epoch(), 2);
        assert!(s.cpu_push(1, 12, 0));
        assert_eq!(s.readiness_epoch(), 2);
        // The MSU's claim is not a CPU-side change; the CPU refilling the
        // next packet is.
        assert!(s.admit(1, 0).is_some());
        assert_eq!(s.readiness_epoch(), 2);
        assert!(s.cpu_push(1, 13, 0));
        assert_eq!(s.readiness_epoch(), 3);
        assert_eq!(s.moved(), moved_by_sum(&s));
    }

    #[test]
    fn writes_pushed_ahead_of_now_report_when_they_become_valid() {
        let mut s = sbu();
        assert_eq!(s.next_write_valid_at(0), None);
        assert!(s.cpu_push(2, 1, 3));
        assert!(s.cpu_push(2, 2, 7));
        assert_eq!(s.next_write_valid_at(0), Some(3));
        assert_eq!(s.next_write_valid_at(3), Some(7));
        assert_eq!(s.next_write_valid_at(7), None);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_sbu_rejected() {
        let _ = Sbu::new(vec![], 8);
    }
}
