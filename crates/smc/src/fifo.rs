//! Per-stream FIFO buffers.
//!
//! Each stream maps to exactly one FIFO. For read-streams the MSU fills the
//! FIFO from memory and the processor dereferences the head; for
//! write-streams the processor pushes results and the MSU drains them to
//! memory. Entries become visible only when their DATA packet has actually
//! arrived, so FIFO timing reflects the memory system, not an oracle.

use std::collections::VecDeque;

use rdram::Cycle;

use crate::stream::PACKET_ELEMS;
use crate::{PacketAccess, StreamDescriptor, StreamKind};

#[derive(Debug, Clone, Copy)]
struct Slot {
    value: u64,
    ready_at: Cycle,
}

/// Summary of a FIFO's state, for diagnostics and scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FifoState {
    /// Elements currently buffered (including in-flight reservations).
    pub occupancy: usize,
    /// Capacity in elements.
    pub depth: usize,
    /// Next element index the memory side will transfer.
    pub mem_next_elem: u64,
    /// Number of elements the CPU side has consumed (reads) or produced
    /// (writes).
    pub cpu_elems: u64,
}

/// One stream FIFO of the Stream Buffer Unit.
///
/// The FIFO tracks both sides of the transfer:
///
/// * the **memory side** — which elements the MSU has already issued
///   accesses for ([`mem_next_elem`](FifoState::mem_next_elem)), and
/// * the **CPU side** — the memory-mapped head register the processor
///   dereferences.
///
/// Read-FIFO slots are *reserved* when the MSU issues the access and become
/// CPU-visible when the DATA packet lands; this models the real SBU, where
/// in-flight requests occupy buffer space.
#[derive(Debug, Clone)]
pub struct StreamFifo {
    descriptor: StreamDescriptor,
    depth: usize,
    slots: VecDeque<Slot>,
    mem_next_elem: u64,
    cpu_elems: u64,
    /// Read elements admitted to the MSU pipeline but not yet fetched; they
    /// occupy buffer space so the pipeline cannot over-commit.
    reserved: usize,
}

impl StreamFifo {
    /// Create a FIFO of `depth` elements for `descriptor`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or smaller than one packet's worth of
    /// elements would make progress impossible (depth must be >= 2 for
    /// unit-stride streams to accept a full packet).
    pub fn new(descriptor: StreamDescriptor, depth: usize) -> Self {
        assert!(
            depth >= 2,
            "FIFO depth must hold at least one full packet (2 elements)"
        );
        StreamFifo {
            descriptor,
            depth,
            slots: VecDeque::with_capacity(depth),
            mem_next_elem: 0,
            cpu_elems: 0,
            reserved: 0,
        }
    }

    /// The stream this FIFO serves.
    pub fn descriptor(&self) -> &StreamDescriptor {
        &self.descriptor
    }

    /// FIFO capacity in elements.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Snapshot of current state.
    pub fn state(&self) -> FifoState {
        FifoState {
            occupancy: self.slots.len() + self.reserved,
            depth: self.depth,
            mem_next_elem: self.mem_next_elem,
            cpu_elems: self.cpu_elems,
        }
    }

    /// The next packet access the memory side must perform, or `None` when
    /// the stream is exhausted.
    pub fn next_packet(&self) -> Option<PacketAccess> {
        if self.mem_next_elem >= self.descriptor.length {
            return None;
        }
        Some(self.descriptor.packet_at(self.mem_next_elem))
    }

    /// Whether every element has been issued to / drained from memory.
    pub fn mem_exhausted(&self) -> bool {
        self.mem_next_elem >= self.descriptor.length
    }

    /// Whether the FIFO can perform its next memory access at `now`:
    /// a read-FIFO needs space for the packet's elements (counting
    /// in-flight reservations); a write-FIFO needs the CPU to have produced
    /// them.
    pub fn ready_for_access(&self, now: Cycle) -> bool {
        let Some(pkt) = self.next_packet() else {
            return false;
        };
        match self.descriptor.kind {
            StreamKind::Read => self.slots.len() + self.reserved + pkt.elems as usize <= self.depth,
            StreamKind::Write => self.available(now) >= pkt.elems as usize,
        }
    }

    /// Whether the FIFO sits exactly on the edge of readiness for its next
    /// memory access: a read FIFO with exactly one packet of room, or a
    /// write FIFO holding exactly that packet's elements. A CPU pop or push
    /// moves the FIFO by one element, so it lands here exactly when it
    /// makes the FIFO ready (a write's elements may still become valid
    /// later; see [`next_valid_at`](Self::next_valid_at)).
    pub(crate) fn on_readiness_edge(&self) -> bool {
        let fits = |elems: usize| {
            self.next_packet()
                .is_some_and(|pkt| pkt.elems as usize == elems)
        };
        match self.descriptor.kind {
            StreamKind::Read => {
                let room = self.depth.saturating_sub(self.slots.len() + self.reserved);
                room <= PACKET_ELEMS && fits(room)
            }
            StreamKind::Write => self.slots.len() <= PACKET_ELEMS && fits(self.slots.len()),
        }
    }

    /// For a write-stream, the cycle at which its oldest buffered element
    /// not yet valid at `now` becomes valid; `None` when every buffered
    /// element is valid, and always for a read-stream.
    pub(crate) fn next_valid_at(&self, now: Cycle) -> Option<Cycle> {
        match self.descriptor.kind {
            StreamKind::Read => None,
            StreamKind::Write => self.slots.get(self.available(now)).map(|s| s.ready_at),
        }
    }

    /// Memory side: admit the next packet access into the MSU pipeline.
    /// For read-streams the elements are *reserved* (they occupy space until
    /// [`fulfill_read`](Self::fulfill_read) delivers them); for
    /// write-streams the values are claimed immediately and returned in the
    /// first [`elems`](PacketAccess::elems) words of the array. Every other
    /// word, and every word of a read packet, is zero.
    ///
    /// Returns `None` when the FIFO is not
    /// [`ready_for_access`](Self::ready_for_access) at `now`, leaving the
    /// FIFO untouched — the MSU treats that as "nothing to admit this
    /// cycle" rather than a fatal condition.
    pub fn admit_next_packet(&mut self, now: Cycle) -> Option<(PacketAccess, [u64; PACKET_ELEMS])> {
        if !self.ready_for_access(now) {
            return None;
        }
        let pkt = self.next_packet()?;
        let mut values = [0; PACKET_ELEMS];
        match self.descriptor.kind {
            StreamKind::Read => self.reserved += pkt.elems as usize,
            StreamKind::Write => {
                // Readiness implies `pkt.elems` claimable slots; re-check
                // before popping so the claim stays transactional even if
                // that invariant ever breaks.
                if self.slots.len() < pkt.elems as usize {
                    return None;
                }
                for v in values.iter_mut().take(pkt.elems as usize) {
                    if let Some(slot) = self.slots.pop_front() {
                        *v = slot.value;
                    }
                }
            }
        }
        self.mem_next_elem += pkt.elems;
        Some((pkt, values))
    }

    /// Memory side: deliver the data for a previously admitted read packet,
    /// visible to the CPU at `ready_at`.
    ///
    /// # Panics
    ///
    /// Panics if more elements are delivered than were reserved, or on a
    /// write-FIFO.
    pub fn fulfill_read(&mut self, values: &[u64], ready_at: Cycle) {
        assert_eq!(
            self.descriptor.kind,
            StreamKind::Read,
            "fulfill_read on a write FIFO"
        );
        assert!(
            values.len() <= self.reserved,
            "fulfilling {} elements with only {} reserved",
            values.len(),
            self.reserved
        );
        self.reserved -= values.len();
        for &v in values {
            self.slots.push_back(Slot { value: v, ready_at });
        }
    }

    /// Number of buffered elements of a write-stream whose data is valid
    /// at `now`. The CPU pushes write slots in cycle order, so the valid
    /// ones form a prefix: all of them when the newest is valid, else a
    /// binary search finds its end.
    fn available(&self, now: Cycle) -> usize {
        if self.slots.back().is_none_or(|s| s.ready_at <= now) {
            return self.slots.len();
        }
        self.slots.partition_point(|s| s.ready_at <= now)
    }

    /// CPU side: dereference the FIFO head of a read-stream. Returns `None`
    /// if the head element has not arrived yet (the processor stalls).
    ///
    /// # Panics
    ///
    /// Panics if called on a write-FIFO or after the whole stream has been
    /// consumed.
    pub fn cpu_pop(&mut self, now: Cycle) -> Option<u64> {
        assert_eq!(
            self.descriptor.kind,
            StreamKind::Read,
            "cpu_pop on a write FIFO"
        );
        assert!(
            self.cpu_elems < self.descriptor.length,
            "stream {} fully consumed",
            self.descriptor.name
        );
        match self.slots.front() {
            Some(slot) if slot.ready_at <= now => {
                let v = slot.value;
                self.slots.pop_front();
                self.cpu_elems += 1;
                Some(v)
            }
            _ => None,
        }
    }

    /// CPU side: write the next element of a write-stream. Returns `false`
    /// if the FIFO is full (the processor stalls). Successive pushes must
    /// not go back in time: `now` never decreases between calls.
    ///
    /// # Panics
    ///
    /// Panics if called on a read-FIFO or past the end of the stream.
    pub fn cpu_push(&mut self, value: u64, now: Cycle) -> bool {
        assert_eq!(
            self.descriptor.kind,
            StreamKind::Write,
            "cpu_push on a read FIFO"
        );
        assert!(
            self.cpu_elems < self.descriptor.length,
            "stream {} fully produced",
            self.descriptor.name
        );
        if self.slots.len() >= self.depth {
            return false;
        }
        debug_assert!(
            self.slots.back().is_none_or(|s| s.ready_at <= now),
            "write slots must be pushed in cycle order"
        );
        self.slots.push_back(Slot {
            value,
            ready_at: now,
        });
        self.cpu_elems += 1;
        true
    }

    /// Whether nothing remains buffered (all data delivered or drained).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The whole stream has moved through the FIFO: memory side exhausted
    /// (with no reservations still in flight) and, for write-streams, every
    /// element drained to memory.
    pub fn complete(&self) -> bool {
        match self.descriptor.kind {
            StreamKind::Read => self.mem_exhausted() && self.reserved == 0,
            StreamKind::Write => self.mem_exhausted() && self.slots.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamDescriptor;

    fn read_fifo(depth: usize) -> StreamFifo {
        StreamFifo::new(StreamDescriptor::read("x", 0, 1, 8), depth)
    }

    fn write_fifo(depth: usize) -> StreamFifo {
        StreamFifo::new(StreamDescriptor::write("z", 0, 1, 8), depth)
    }

    /// The MSU's read path for one packet: admit it, then deliver `values`
    /// at `ready_at`.
    fn fetch(f: &mut StreamFifo, values: &[u64], ready_at: Cycle) {
        let (pkt, _) = f.admit_next_packet(0).expect("read FIFO has room");
        assert_eq!(pkt.elems as usize, values.len());
        f.fulfill_read(values, ready_at);
    }

    #[test]
    fn read_fifo_reserves_space_at_issue() {
        let mut f = read_fifo(4);
        assert!(f.ready_for_access(0));
        fetch(&mut f, &[1, 2], 50);
        fetch(&mut f, &[3, 4], 54);
        // Full: occupancy 4 of 4, even though no data has arrived yet.
        assert!(!f.ready_for_access(0));
        assert_eq!(f.state().occupancy, 4);
        assert_eq!(f.state().mem_next_elem, 4);
        // A full read FIFO admits nothing more: it cannot overflow.
        assert!(f.admit_next_packet(0).is_none());
        assert_eq!(f.state().occupancy, 4, "a refused admit is a no-op");
        assert_eq!(f.state().mem_next_elem, 4);
    }

    #[test]
    fn cpu_sees_data_only_after_arrival() {
        let mut f = read_fifo(4);
        fetch(&mut f, &[7, 8], 50);
        assert_eq!(f.cpu_pop(49), None);
        assert_eq!(f.cpu_pop(50), Some(7));
        assert_eq!(f.cpu_pop(50), Some(8));
        assert_eq!(f.cpu_pop(50), None); // nothing buffered
    }

    #[test]
    fn popping_frees_space_for_more_prefetch() {
        let mut f = read_fifo(4);
        fetch(&mut f, &[1, 2], 10);
        fetch(&mut f, &[3, 4], 14);
        assert!(!f.ready_for_access(20));
        assert_eq!(f.cpu_pop(20), Some(1));
        assert_eq!(f.cpu_pop(20), Some(2));
        assert!(f.ready_for_access(20));
    }

    #[test]
    fn write_fifo_gates_on_produced_elements() {
        let mut f = write_fifo(4);
        // Next packet needs 2 elements; none produced yet.
        assert!(!f.ready_for_access(0));
        assert!(f.cpu_push(11, 0));
        assert!(!f.ready_for_access(0));
        assert!(f.cpu_push(22, 1));
        // The second element is only valid from cycle 1 on.
        assert!(!f.ready_for_access(0));
        assert!(f.admit_next_packet(0).is_none());
        assert!(f.ready_for_access(1));
        let (pkt, vals) = f.admit_next_packet(1).unwrap();
        assert_eq!(pkt.elems, 2);
        assert_eq!(vals, [11, 22]);
        assert_eq!(f.state().mem_next_elem, 2);
    }

    #[test]
    fn write_readiness_matches_a_linear_count_of_valid_slots() {
        let mut f = StreamFifo::new(StreamDescriptor::write("z", 0, 1, 64), 16);
        for (value, at) in [(1, 0), (2, 3), (3, 3), (4, 3), (5, 7), (6, 12)] {
            assert!(f.cpu_push(value, at));
        }
        for now in 0..16 {
            let linear = f.slots.iter().take_while(|s| s.ready_at <= now).count();
            assert_eq!(f.available(now), linear, "cycle {now}");
            assert_eq!(f.ready_for_access(now), linear >= 2, "cycle {now}");
        }
        // Claiming a packet drops the two oldest slots; the rest still
        // agree with the linear count.
        let (_, vals) = f.admit_next_packet(3).unwrap();
        assert_eq!(vals, [1, 2]);
        for now in 0..16 {
            let linear = f.slots.iter().take_while(|s| s.ready_at <= now).count();
            assert_eq!(f.available(now), linear, "cycle {now}");
        }
    }

    #[test]
    fn write_fifo_full_blocks_cpu() {
        let mut f = write_fifo(2);
        assert!(f.cpu_push(1, 0));
        assert!(f.cpu_push(2, 0));
        assert!(!f.cpu_push(3, 0));
        assert!(f.admit_next_packet(0).is_some());
        assert!(f.cpu_push(3, 0));
    }

    #[test]
    fn completion_semantics() {
        let mut r = read_fifo(8);
        for i in 0..4 {
            fetch(&mut r, &[i * 2, i * 2 + 1], 0);
        }
        assert!(r.mem_exhausted());
        assert!(r.complete()); // reads complete once fetched
        assert!(r.next_packet().is_none());

        let mut w = write_fifo(8);
        for i in 0..8 {
            assert!(w.cpu_push(i, 0));
        }
        assert!(!w.complete());
        for _ in 0..4 {
            assert!(w.admit_next_packet(0).is_some());
        }
        assert!(w.complete());
        assert!(w.is_empty());
    }

    #[test]
    fn reservations_hold_space_until_fulfilled() {
        let mut f = read_fifo(4);
        let (pkt, vals) = f.admit_next_packet(0).unwrap();
        assert_eq!(pkt.elems, 2);
        assert_eq!(vals, [0, 0], "a read admit claims no values");
        assert_eq!(f.state().occupancy, 2);
        assert_eq!(f.state().mem_next_elem, 2);
        let (pkt2, _) = f.admit_next_packet(0).unwrap();
        assert_eq!(pkt2.first_elem, 2);
        // Full by reservation alone.
        assert!(!f.ready_for_access(0));
        assert!(!f.complete());
        f.fulfill_read(&[5, 6], 40);
        f.fulfill_read(&[7, 8], 44);
        assert_eq!(f.cpu_pop(44), Some(5));
        assert_eq!(f.cpu_pop(44), Some(6));
        assert!(f.ready_for_access(44)); // one packet of space again
    }

    #[test]
    fn write_admission_claims_values() {
        let mut f = write_fifo(4);
        assert!(f.cpu_push(9, 0));
        assert!(f.cpu_push(10, 0));
        let (pkt, vals) = f.admit_next_packet(0).unwrap();
        assert_eq!(pkt.elems, 2);
        assert_eq!(vals, [9, 10]);
        assert!(f.is_empty());
    }

    #[test]
    fn single_element_write_packet_fills_one_word() {
        // Stride 4: one element per packet.
        let mut f = StreamFifo::new(StreamDescriptor::write("z", 0, 4, 8), 4);
        assert!(f.cpu_push(42, 0));
        let (pkt, vals) = f.admit_next_packet(0).unwrap();
        assert_eq!(pkt.elems, 1);
        assert_eq!(vals, [42, 0]);
    }

    #[test]
    fn admission_requires_readiness() {
        let mut f = write_fifo(4);
        assert!(
            f.admit_next_packet(0).is_none(),
            "unready FIFO admits nothing"
        );
        assert_eq!(f.state().mem_next_elem, 0, "a refused admit is a no-op");
        // One produced element is still short of a packet: a visible stall.
        assert!(f.cpu_push(1, 0));
        assert!(f.admit_next_packet(0).is_none(), "underflow is a stall");
        assert_eq!(f.state().occupancy, 1, "a refused admit is a no-op");
        assert_eq!(f.state().mem_next_elem, 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn overfulfilling_panics() {
        let mut f = read_fifo(8);
        let _ = f.admit_next_packet(0).unwrap();
        f.fulfill_read(&[1, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "fulfill_read on a write FIFO")]
    fn write_fifo_refuses_read_data() {
        let mut f = write_fifo(4);
        f.fulfill_read(&[1, 2], 0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn tiny_depth_rejected() {
        let _ = read_fifo(1);
    }
}
