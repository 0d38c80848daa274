//! The Stream Buffer Unit: the set of per-stream FIFOs.

use rdram::Cycle;

use crate::{StreamDescriptor, StreamFifo, StreamKind};

/// The Stream Buffer Unit (SBU): one FIFO per stream, indexed by the order
/// the streams were programmed.
///
/// Stream data — and only stream data — lives here, keeping the processor's
/// cache unpolluted. The processor sees each FIFO head as a memory-mapped
/// register; the MSU sees the buffers as an addressable staging store.
#[derive(Debug, Clone)]
pub struct Sbu {
    fifos: Vec<StreamFifo>,
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

    /// Mutable access to FIFO `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fifo_mut(&mut self, i: usize) -> &mut StreamFifo {
        &mut self.fifos[i]
    }

    /// Iterate over the FIFOs in stream order.
    pub fn iter(&self) -> std::slice::Iter<'_, StreamFifo> {
        self.fifos.iter()
    }

    /// Indices of read-stream FIFOs, in order.
    pub fn read_fifos(&self) -> impl Iterator<Item = usize> + '_ {
        self.fifos
            .iter()
            .enumerate()
            .filter(|(_, f)| f.descriptor().kind == StreamKind::Read)
            .map(|(i, _)| i)
    }

    /// Every stream has fully moved through its FIFO.
    pub fn all_complete(&self) -> bool {
        self.fifos.iter().all(StreamFifo::complete)
    }

    /// Whether any FIFO can perform a memory access at `now`.
    pub fn any_ready(&self, now: Cycle) -> bool {
        self.fifos.iter().any(|f| f.ready_for_access(now))
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

    #[test]
    fn indexes_fifos_in_program_order() {
        let s = sbu();
        assert_eq!(s.len(), 3);
        assert_eq!(s.fifo(0).descriptor().name, "x");
        assert_eq!(s.fifo(2).descriptor().name, "z");
        assert!(!s.is_empty());
    }

    #[test]
    fn read_fifos_filters_by_kind() {
        let s = sbu();
        let reads: Vec<usize> = s.read_fifos().collect();
        assert_eq!(reads, vec![0, 1]);
    }

    #[test]
    fn readiness_and_completion() {
        let mut s = sbu();
        assert!(s.any_ready(0)); // read FIFOs start empty => ready
        assert!(!s.all_complete());
        // Exhaust both read streams and drain the write stream, the way the
        // MSU does: admit each packet, then deliver a read's data.
        for i in 0..2 {
            for p in 0..4 {
                assert!(s.fifo_mut(i).admit_next_packet(0).is_some());
                assert!(!s.all_complete(), "read data still in flight");
                s.fifo_mut(i).fulfill_read(&[p * 2, p * 2 + 1], 0);
            }
        }
        assert!(!s.all_complete(), "write stream not drained");
        for e in 0..8 {
            assert!(s.fifo_mut(2).cpu_push(e, 0));
        }
        for _ in 0..4 {
            assert!(s.fifo_mut(2).admit_next_packet(0).is_some());
        }
        assert!(s.all_complete());
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_sbu_rejected() {
        let _ = Sbu::new(vec![], 8);
    }
}
