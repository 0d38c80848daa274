//! Stream descriptors and the packet-access sequences they generate.
//!
//! A *stream* is a vector access pattern: base address, stride (in 64-bit
//! elements), length (in elements), and direction. The compiler detects
//! streams in the source program and transmits these descriptors to the SMC
//! at run time (the paper cites Benitez & Davidson's access/execute
//! mechanism); here experiments construct them directly.

use serde::{Deserialize, Serialize};

use rdram::{ELEM_BYTES, PACKET_BYTES, WORDS_PER_PACKET};

/// The most stream elements one [`PacketAccess`] carries: a 16-byte DATA
/// packet holds two 64-bit elements.
pub(crate) const PACKET_ELEMS: usize = WORDS_PER_PACKET as usize;

/// Whether the processor reads or writes a stream.
///
/// A read-modify-write vector (like `y` in daxpy) constitutes *two* streams:
/// a read-stream and a write-stream over the same addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// Memory-to-processor.
    Read,
    /// Processor-to-memory.
    Write,
}

/// Description of one stream, as programmed into the SMC.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamDescriptor {
    /// Human-readable stream name (used in traces and reports).
    pub name: String,
    /// Base byte address of element 0. Must be 8-byte aligned.
    pub base: u64,
    /// Stride between consecutive elements, in 64-bit elements (>= 1).
    pub stride: u64,
    /// Number of elements (> 0).
    pub length: u64,
    /// Transfer direction.
    pub kind: StreamKind,
}

impl StreamDescriptor {
    /// Construct a descriptor, validating its invariants.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 8-byte aligned, `stride` is zero, or `length`
    /// is zero. Descriptors are built at experiment setup where invalid
    /// values are programming errors.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        stride: u64,
        length: u64,
        kind: StreamKind,
    ) -> Self {
        assert_eq!(base % ELEM_BYTES, 0, "stream base must be 8-byte aligned");
        assert!(stride >= 1, "stream stride must be at least 1 element");
        assert!(length >= 1, "stream length must be at least 1 element");
        StreamDescriptor {
            name: name.into(),
            base,
            stride,
            length,
            kind,
        }
    }

    /// Convenience constructor for a read-stream.
    pub fn read(name: impl Into<String>, base: u64, stride: u64, length: u64) -> Self {
        Self::new(name, base, stride, length, StreamKind::Read)
    }

    /// Convenience constructor for a write-stream.
    pub fn write(name: impl Into<String>, base: u64, stride: u64, length: u64) -> Self {
        Self::new(name, base, stride, length, StreamKind::Write)
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= length`.
    pub fn element_addr(&self, i: u64) -> u64 {
        assert!(
            i < self.length,
            "element {i} out of range for stream of {}",
            self.length
        );
        self.base + i * self.stride * ELEM_BYTES
    }

    /// Iterator over the DATA-packet accesses needed to transfer the whole
    /// stream, in element order, with adjacent elements coalesced into
    /// shared packets.
    pub fn packets(&self) -> PacketIter<'_> {
        PacketIter {
            stream: self,
            next_elem: 0,
        }
    }

    /// Total number of packet accesses the stream generates.
    pub fn packet_count(&self) -> u64 {
        self.packets().count() as u64
    }

    /// The packet access that transfers element `elem` (coalescing element
    /// `elem + 1` when it shares the packet).
    ///
    /// # Panics
    ///
    /// Panics if `elem >= length`.
    pub fn packet_at(&self, elem: u64) -> PacketAccess {
        let addr = self.element_addr(elem);
        let packet_addr = addr & !(PACKET_BYTES - 1);
        let mut elems = 1;
        if elem + 1 < self.length
            && self.element_addr(elem + 1) & !(PACKET_BYTES - 1) == packet_addr
        {
            elems = 2;
        }
        PacketAccess {
            packet_addr,
            first_elem: elem,
            elems,
        }
    }
}

/// One 16-byte DATA-packet access covering one or two stream elements.
///
/// The Direct RDRAM's smallest addressable datum is a 128-bit packet (two
/// 64-bit elements), so unit-stride streams move two elements per access
/// while larger strides move only one — this is why non-unit strides can
/// exploit at most 50% of peak bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketAccess {
    /// Packet-aligned byte address.
    pub packet_addr: u64,
    /// Index of the first stream element carried.
    pub first_elem: u64,
    /// Number of stream elements carried (1 or 2).
    pub elems: u64,
}

impl PacketAccess {
    /// Indices of the stream elements this access carries.
    pub fn element_range(&self) -> std::ops::Range<u64> {
        self.first_elem..self.first_elem + self.elems
    }
}

/// Iterator over a stream's packet accesses. Created by
/// [`StreamDescriptor::packets`].
#[derive(Debug, Clone)]
pub struct PacketIter<'a> {
    stream: &'a StreamDescriptor,
    next_elem: u64,
}

impl Iterator for PacketIter<'_> {
    type Item = PacketAccess;

    fn next(&mut self) -> Option<PacketAccess> {
        if self.next_elem >= self.stream.length {
            return None;
        }
        let access = self.stream.packet_at(self.next_elem);
        self.next_elem += access.elems;
        Some(access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_coalesces_pairs() {
        let s = StreamDescriptor::read("x", 0, 1, 8);
        let packets: Vec<_> = s.packets().collect();
        assert_eq!(packets.len(), 4);
        assert_eq!(
            packets[0],
            PacketAccess {
                packet_addr: 0,
                first_elem: 0,
                elems: 2
            }
        );
        assert_eq!(
            packets[3],
            PacketAccess {
                packet_addr: 48,
                first_elem: 6,
                elems: 2
            }
        );
        assert_eq!(s.packet_count(), 4);
    }

    #[test]
    fn misaligned_base_leaves_singleton_head_and_tail() {
        // Base at 8: element 0 is alone in packet 0, elements 1-2 share
        // packet 16, etc. 4 elements -> packets [0], [1,2], [3].
        let s = StreamDescriptor::read("x", 8, 1, 4);
        let packets: Vec<_> = s.packets().collect();
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].elems, 1);
        assert_eq!(packets[1].elems, 2);
        assert_eq!(packets[2].elems, 1);
    }

    #[test]
    fn non_unit_stride_gets_one_element_per_packet() {
        let s = StreamDescriptor::read("x", 0, 4, 5);
        let packets: Vec<_> = s.packets().collect();
        assert_eq!(packets.len(), 5);
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.elems, 1);
            assert_eq!(p.packet_addr, i as u64 * 32);
        }
    }

    #[test]
    fn stride_two_still_separate_packets() {
        // Stride 2 elements = 16 bytes = exactly one packet apart.
        let s = StreamDescriptor::read("x", 0, 2, 3);
        let packets: Vec<_> = s.packets().collect();
        assert_eq!(packets.len(), 3);
        assert!(packets.iter().all(|p| p.elems == 1));
    }

    #[test]
    fn element_addresses() {
        let s = StreamDescriptor::write("y", 1024, 3, 10);
        assert_eq!(s.element_addr(0), 1024);
        assert_eq!(s.element_addr(2), 1024 + 2 * 24);
        assert_eq!(s.kind, StreamKind::Write);
    }

    #[test]
    fn element_range() {
        let p = PacketAccess {
            packet_addr: 32,
            first_elem: 4,
            elems: 2,
        };
        assert_eq!(p.element_range(), 4..6);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn rejects_misaligned_base() {
        let _ = StreamDescriptor::read("x", 3, 1, 4);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn rejects_zero_stride() {
        let _ = StreamDescriptor::read("x", 0, 0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn element_addr_bounds_checked() {
        let s = StreamDescriptor::read("x", 0, 1, 4);
        let _ = s.element_addr(4);
    }
}
