//! Byte-accurate backing store, so simulations move real data.
//!
//! The timing model ([`Rdram`](crate::Rdram)) is pure timing; controllers
//! pair it with a `MemoryImage` to actually transport bytes. Keeping the two
//! separate lets timing tests run without allocating storage and lets the
//! end-to-end kernel tests verify that access *reordering* never changes
//! computation *results*.

use crate::ELEM_BYTES;

const CHUNK_BYTES: u64 = 4096;

type Chunk = Box<[u8; CHUNK_BYTES as usize]>;

// Whole elements tile a chunk, so an aligned element never straddles two.
const _: () = assert!(CHUNK_BYTES.is_multiple_of(ELEM_BYTES));

/// A sparse, byte-addressable memory image.
///
/// Pages are allocated lazily in 4 KB chunks; unwritten memory reads as
/// zero. Convenience accessors exist for the 64-bit stream elements the
/// paper's kernels operate on.
///
/// Chunks are indexed by chunk number, so the index grows with the highest
/// address written: a simulated system's few megabytes of capacity need a
/// few thousand entries.
///
/// ```
/// use rdram::MemoryImage;
///
/// let mut mem = MemoryImage::new();
/// mem.write_u64(64, 3.25_f64.to_bits());
/// assert_eq!(f64::from_bits(mem.read_u64(64)), 3.25);
/// assert_eq!(mem.read_u64(128), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryImage {
    /// Chunk `i` holds bytes `[i * CHUNK_BYTES, (i + 1) * CHUNK_BYTES)`.
    chunks: Vec<Option<Chunk>>,
}

impl MemoryImage {
    /// An empty (all-zero) image.
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_byte(addr + i as u64);
        }
    }

    /// Write `buf` starting at `addr`.
    pub fn write(&mut self, addr: u64, buf: &[u8]) {
        for (i, &b) in buf.iter().enumerate() {
            self.write_byte(addr + i as u64, b);
        }
    }

    /// Read one byte.
    pub fn read_byte(&self, addr: u64) -> u8 {
        match self.chunk(addr) {
            Some(chunk) => chunk[(addr % CHUNK_BYTES) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        self.chunk_mut(addr)[(addr % CHUNK_BYTES) as usize] = value;
    }

    /// The chunk holding `addr`, if it was ever written.
    fn chunk(&self, addr: u64) -> Option<&Chunk> {
        let index = usize::try_from(addr / CHUNK_BYTES).ok()?;
        self.chunks.get(index)?.as_ref()
    }

    /// The chunk holding `addr`, allocated zeroed on first touch.
    fn chunk_mut(&mut self, addr: u64) -> &mut [u8; CHUNK_BYTES as usize] {
        // A chunk number past `usize` fails the resize (capacity overflow)
        // rather than alias a lower chunk.
        let index = usize::try_from(addr / CHUNK_BYTES).unwrap_or(usize::MAX);
        if index >= self.chunks.len() {
            self.chunks.resize_with(index.saturating_add(1), || None);
        }
        self.chunks[index].get_or_insert_with(|| Box::new([0u8; CHUNK_BYTES as usize]))
    }

    /// Read a little-endian 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned; the paper's streams are always
    /// composed of aligned 64-bit elements, so a misaligned access is a bug.
    pub fn read_u64(&self, addr: u64) -> u64 {
        assert_eq!(addr % ELEM_BYTES, 0, "unaligned element read at {addr:#x}");
        let mut buf = [0u8; ELEM_BYTES as usize];
        if let Some(chunk) = self.chunk(addr) {
            let off = (addr % CHUNK_BYTES) as usize;
            buf.copy_from_slice(&chunk[off..off + ELEM_BYTES as usize]);
        }
        u64::from_le_bytes(buf)
    }

    /// Write a little-endian 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        assert_eq!(addr % ELEM_BYTES, 0, "unaligned element write at {addr:#x}");
        let off = (addr % CHUNK_BYTES) as usize;
        self.chunk_mut(addr)[off..off + ELEM_BYTES as usize].copy_from_slice(&value.to_le_bytes());
    }

    /// Read an `f64` stream element.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an `f64` stream element.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of 4 KB chunks currently allocated.
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = MemoryImage::new();
        assert_eq!(mem.read_byte(12345), 0);
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.allocated_chunks(), 0);
    }

    #[test]
    fn round_trips_bytes_across_chunk_boundaries() {
        let mut mem = MemoryImage::new();
        let addr = CHUNK_BYTES - 3;
        mem.write(addr, &[1, 2, 3, 4, 5, 6]);
        let mut buf = [0u8; 6];
        mem.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert_eq!(mem.allocated_chunks(), 2);
    }

    #[test]
    fn element_round_trip() {
        let mut mem = MemoryImage::new();
        mem.write_f64(4096, -0.5);
        assert_eq!(mem.read_f64(4096), -0.5);
        mem.write_u64(8, u64::MAX);
        assert_eq!(mem.read_u64(8), u64::MAX);
    }

    /// The element at `addr` reassembled from single-byte reads.
    fn bytewise_u64(mem: &MemoryImage, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        mem.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    #[test]
    fn element_accessors_agree_with_byte_accessors_at_chunk_edges() {
        let last_of_chunk = CHUNK_BYTES - ELEM_BYTES;
        let first_of_next = CHUNK_BYTES;
        let mut mem = MemoryImage::new();
        // Unwritten memory, inside and beyond the chunks touched below.
        for addr in [last_of_chunk, first_of_next, 7 * CHUNK_BYTES] {
            assert_eq!(mem.read_u64(addr), 0);
            assert_eq!(mem.read_u64(addr), bytewise_u64(&mem, addr));
        }
        // Element writes land where byte reads find them.
        mem.write_u64(last_of_chunk, 0x0102_0304_0506_0708);
        mem.write_u64(first_of_next, 0x1112_1314_1516_1718);
        for addr in [last_of_chunk, first_of_next] {
            assert_eq!(mem.read_u64(addr), bytewise_u64(&mem, addr));
        }
        assert_eq!(mem.read_byte(last_of_chunk), 0x08);
        assert_eq!(mem.read_byte(CHUNK_BYTES - 1), 0x01);
        assert_eq!(mem.read_byte(first_of_next), 0x18);
        // Byte writes straddling the boundary show up in both elements.
        mem.write(CHUNK_BYTES - 2, &[0xaa, 0xbb, 0xcc, 0xdd]);
        assert_eq!(mem.read_u64(last_of_chunk), 0xbbaa_0304_0506_0708);
        assert_eq!(mem.read_u64(first_of_next), 0x1112_1314_1516_ddcc);
        for addr in [last_of_chunk, first_of_next] {
            assert_eq!(mem.read_u64(addr), bytewise_u64(&mem, addr));
        }
        assert_eq!(mem.allocated_chunks(), 2);
    }

    #[test]
    fn reads_past_the_highest_chunk_read_zero_and_allocate_nothing() {
        let mut mem = MemoryImage::new();
        mem.write_u64(3 * CHUNK_BYTES, 9);
        let past = [4 * CHUNK_BYTES, 100 * CHUNK_BYTES + 8, u64::MAX - 7];
        for addr in past {
            assert_eq!(mem.read_u64(addr), 0);
            assert_eq!(mem.read_byte(addr), 0);
        }
        // Below the highest chunk, unwritten chunks read zero too.
        assert_eq!(mem.read_u64(CHUNK_BYTES), 0);
        assert_eq!(mem.allocated_chunks(), 1);
        assert_eq!(mem.chunks.len(), 4, "reads never grow the index");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_element_access_panics() {
        let mem = MemoryImage::new();
        let _ = mem.read_u64(12);
    }

    #[test]
    #[should_panic(expected = "unaligned element write")]
    fn unaligned_element_write_panics() {
        let mut mem = MemoryImage::new();
        mem.write_u64(CHUNK_BYTES - 4, 1);
    }
}
