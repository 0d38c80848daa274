//! Scalar reference execution of the kernels over a memory image.

use rdram::{MemoryImage, ELEM_BYTES};

use crate::{Coefficients, Kernel, MAX_READS};

/// Executes a kernel directly against a [`MemoryImage`], element by element
/// and iteration by iteration, with no memory system in between.
///
/// The reference defines the *semantics* every simulated run must
/// reproduce bit-exactly: within an iteration all reads happen before all
/// writes, and iterations are sequential — the same ordering contract the
/// processor side of the SMC observes.
///
/// ```
/// use kernels::{Coefficients, Kernel, ReferenceMachine};
/// use rdram::MemoryImage;
///
/// let mut mem = MemoryImage::new();
/// for i in 0..8 {
///     mem.write_f64(i * 8, i as f64); // x
/// }
/// let machine = ReferenceMachine::new(Kernel::Copy, Coefficients::default());
/// machine.run(&mut mem, &[0, 4096], 8, 1);
/// assert_eq!(mem.read_f64(4096 + 7 * 8), 7.0); // y = x
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceMachine {
    kernel: Kernel,
    coeffs: Coefficients,
}

impl ReferenceMachine {
    /// Create a reference executor for `kernel` with the given constants.
    pub fn new(kernel: Kernel, coeffs: Coefficients) -> Self {
        ReferenceMachine { kernel, coeffs }
    }

    /// The kernel being executed.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Run `n` iterations at `stride` (elements) against `mem`, with each
    /// vector based at `vector_bases[v]`.
    ///
    /// # Panics
    ///
    /// Panics if `vector_bases.len()` differs from the kernel's vector
    /// count.
    pub fn run(&self, mem: &mut MemoryImage, vector_bases: &[u64], n: u64, stride: u64) {
        // Streams are declared reads first.
        let (reads, writes) = self.kernel.streams().split_at(self.kernel.reads() as usize);
        assert_eq!(vector_bases.len(), self.kernel.vectors());
        let addr = |spec: &crate::StreamSpec, i: u64| {
            vector_bases[spec.vector] + (spec.offset + i * stride) * ELEM_BYTES
        };
        let mut buffer = [0.0; MAX_READS];
        let inputs = &mut buffer[..reads.len()];
        for i in 0..n {
            for (value, s) in inputs.iter_mut().zip(reads) {
                *value = mem.read_f64(addr(s, i));
            }
            let outputs = self.kernel.compute(inputs, &self.coeffs);
            for (out, s) in outputs.iter().zip(writes) {
                mem.write_f64(addr(s, i), *out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: u64, vectors: &[u64]) -> MemoryImage {
        let mut mem = MemoryImage::new();
        for (v, &base) in vectors.iter().enumerate() {
            for e in 0..n + 16 {
                mem.write_f64(base + e * 8, (v as f64 + 1.0) * 0.25 + e as f64);
            }
        }
        mem
    }

    #[test]
    fn daxpy_reference() {
        let bases = [0u64, 1 << 16];
        let mut mem = seeded(8, &bases);
        let c = Coefficients {
            a: 2.0,
            ..Coefficients::default()
        };
        ReferenceMachine::new(Kernel::Daxpy, c).run(&mut mem, &bases, 8, 1);
        for i in 0..8u64 {
            let x = 0.25 + i as f64;
            let y0 = 0.5 + i as f64;
            assert_eq!(mem.read_f64(bases[1] + i * 8), 2.0 * x + y0, "i={i}");
        }
    }

    #[test]
    fn hydro_uses_offset_streams() {
        let bases = [0u64, 1 << 16, 1 << 17];
        let mut mem = seeded(16, &bases);
        let c = Coefficients::default();
        ReferenceMachine::new(Kernel::Hydro, c).run(&mut mem, &bases, 4, 1);
        for i in 0..4u64 {
            let y = 0.25 + i as f64;
            let zx10 = 0.5 + (10 + i) as f64;
            let zx11 = 0.5 + (11 + i) as f64;
            let expect = c.q + y * (c.r * zx10 + c.t * zx11);
            assert_eq!(mem.read_f64(bases[2] + i * 8), expect, "i={i}");
        }
    }

    #[test]
    fn swap_exchanges_in_place() {
        let bases = [0u64, 1 << 16];
        let mut mem = seeded(4, &bases);
        let before: Vec<(f64, f64)> = (0..4)
            .map(|i| (mem.read_f64(i * 8), mem.read_f64(bases[1] + i * 8)))
            .collect();
        ReferenceMachine::new(Kernel::Swap, Coefficients::default()).run(&mut mem, &bases, 4, 1);
        for (i, (x, y)) in before.into_iter().enumerate() {
            let i = i as u64;
            assert_eq!(mem.read_f64(i * 8), y);
            assert_eq!(mem.read_f64(bases[1] + i * 8), x);
        }
    }

    #[test]
    fn strided_reference_touches_spaced_elements() {
        let bases = [0u64, 1 << 16];
        let mut mem = seeded(64, &bases);
        ReferenceMachine::new(Kernel::Copy, Coefficients::default()).run(&mut mem, &bases, 4, 4);
        // y[0], y[4], y[8], y[12] get x values; y[1..3] untouched.
        assert_eq!(mem.read_f64(bases[1]), 0.25);
        assert_eq!(mem.read_f64(bases[1] + 4 * 8), 0.25 + 4.0);
        assert_eq!(mem.read_f64(bases[1] + 8), 0.5 + 1.0); // untouched seed
    }
}
