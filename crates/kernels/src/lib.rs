//! Streaming benchmark kernels.
//!
//! The paper evaluates four inner loops chosen as representative of real
//! streaming access patterns (its Figure 4): `copy` and `daxpy` from the
//! BLAS, `hydro` from the Livermore Fortran Kernels, and `vaxpy` (a vector
//! axpy arising in matrix-vector multiplication by diagonals). This crate
//! defines those kernels — plus a few extensions covering more stream
//! populations — as *stream signatures* with executable reference
//! semantics, so a simulation can both generate the right memory traffic
//! and verify bit-exact results.
//!
//! Every kernel consumes one element of each read-stream and produces one
//! element of each write-stream per iteration:
//!
//! ```text
//! copy :  ∀i  y_i ← x_i
//! daxpy:  ∀i  y_i ← a·x_i + y_i
//! hydro:  ∀i  x_i ← q + y_i·(r·zx_{i+10} + t·zx_{i+11})
//! vaxpy:  ∀i  y_i ← a_i·x_i + y_i
//! ```
//!
//! # Example
//!
//! ```
//! use kernels::{Coefficients, Kernel};
//!
//! let k = Kernel::Daxpy;
//! assert_eq!(k.reads(), 2);
//! assert_eq!(k.writes(), 1);
//! let c = Coefficients::default();
//! // One iteration: inputs in stream order (x, y) -> outputs (y).
//! let out = k.compute(&[2.0, 3.0], &c);
//! assert_eq!(out[0], c.a * 2.0 + 3.0);
//! ```

mod reference;

pub use reference::ReferenceMachine;

use serde::{Deserialize, Serialize};

use smc::{StreamDescriptor, StreamKind};

/// Scalar constants appearing in the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coefficients {
    /// `a` in daxpy/triad/scale/fill.
    pub a: f64,
    /// `q` in hydro.
    pub q: f64,
    /// `r` in hydro.
    pub r: f64,
    /// `t` in hydro.
    pub t: f64,
}

impl Default for Coefficients {
    fn default() -> Self {
        Coefficients {
            a: 3.0,
            q: 0.5,
            r: 1.25,
            t: -0.75,
        }
    }
}

/// The most read-streams any kernel declares (hydro and vaxpy).
pub const MAX_READS: usize = 3;

/// The most write-streams any kernel declares (swap): the length of
/// [`Kernel::compute`]'s result.
pub const MAX_WRITES: usize = 2;

/// A stream's role within a kernel: which vector it walks, at what element
/// offset, and in which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Stream name as it appears in the kernel definition.
    pub name: &'static str,
    /// Index of the vector the stream walks.
    pub vector: usize,
    /// Element offset into the vector (e.g. `zx+10` in hydro).
    pub offset: u64,
    /// Read or write.
    pub kind: StreamKind,
}

/// The benchmark kernels.
///
/// The first four are the paper's Figure 4; the rest extend coverage to
/// other stream populations (`s` from 1 to 4, including a two-write kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// `y_i ← x_i` (BLAS). 1 read, 1 write.
    Copy,
    /// `y_i ← a·x_i + y_i` (BLAS). 2 reads, 1 write.
    Daxpy,
    /// `x_i ← q + y_i·(r·zx_{i+10} + t·zx_{i+11})` (Livermore). 3 reads, 1 write.
    Hydro,
    /// `y_i ← a_i·x_i + y_i` (matrix-vector by diagonals). 3 reads, 1 write.
    Vaxpy,
    /// `y_i ← a` (extension). 0 reads, 1 write.
    Fill,
    /// `y_i ← a·x_i` (extension). 1 read, 1 write.
    Scale,
    /// `y_i ← x_i + a·z_i` (STREAM triad; extension). 2 reads, 1 write.
    Triad,
    /// `x_i ↔ y_i` (extension). 2 reads, 2 writes.
    Swap,
}

impl Kernel {
    /// The paper's benchmark suite (Figure 4), in presentation order.
    pub const PAPER_SUITE: [Kernel; 4] =
        [Kernel::Copy, Kernel::Daxpy, Kernel::Hydro, Kernel::Vaxpy];

    /// All kernels, paper suite first.
    pub const ALL: [Kernel; 8] = [
        Kernel::Copy,
        Kernel::Daxpy,
        Kernel::Hydro,
        Kernel::Vaxpy,
        Kernel::Fill,
        Kernel::Scale,
        Kernel::Triad,
        Kernel::Swap,
    ];

    /// Lower-case kernel name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Copy => "copy",
            Kernel::Daxpy => "daxpy",
            Kernel::Hydro => "hydro",
            Kernel::Vaxpy => "vaxpy",
            Kernel::Fill => "fill",
            Kernel::Scale => "scale",
            Kernel::Triad => "triad",
            Kernel::Swap => "swap",
        }
    }

    /// The streams the kernel declares, reads first, in the order the
    /// processor touches them each iteration.
    pub fn streams(&self) -> &'static [StreamSpec] {
        use StreamKind::{Read, Write};
        // A struct literal of constants, so each table is a `'static`
        // promotion rather than a per-call allocation.
        macro_rules! spec {
            ($name:literal, $vector:literal, $offset:literal, $kind:ident) => {
                StreamSpec {
                    name: $name,
                    vector: $vector,
                    offset: $offset,
                    kind: $kind,
                }
            };
        }
        match self {
            Kernel::Copy => &[spec!("x", 0, 0, Read), spec!("y", 1, 0, Write)],
            Kernel::Daxpy => &[
                spec!("x", 0, 0, Read),
                spec!("y", 1, 0, Read),
                spec!("y'", 1, 0, Write),
            ],
            Kernel::Hydro => &[
                spec!("y", 0, 0, Read),
                spec!("zx+10", 1, 10, Read),
                spec!("zx+11", 1, 11, Read),
                spec!("x", 2, 0, Write),
            ],
            Kernel::Vaxpy => &[
                spec!("a", 0, 0, Read),
                spec!("x", 1, 0, Read),
                spec!("y", 2, 0, Read),
                spec!("y'", 2, 0, Write),
            ],
            Kernel::Fill => &[spec!("y", 0, 0, Write)],
            Kernel::Scale => &[spec!("x", 0, 0, Read), spec!("y", 1, 0, Write)],
            Kernel::Triad => &[
                spec!("x", 0, 0, Read),
                spec!("z", 1, 0, Read),
                spec!("y", 2, 0, Write),
            ],
            Kernel::Swap => &[
                spec!("x", 0, 0, Read),
                spec!("y", 1, 0, Read),
                spec!("x'", 0, 0, Write),
                spec!("y'", 1, 0, Write),
            ],
        }
    }

    /// Number of read-streams (`s_r`).
    pub fn reads(&self) -> u64 {
        self.streams()
            .iter()
            .filter(|s| s.kind == StreamKind::Read)
            .count() as u64
    }

    /// Number of write-streams (`s_w`).
    pub fn writes(&self) -> u64 {
        self.streams()
            .iter()
            .filter(|s| s.kind == StreamKind::Write)
            .count() as u64
    }

    /// Total streams `s = s_r + s_w`.
    pub fn total_streams(&self) -> u64 {
        self.streams().len() as u64
    }

    /// Number of distinct vectors the kernel touches.
    pub fn vectors(&self) -> usize {
        self.streams()
            .iter()
            .map(|s| s.vector)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Elements vector `v` must hold to support `n` iterations at `stride`
    /// (in elements): the farthest element any of its streams touches, plus
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not one of the kernel's vectors or `n == 0`.
    pub fn vector_len(&self, v: usize, n: u64, stride: u64) -> u64 {
        assert!(n > 0, "kernels need at least one iteration");
        let max_offset = self
            .streams()
            .iter()
            .filter(|s| s.vector == v)
            .map(|s| s.offset)
            .max()
            .unwrap_or_else(|| panic!("kernel {} has no vector {v}", self.name()));
        max_offset + (n - 1) * stride + 1
    }

    /// One iteration of the kernel: `inputs` are the read-stream values in
    /// stream order; the result holds the write-stream values in stream
    /// order, padded with zeros past [`writes`](Self::writes).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`reads`](Self::reads).
    pub fn compute(&self, inputs: &[f64], c: &Coefficients) -> [f64; MAX_WRITES] {
        assert_eq!(
            inputs.len() as u64,
            self.reads(),
            "kernel {} takes {} inputs",
            self.name(),
            self.reads()
        );
        match self {
            Kernel::Copy => [inputs[0], 0.0],
            Kernel::Daxpy => [c.a * inputs[0] + inputs[1], 0.0],
            Kernel::Hydro => {
                let (y, zx10, zx11) = (inputs[0], inputs[1], inputs[2]);
                [c.q + y * (c.r * zx10 + c.t * zx11), 0.0]
            }
            Kernel::Vaxpy => [inputs[0] * inputs[1] + inputs[2], 0.0],
            Kernel::Fill => [c.a, 0.0],
            Kernel::Scale => [c.a * inputs[0], 0.0],
            Kernel::Triad => [inputs[0] + c.a * inputs[1], 0.0],
            Kernel::Swap => [inputs[1], inputs[0]],
        }
    }

    /// Materialize stream descriptors for `n` iterations at `stride`, given
    /// the base byte address of each vector.
    ///
    /// # Panics
    ///
    /// Panics if `vector_bases.len()` differs from
    /// [`vectors`](Self::vectors), or any base is not 8-byte aligned.
    pub fn stream_descriptors(
        &self,
        vector_bases: &[u64],
        n: u64,
        stride: u64,
    ) -> Vec<StreamDescriptor> {
        assert_eq!(
            vector_bases.len(),
            self.vectors(),
            "kernel {} touches {} vectors",
            self.name(),
            self.vectors()
        );
        self.streams()
            .iter()
            .map(|s| {
                StreamDescriptor::new(
                    s.name,
                    vector_bases[s.vector] + s.offset * rdram::ELEM_BYTES,
                    stride,
                    n,
                    s.kind,
                )
            })
            .collect()
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_stream_populations() {
        // Figure 4 / Section 5 stream counts.
        assert_eq!((Kernel::Copy.reads(), Kernel::Copy.writes()), (1, 1));
        assert_eq!((Kernel::Daxpy.reads(), Kernel::Daxpy.writes()), (2, 1));
        assert_eq!((Kernel::Hydro.reads(), Kernel::Hydro.writes()), (3, 1));
        assert_eq!((Kernel::Vaxpy.reads(), Kernel::Vaxpy.writes()), (3, 1));
        assert_eq!(Kernel::Swap.writes(), 2);
        assert_eq!(Kernel::Fill.reads(), 0);
    }

    #[test]
    fn hydro_streams_share_the_zx_vector() {
        let streams = Kernel::Hydro.streams();
        assert_eq!(streams[1].vector, streams[2].vector);
        assert_eq!(streams[1].offset, 10);
        assert_eq!(streams[2].offset, 11);
        assert_eq!(Kernel::Hydro.vectors(), 3);
    }

    #[test]
    fn vector_len_accounts_for_offsets_and_stride() {
        // zx must reach element 11 + (n-1)*stride.
        assert_eq!(Kernel::Hydro.vector_len(1, 100, 1), 111);
        assert_eq!(Kernel::Hydro.vector_len(1, 100, 4), 11 + 99 * 4 + 1);
        assert_eq!(Kernel::Copy.vector_len(0, 16, 1), 16);
    }

    #[test]
    fn compute_matches_definitions() {
        let c = Coefficients {
            a: 2.0,
            q: 1.0,
            r: 3.0,
            t: 5.0,
        };
        assert_eq!(Kernel::Copy.compute(&[7.0], &c), [7.0, 0.0]);
        assert_eq!(Kernel::Daxpy.compute(&[7.0, 1.0], &c), [15.0, 0.0]);
        assert_eq!(
            Kernel::Hydro.compute(&[2.0, 10.0, 100.0], &c),
            [1.0 + 2.0 * (30.0 + 500.0), 0.0]
        );
        assert_eq!(Kernel::Vaxpy.compute(&[2.0, 3.0, 4.0], &c), [10.0, 0.0]);
        assert_eq!(Kernel::Swap.compute(&[1.0, 2.0], &c), [2.0, 1.0]);
        assert_eq!(Kernel::Fill.compute(&[], &c), [2.0, 0.0]);
        assert_eq!(Kernel::Triad.compute(&[1.0, 4.0], &c), [9.0, 0.0]);
        assert_eq!(Kernel::Scale.compute(&[4.0], &c), [8.0, 0.0]);
    }

    #[test]
    fn stream_tables_fit_the_fixed_buffers_reads_first() {
        let most = |f: fn(&Kernel) -> u64| Kernel::ALL.iter().map(f).max();
        assert_eq!(most(Kernel::reads), Some(MAX_READS as u64));
        assert_eq!(most(Kernel::writes), Some(MAX_WRITES as u64));
        for k in Kernel::ALL {
            let streams = k.streams();
            let (reads, writes) = streams.split_at(k.reads() as usize);
            assert!(reads.iter().all(|s| s.kind == StreamKind::Read), "{k}");
            assert!(writes.iter().all(|s| s.kind == StreamKind::Write), "{k}");
        }
    }

    #[test]
    fn descriptors_place_streams_at_vector_offsets() {
        let bases = [0, 64 * 1024, 128 * 1024];
        let ds = Kernel::Hydro.stream_descriptors(&bases, 128, 1);
        assert_eq!(ds.len(), 4);
        assert_eq!(ds[0].base, 0);
        assert_eq!(ds[1].base, 64 * 1024 + 80); // zx + 10 elements
        assert_eq!(ds[2].base, 64 * 1024 + 88);
        assert_eq!(ds[3].base, 128 * 1024);
        assert!(ds.iter().all(|d| d.length == 128 && d.stride == 1));
    }

    #[test]
    fn names_and_display() {
        for k in Kernel::ALL {
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(Kernel::PAPER_SUITE.len(), 4);
    }

    #[test]
    #[should_panic(expected = "takes 2 inputs")]
    fn compute_arity_checked() {
        let _ = Kernel::Daxpy.compute(&[1.0], &Coefficients::default());
    }

    #[test]
    #[should_panic(expected = "touches 3 vectors")]
    fn descriptor_base_count_checked() {
        let _ = Kernel::Hydro.stream_descriptors(&[0], 8, 1);
    }
}
