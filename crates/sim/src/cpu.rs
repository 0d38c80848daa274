//! The matched-bandwidth processor model (Section 4.1).
//!
//! The paper models the CPU as "a generator of only loads and stores of
//! stream elements": computation is infinitely fast, non-stream accesses
//! hit in cache, and the CPU-to-SMC bandwidth matches the SMC-to-memory
//! bandwidth — one 64-bit element every two interface-clock cycles. Each
//! iteration dereferences every read-FIFO head in the kernel's natural
//! order, computes, and pushes the results into the write FIFOs.

use kernels::{Coefficients, Kernel, MAX_READS, MAX_WRITES};
use rdram::Cycle;
use smc::{SmcController, StreamKind};

/// Cycles per CPU stream access at matched bandwidth: the memory supplies
/// one 64-bit element per `tPACK / w_p` = 2 cycles.
pub const CYCLES_PER_ACCESS: Cycle = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Dereference read-FIFO `k` (index into the kernel's read list).
    Read(usize),
    /// Push output `k` into its write FIFO.
    Write(usize),
}

/// Natural-order processor driving an [`SmcController`].
#[derive(Debug)]
pub struct StreamCpu {
    kernel: Kernel,
    coeffs: Coefficients,
    /// FIFO indices of read streams, in per-iteration order.
    reads: Vec<usize>,
    /// FIFO indices of write streams, in per-iteration order.
    writes: Vec<usize>,
    iterations: u64,
    iter: u64,
    phase: Phase,
    /// This iteration's read values, by position in `reads`.
    inputs: [f64; MAX_READS],
    /// This iteration's results, computed at its first write attempt.
    outputs: Option<[f64; MAX_WRITES]>,
    /// Cycles between successive stream accesses.
    access_cycles: Cycle,
    /// Earliest cycle the next access may complete (rate limiting).
    next_access_at: Cycle,
    finish_cycle: Cycle,
}

impl StreamCpu {
    /// Create a processor for `iterations` of `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn new(kernel: Kernel, coeffs: Coefficients, iterations: u64) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for (i, s) in kernel.streams().iter().enumerate() {
            match s.kind {
                StreamKind::Read => reads.push(i),
                StreamKind::Write => writes.push(i),
            }
        }
        let phase = if reads.is_empty() {
            Phase::Write(0)
        } else {
            Phase::Read(0)
        };
        StreamCpu {
            kernel,
            coeffs,
            reads,
            writes,
            iterations,
            iter: 0,
            phase,
            inputs: [0.0; MAX_READS],
            outputs: None,
            access_cycles: CYCLES_PER_ACCESS,
            next_access_at: 0,
            finish_cycle: 0,
        }
    }

    /// Change the processor's stream-access rate. The matched-bandwidth
    /// default is one access per [`CYCLES_PER_ACCESS`] cycles; smaller
    /// values model a CPU faster than the memory system (the paper: "A
    /// faster CPU would let an SMC system exploit more of the memory
    /// system's available bandwidth").
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn with_access_cycles(mut self, cycles: Cycle) -> Self {
        assert!(cycles >= 1, "the CPU needs at least one cycle per access");
        self.access_cycles = cycles;
        self
    }

    /// Whether every iteration has completed.
    pub fn done(&self) -> bool {
        self.iter >= self.iterations
    }

    /// Cycle at which the final stream access completed.
    pub fn finish_cycle(&self) -> Cycle {
        self.finish_cycle
    }

    /// Attempt the next stream access. At most one access succeeds every
    /// [`CYCLES_PER_ACCESS`] cycles; a missing element or full FIFO simply
    /// stalls the processor until a later tick.
    pub fn tick(&mut self, now: Cycle, ctl: &mut SmcController) {
        if self.done() || now < self.next_access_at {
            return;
        }
        match self.phase {
            Phase::Read(k) => {
                // Fill kernels have no reads; handled at construction.
                let fifo = self.reads[k];
                let Some(bits) = ctl.cpu_read(fifo, now) else {
                    return;
                };
                self.inputs[k] = f64::from_bits(bits);
                self.advance_after_read(k, now);
            }
            Phase::Write(k) => {
                let outputs = *self.outputs.get_or_insert_with(|| {
                    self.kernel
                        .compute(&self.inputs[..self.reads.len()], &self.coeffs)
                });
                let fifo = self.writes[k];
                if !ctl.cpu_write(fifo, outputs[k].to_bits(), now) {
                    return;
                }
                self.advance_after_write(k, now);
            }
        }
    }

    fn bump_rate(&mut self, now: Cycle) {
        self.next_access_at = now + self.access_cycles;
        self.finish_cycle = now;
    }

    fn advance_after_read(&mut self, k: usize, now: Cycle) {
        self.bump_rate(now);
        if k + 1 < self.reads.len() {
            self.phase = Phase::Read(k + 1);
        } else if self.writes.is_empty() {
            self.next_iteration();
        } else {
            self.phase = Phase::Write(0);
        }
    }

    fn advance_after_write(&mut self, k: usize, now: Cycle) {
        self.bump_rate(now);
        if k + 1 < self.writes.len() {
            self.phase = Phase::Write(k + 1);
        } else {
            self.outputs = None;
            self.next_iteration();
        }
    }

    fn next_iteration(&mut self) {
        self.iter += 1;
        self.phase = if self.reads.is_empty() {
            Phase::Write(0)
        } else {
            Phase::Read(0)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdram::MemoryImage;
    use smc::{MsuConfig, StreamDescriptor};

    use crate::{MemorySystem, SystemConfig};

    fn drive(kernel: Kernel, n: u64) -> (StreamCpu, MemoryImage, Vec<StreamDescriptor>) {
        let cfg = SystemConfig::natural_order(MemorySystem::PageInterleaved);
        let (map, mut dev) = cfg.build_memory().unwrap();
        let mut mem = MemoryImage::new();
        // Vectors one bank-rotation apart.
        let bases: Vec<u64> = (0..kernel.vectors() as u64)
            .map(|v| v * 64 * 1024)
            .collect();
        for (v, &base) in bases.iter().enumerate() {
            for e in 0..kernel.vector_len(v, n, 1) {
                mem.write_f64(base + e * 8, (v * 1000) as f64 + e as f64);
            }
        }
        let streams = kernel.stream_descriptors(&bases, n, 1);
        let mut ctl = SmcController::new(streams.clone(), map, MsuConfig::default());
        let mut cpu = StreamCpu::new(kernel, Coefficients::default(), n);
        let mut now = 0;
        while !(cpu.done() && ctl.mem_complete()) {
            ctl.tick(now, &mut dev, &mut mem).expect("fault-free tick");
            cpu.tick(now, &mut ctl);
            now += 1;
            assert!(now < 5_000_000, "kernel {kernel} stalled");
        }
        (cpu, mem, streams)
    }

    #[test]
    fn daxpy_produces_reference_results() {
        let n = 256;
        let (cpu, mem, streams) = drive(Kernel::Daxpy, n);
        assert!(cpu.done());
        let c = Coefficients::default();
        for i in 0..n {
            let x = i as f64;
            let y0 = 1000.0 + i as f64;
            let got = mem.read_f64(streams[2].element_addr(i));
            assert_eq!(got, c.a * x + y0, "i={i}");
        }
    }

    #[test]
    fn fill_kernel_runs_without_reads() {
        let n = 128;
        let (cpu, mem, streams) = drive(Kernel::Fill, n);
        assert!(cpu.done());
        for i in 0..n {
            assert_eq!(mem.read_f64(streams[0].element_addr(i)), 3.0);
        }
    }

    #[test]
    fn swap_kernel_writes_both_streams() {
        let n = 64;
        let (_, mem, streams) = drive(Kernel::Swap, n);
        for i in 0..n {
            assert_eq!(mem.read_f64(streams[2].element_addr(i)), 1000.0 + i as f64);
            assert_eq!(mem.read_f64(streams[3].element_addr(i)), i as f64);
        }
    }

    #[test]
    fn rate_limit_is_one_access_per_two_cycles() {
        // With everything instantly available, accesses complete every 2
        // cycles; n iterations of copy = 2n accesses.
        let (cpu, _, _) = drive(Kernel::Copy, 64);
        assert!(cpu.finish_cycle() >= (2 * 64 - 1) * CYCLES_PER_ACCESS);
    }
}
