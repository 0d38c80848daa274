//! Quickstart: how much bandwidth does access order buy?
//!
//! Runs every benchmark kernel of the paper on both memory organizations,
//! once through a conventional natural-order controller and once through the
//! Stream Memory Controller, and prints effective bandwidth side by side.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kernels::Kernel;
use sim::report::{pct, ratio, Table};
use sim::{run_kernel, MemorySystem, SystemConfig};

fn main() {
    let n = 1024;
    let fifo_depth = 128;
    println!(
        "Streams of {n} 64-bit elements on a single Direct RDRAM (peak 1.6 GB/s);\n\
         SMC uses {fifo_depth}-deep FIFOs with round-robin scheduling.\n"
    );
    let mut table = Table::new(vec![
        "kernel".into(),
        "org".into(),
        "natural order %".into(),
        "SMC %".into(),
        "speedup".into(),
    ]);
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for kernel in Kernel::PAPER_SUITE {
            let naive = run_kernel(kernel, n, 1, &SystemConfig::natural_order(memory))
                .expect("fault-free run");
            let smc = run_kernel(kernel, n, 1, &SystemConfig::smc(memory, fifo_depth))
                .expect("fault-free run");
            table.row(vec![
                kernel.name().into(),
                memory.label().into(),
                pct(naive.percent_peak()),
                pct(smc.percent_peak()),
                ratio(smc.percent_peak() / naive.percent_peak()),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Every SMC run moves real data and is verified bit-exactly\n\
         against the kernel's scalar reference."
    );
}
