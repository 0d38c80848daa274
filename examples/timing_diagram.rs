//! Render packet-level timing diagrams of the three-stream loop
//! `{rd x[i]; rd y[i]; st z[i]}` — the paper's Figures 5 and 6 — plus the
//! same loop through the SMC for contrast.
//!
//! ```text
//! cargo run --release --example timing_diagram
//! ```

use kernels::Kernel;
use sim::experiments::fig56;
use sim::{run_kernel, MemorySystem, SystemConfig};

fn main() {
    println!("{}", fig56::render_fig5());
    println!("{}", fig56::render_fig6());

    // The same stream population through the SMC: triad has the identical
    // 2-read / 1-write signature. Note the bus staying saturated.
    let cfg = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 32).with_command_recording();
    let result = run_kernel(Kernel::Triad, 16, 1, &cfg).expect("fault-free run");
    println!(
        "Same loop through the SMC (CLI, 32-deep FIFOs): accesses reordered\n\
         per stream, DATA bus saturated\n\n{}",
        telemetry::diagram::render(&cfg.device, &result.commands, &[], 0, 160)
    );
}
