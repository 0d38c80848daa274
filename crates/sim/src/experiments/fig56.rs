//! Figures 5 and 6: packet-level timing of the three-stream loop
//! `{rd x[i]; rd y[i]; st z[i]}` under both memory organizations.

use baseline::BaselineController;
use rdram::trace;
use smc::StreamDescriptor;

use crate::{MemorySystem, SystemConfig};

const WINDOW: u64 = 160;

fn render_for(memory: MemorySystem, title: &str) -> String {
    let cfg = SystemConfig::natural_order(memory).with_trace();
    let (map, mut dev) = cfg.build_memory().expect("valid system");
    // Staggered bases: one interleaving unit apart so the three streams
    // start in different banks, as the paper's diagrams assume.
    let unit = match memory {
        MemorySystem::CacheLineInterleaved => cfg.line_bytes,
        MemorySystem::PageInterleaved => cfg.device.page_bytes,
    };
    let n = 16;
    let streams = vec![
        StreamDescriptor::read("x", 0, 1, n),
        StreamDescriptor::read("y", 64 * 1024 + unit, 1, n),
        StreamDescriptor::write("z", 128 * 1024 + 2 * unit, 1, n),
    ];
    let mut ctl = BaselineController::new(streams, map, memory.line_policy(), cfg.line_bytes);
    let _ = ctl.run_to_completion(&mut dev);
    let t = dev.take_trace().expect("trace enabled");
    let end = WINDOW.min(t.end_cycle().max(1));
    format!(
        "{title}\nloop body: {{rd x[i]; rd y[i]; st z[i]}}, 32-byte lines\n\
         lanes: ROW (A=ACT, P=PRER, p=auto-precharge)  COL (R=RD, W=WR)  \
         DATA (r=read, w=write)\n\n{}",
        trace::render(&t, 0, end)
    )
}

/// Figure 5: CLI closed-page timing for the three-stream loop.
pub fn render_fig5() -> String {
    render_for(
        MemorySystem::CacheLineInterleaved,
        "Figure 5: CLI closed-page timing for three-stream loop",
    )
}

/// Figure 6: PI open-page timing for the three-stream loop.
pub fn render_fig6() -> String {
    render_for(
        MemorySystem::PageInterleaved,
        "Figure 6: PI open-page timing for three-stream loop",
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig5_shows_pipelined_activates_and_data() {
        let s = super::render_fig5();
        assert!(s.contains("AAAA"), "no ACT packets:\n{s}");
        assert!(s.contains("rrrr"), "no read data:\n{s}");
        assert!(s.contains("wwww"), "no write data:\n{s}");
        assert!(s.contains("ld x[0]"));
        assert!(s.contains("ld y[0]"));
        assert!(s.contains("st z[0]"));
    }

    #[test]
    fn fig6_opens_pages_once_per_stream() {
        let s = super::render_fig6();
        // PI: after the three initial ACTs the loop streams from open pages,
        // so the window contains exactly three activates.
        let acts = s.matches("ACT ").count();
        assert_eq!(acts, 3, "expected 3 ACTs in window:\n{s}");
    }
}
