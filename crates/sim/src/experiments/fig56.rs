//! Figures 5 and 6: packet-level timing of the three-stream loop
//! `{rd x[i]; rd y[i]; st z[i]}` under both memory organizations.

use baseline::BaselineController;
use memsys::SystemMap;
use rdram::{Command, CommandRecord, Location, RowOp, ELEM_BYTES};
use smc::{StreamDescriptor, StreamKind};

use crate::{MemorySystem, SystemConfig};

const WINDOW: u64 = 160;

fn render_for(memory: MemorySystem, title: &str) -> String {
    let cfg = SystemConfig::natural_order(memory);
    let (map, mut dev) = cfg.build_memory().expect("valid system");
    dev.record_commands();
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
    let mut ctl = BaselineController::new(
        streams.clone(),
        map.clone(),
        memory.line_policy(),
        cfg.line_bytes,
    );
    let _ = ctl.run_to_completion(&mut dev);
    let records = dev.take_commands();
    let labels = labels(&records, &streams, &map, cfg.line_bytes);
    format!(
        "{title}\nloop body: {{rd x[i]; rd y[i]; st z[i]}}, 32-byte lines\n\
         lanes: ROW (A=ACT, P=PRER, p=auto-precharge)  COL (R=RD, W=WR)  \
         DATA (r=read, w=write)\n\n{}",
        telemetry::diagram::render(&cfg.device, &records, &labels, 0, WINDOW)
    )
}

/// The diagrams' labels: a COL that starts a line reads `ld` or `st` and
/// the first element the line carries, and an ACT takes the label of the
/// next COL to its bank.
fn labels(
    records: &[CommandRecord],
    streams: &[StreamDescriptor],
    map: &SystemMap,
    line_bytes: u64,
) -> Vec<Option<String>> {
    let mut open_row = vec![0; map.banks()];
    let mut labels: Vec<Option<String>> = records
        .iter()
        .map(|rec| match rec.cmd {
            Command::Row(RowOp::Activate { bank, row }) => {
                open_row[bank] = row;
                None
            }
            Command::Row(RowOp::Precharge { .. }) => None,
            Command::Col { op, .. } => {
                let (bank, col) = (op.bank(), op.col());
                let addr = map.encode(Location {
                    bank,
                    row: open_row[bank],
                    col,
                });
                if !addr.is_multiple_of(line_bytes) {
                    return None;
                }
                let s = streams.iter().find(|s| {
                    let len = s.length * s.stride * ELEM_BYTES;
                    (s.base..s.base + len).contains(&addr)
                })?;
                let verb = match s.kind {
                    StreamKind::Read => "ld",
                    StreamKind::Write => "st",
                };
                let elem = (addr - s.base) / ELEM_BYTES / s.stride;
                Some(format!("{verb} {}[{elem}]", s.name))
            }
        })
        .collect();
    let mut next_col: Vec<Option<String>> = vec![None; map.banks()];
    for (rec, label) in records.iter().zip(&mut labels).rev() {
        match rec.cmd {
            Command::Row(RowOp::Activate { bank, .. }) => label.clone_from(&next_col[bank]),
            Command::Row(RowOp::Precharge { .. }) => {}
            Command::Col { op, .. } => next_col[op.bank()].clone_from(label),
        }
    }
    labels
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
