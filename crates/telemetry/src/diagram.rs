//! ASCII packet timing diagrams of a recorded command stream, the form of
//! the paper's Figures 5 and 6.
//!
//! [`render`] replays one channel's command record with the step
//! [`Timeline::from_commands`](crate::Timeline::from_commands) runs, draws
//! every packet on its bus lane, one column per interface-clock cycle, and
//! lists the packets with their labels.

use rdram::{CommandRecord, Cycle, DeviceConfig, Dir};

use crate::timeline::{BusOp, Replay};

/// One drawn packet: lane, cycles, glyph, and its line in the listing.
struct Mark {
    lane: usize,
    start: Cycle,
    end: Cycle,
    glyph: char,
    text: String,
}

/// Render one channel's command `records` as an ASCII timing diagram.
///
/// One lane per bus, one column per interface-clock cycle. ROW-lane
/// glyphs: `A` (activate), `P` (precharge) and `p` (auto-precharge, which
/// holds the bank for `tRP` without occupying the bus); COL lane: `R`/`W`;
/// DATA lane: `r`/`w`. A listing of every packet starting in the window
/// follows. `labels[i]` annotates the command packet of `records[i]` and
/// its DATA packet, never its auto-precharge; `labels` may be shorter than
/// `records`, or empty. The window is `[from, to)`, clipped to the end of
/// the last packet.
///
/// # Panics
///
/// Panics if the clipped window is empty.
pub fn render(
    cfg: &DeviceConfig,
    records: &[CommandRecord],
    labels: &[Option<String>],
    from: Cycle,
    to: Cycle,
) -> String {
    let mut replay = Replay::new(cfg);
    let mut marks = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let Some(step) = replay.step(rec) else {
            continue;
        };
        let label = labels.get(i).and_then(Option::as_deref);
        for span in std::iter::once(step.command).chain(step.data) {
            let (lane, glyph, text) = match span.op {
                BusOp::Activate { bank, row } => (0, 'A', format!("ACT  b{bank} r{row}")),
                BusOp::Precharge { bank } => (0, 'P', format!("PRER b{bank}")),
                BusOp::ColRead { bank } => (1, 'R', format!("RD   b{bank}")),
                BusOp::ColWrite { bank } => (1, 'W', format!("WR   b{bank}")),
                BusOp::Data {
                    dir: Dir::Read,
                    bank,
                } => (2, 'r', format!("data<- b{bank}")),
                BusOp::Data {
                    dir: Dir::Write,
                    bank,
                } => (2, 'w', format!("data-> b{bank}")),
            };
            marks.push(Mark {
                lane,
                start: span.start,
                end: span.end,
                glyph,
                text: match label {
                    Some(l) => format!("{text}  {l}"),
                    None => text,
                },
            });
        }
        if let Some(p) = step.auto_precharge {
            marks.push(Mark {
                lane: 0,
                start: p,
                end: p + cfg.timing.t_rp,
                glyph: 'p',
                text: format!("PREX b{}", rec.cmd.bank()),
            });
        }
    }

    let to = to.min(marks.iter().map(|m| m.end).max().unwrap_or(0));
    assert!(to > from, "empty render window");
    let width = (to - from) as usize;
    let mut lanes = [vec!['.'; width], vec!['.'; width], vec!['.'; width]];
    for m in &marks {
        for c in m.start.max(from)..m.end.min(to) {
            lanes[m.lane][(c - from) as usize] = m.glyph;
        }
    }
    let ruler: String = (from..to)
        .map(|c| if c.is_multiple_of(10) { '|' } else { ' ' })
        .collect();
    let mut out = format!("cycle {from:>5} {ruler}\n");
    for (name, lane) in ["ROW ", "COL ", "DATA"].iter().zip(&lanes) {
        out.push_str(&format!(
            "{name}        {}\n",
            lane.iter().collect::<String>()
        ));
    }
    out.push('\n');
    for m in marks.iter().filter(|m| (from..to).contains(&m.start)) {
        out.push_str(&format!("  [{:>5}, {:>5})  {}\n", m.start, m.end, m.text));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdram::Command;

    fn rec(cycle: Cycle, cmd: Command) -> CommandRecord {
        CommandRecord { cycle, cmd }
    }

    #[test]
    fn render_places_glyphs() {
        let records = [
            rec(0, Command::activate(0, 1)),
            rec(12, Command::read(0, 0).with_auto_precharge()),
        ];
        let s = render(&DeviceConfig::default(), &records, &[], 0, 40);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains("AAAA"), "{s}");
        assert!(lines[1].contains("pppp"), "{s}");
        assert!(lines[2].contains("RRRR"), "{s}");
        assert!(lines[3].contains("rrrr"), "{s}");
        assert!(s.contains("ACT  b0 r1"));
        // COL RD at 12 puts its data at 22.
        assert!(s.contains("[   22,    26)  data<- b0"), "{s}");
        assert!(s.contains("PREX b0"), "{s}");
    }

    #[test]
    fn labels_ride_on_the_command_and_its_data() {
        let records = [rec(0, Command::write(2, 0).with_auto_precharge())];
        let labels = [Some("st z[0]".to_string())];
        let s = render(&DeviceConfig::default(), &records, &labels, 0, 40);
        assert!(s.contains("WR   b2  st z[0]"), "{s}");
        assert!(s.contains("data-> b2  st z[0]"), "{s}");
        let prex = s
            .lines()
            .find(|l| l.contains("PREX"))
            .expect("auto-precharge");
        assert!(!prex.contains("st z[0]"), "{s}");
    }

    #[test]
    fn window_clips_at_the_last_packet() {
        let cfg = DeviceConfig::default();
        let records = [rec(40, Command::write(1, 0))];
        let s = render(&cfg, &records, &[], 0, 1_000);
        let data_end = 40 + cfg.timing.write_data_delay() + cfg.timing.t_pack;
        let lane = s.lines().nth(3).expect("DATA lane");
        assert_eq!(
            lane.trim_start_matches("DATA").trim().len() as u64,
            data_end
        );
        assert!(lane.ends_with("wwww"), "{s}");
    }

    #[test]
    #[should_panic(expected = "empty render window")]
    fn render_rejects_empty_window() {
        let _ = render(&DeviceConfig::default(), &[], &[], 5, 5);
    }
}
