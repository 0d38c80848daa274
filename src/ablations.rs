//! Ablations: eight design choices and side remarks of the paper that its
//! figures do not show, each measured on this reproduction — the MSU
//! scheduling policy, vector placement, random (non-stream) accesses, the
//! fast-page-mode substrate (Section 5.2), channel population (the Crisp
//! contrast), CPU speed, refresh, and real caches.
//!
//! [`run`] measures all eight once. `repro ablations` writes the result as
//! `results/ablations.{txt,json}`, and the tests below assert each claim
//! EXPERIMENTS.md makes about it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use baseline::cache::CacheConfig;
use baseline::LinePolicy;
use kernels::Kernel;
use rdram::{AddressMap, Command, Cycle, DeviceConfig, Rdram, PACKET_BYTES};
use sim::experiments::fig7::FIFO_DEPTHS;
use sim::experiments::grid::{run_all, sweep, KernelJob};
use sim::report::Table;
use sim::{Alignment, MemorySystem, SystemConfig};
use smc::{Policy, StreamDescriptor};

/// Elements per stream in every simulated ablation.
const N: u64 = 1024;

/// Cacheline size of the random-access ablations, in bytes.
const LINE_BYTES: u64 = 32;

/// Random cacheline fills per random-access measurement.
const RANDOM_LINES: usize = 2000;

/// Both memory organizations, CLI first.
const ORGANIZATIONS: [MemorySystem; 2] = [
    MemorySystem::CacheLineInterleaved,
    MemorySystem::PageInterleaved,
];

/// One ablation: a titled table of measurements and the note that reads
/// it.
#[derive(Debug, Clone, Serialize)]
pub struct Ablation {
    /// What is varied, and on which system.
    pub title: &'static str,
    /// Column headers: the label columns, then one per value.
    pub columns: &'static [&'static str],
    /// One row per configuration.
    pub rows: Vec<Row>,
    /// How to read the table (may be empty).
    pub note: String,
    /// Decimal places each value column prints with.
    #[serde(skip)]
    decimals: Vec<usize>,
}

/// One configuration of an ablation and what it measured.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// The configuration, one cell per label column.
    pub labels: Vec<String>,
    /// The measurements, one per value column.
    pub values: Vec<f64>,
}

/// All eight ablations, in order.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// Ablation `i + 1` is `tables[i]`.
    pub tables: Vec<Ablation>,
}

/// Cycles needed to service `n` *random* (non-stream) cacheline fetches on
/// `memory` under its natural-order page policy (closed-page CLI, open-page
/// PI) — one outstanding access at a time, as a simple cache-miss path
/// would.
///
/// Supports the paper's remark that page-interleaved open-page systems
/// "should perform much worse than CLI for more random, non-stream
/// accesses, where successive cacheline accesses are unlikely to be to the
/// same RDRAM page."
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn random_access_cycles(memory: MemorySystem, n: usize, seed: u64) -> Cycle {
    assert!(n > 0, "need at least one access");
    let cfg = DeviceConfig::default();
    let map = AddressMap::new(memory.interleave(LINE_BYTES), &cfg).expect("valid interleave");
    let close_page = memory.line_policy() == LinePolicy::ClosedPage;
    let mut dev = Rdram::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let lines = cfg.capacity_bytes() / LINE_BYTES;
    let packets = LINE_BYTES / PACKET_BYTES;
    let mut now = 0;
    for _ in 0..n {
        let loc = map.decode(rng.gen_range(0..lines) * LINE_BYTES);
        let plan = dev.plan(loc);
        let precharge = plan.needs_precharge.then(|| Command::precharge(loc.bank));
        let activate = (plan.needs_precharge || plan.needs_activate)
            .then(|| Command::activate(loc.bank, loc.row));
        for cmd in precharge.into_iter().chain(activate) {
            let t = dev.earliest(&cmd, now);
            dev.issue_at(&cmd, t).expect("legal row command");
            now = t;
        }
        for p in 0..packets {
            let mut cmd = Command::read(loc.bank, loc.col + p * PACKET_BYTES);
            if p + 1 == packets && close_page {
                cmd = cmd.with_auto_precharge();
            }
            let t = dev.earliest(&cmd, now);
            let outcome = dev.issue_at(&cmd, t).expect("legal read");
            now = outcome.data.expect("reads carry data").end;
        }
    }
    now
}

/// DATA-bus efficiency of *pipelined* random cacheline reads on a channel
/// of `devices` RDRAM chips, with up to four line transfers in flight.
///
/// The paper notes its results are "lower than the 95% efficiency rate that
/// Crisp reports" because "we model streaming kernels on a memory system
/// composed of a single RDRAM device, whereas Crisp's experiments model
/// more random access patterns on a system with many devices." This
/// function reproduces that contrast: one device leaves random traffic
/// `tRR`/bank-conflict-bound, while eight devices push efficiency toward
/// Crisp's figure.
///
/// # Panics
///
/// Panics if `devices` or `n` is zero.
pub fn pipelined_random_efficiency(devices: usize, n: usize, seed: u64) -> f64 {
    assert!(devices > 0 && n > 0);
    let cfg = DeviceConfig {
        devices,
        ..DeviceConfig::default()
    };
    let cli = MemorySystem::CacheLineInterleaved.interleave(LINE_BYTES);
    let map = AddressMap::new(cli, &cfg).expect("valid interleave");
    let mut dev = Rdram::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let lines = cfg.capacity_bytes() / LINE_BYTES;

    #[derive(Clone, Copy)]
    struct Op {
        loc: rdram::Location,
        next_col: u64,
        row_done: bool,
    }
    let packets = LINE_BYTES / PACKET_BYTES;
    let mut pending: Vec<Op> = Vec::new();
    let mut issued = 0usize;
    let mut now: Cycle = 0;
    let mut last_data_end = 0;
    while issued < n || !pending.is_empty() {
        while pending.len() < 4 && issued < n {
            pending.push(Op {
                loc: map.decode(rng.gen_range(0..lines) * LINE_BYTES),
                next_col: 0,
                row_done: false,
            });
            issued += 1;
        }
        for k in 0..pending.len() {
            let bank = pending[k].loc.bank;
            if pending[..k].iter().any(|o| o.loc.bank == bank) {
                continue;
            }
            if !pending[k].row_done {
                let plan = dev.plan(pending[k].loc);
                let cmd = if plan.needs_precharge {
                    Command::precharge(bank)
                } else if plan.needs_activate {
                    Command::activate(bank, pending[k].loc.row)
                } else {
                    pending[k].row_done = true;
                    continue;
                };
                if dev.earliest(&cmd, now) <= now {
                    dev.issue_at(&cmd, now).expect("legal row command");
                }
                continue;
            }
            let p = pending[k].next_col;
            let mut cmd = Command::read(bank, pending[k].loc.col + p * PACKET_BYTES);
            if p + 1 == packets {
                cmd = cmd.with_auto_precharge();
            }
            if dev.earliest(&cmd, now) <= now {
                let outcome = dev.issue_at(&cmd, now).expect("legal read");
                last_data_end = outcome.data.expect("reads carry data").end;
                if p + 1 == packets {
                    pending.remove(k);
                } else {
                    pending[k].next_col = p + 1;
                }
                break;
            }
        }
        now += 1;
        assert!(now < 100_000_000, "random pipeline stalled");
    }
    let busy = (n as u64 * packets * rdram::Timing::default().t_pack) as f64;
    busy / last_data_end as f64
}

/// A simulated ablation: every row's jobs run in one parallel grid, and
/// its values are their percents of peak, in job order.
fn simulated(
    title: &'static str,
    columns: &'static [&'static str],
    rows: Vec<(Vec<String>, Vec<KernelJob>)>,
    note: &str,
) -> Ablation {
    let jobs: Vec<KernelJob> = rows.iter().flat_map(|(_, jobs)| jobs.clone()).collect();
    let mut results = run_all(&jobs).into_iter();
    let rows: Vec<Row> = rows
        .into_iter()
        .map(|(labels, jobs)| Row {
            labels,
            values: (&mut results)
                .take(jobs.len())
                .map(|r| r.percent_peak())
                .collect(),
        })
        .collect();
    let width = rows.first().map_or(0, |r| r.values.len());
    Ablation {
        title,
        columns,
        rows,
        note: note.into(),
        decimals: vec![1; width],
    }
}

fn scheduling() -> Ablation {
    let base =
        SystemConfig::smc(MemorySystem::PageInterleaved, 64).with_alignment(Alignment::Aligned);
    let variants = [
        base.clone(),
        base.clone().with_policy(Policy::BankAware),
        base.clone().with_speculation(),
        base.with_policy(Policy::BankAware).with_speculation(),
    ];
    let rows = Kernel::PAPER_SUITE
        .iter()
        .map(|&kernel| {
            let jobs = variants
                .iter()
                .map(|cfg| KernelJob::new(kernel, N, cfg.clone()));
            (vec![kernel.name().into()], jobs.collect())
        })
        .collect();
    simulated(
        "MSU scheduling policy (PI, aligned vectors, f=64)",
        &[
            "kernel",
            "round-robin %",
            "bank-aware %",
            "rr+spec %",
            "ba+spec %",
        ],
        rows,
        "",
    )
}

fn placement() -> Ablation {
    let rows = ORGANIZATIONS
        .iter()
        .flat_map(|&memory| {
            FIFO_DEPTHS.map(|fifo| {
                let jobs = [Alignment::Staggered, Alignment::Aligned].map(|alignment| {
                    let cfg = SystemConfig::smc(memory, fifo).with_alignment(alignment);
                    KernelJob::new(Kernel::Vaxpy, N, cfg)
                });
                (vec![memory.label().into(), fifo.to_string()], jobs.to_vec())
            })
        })
        .collect();
    simulated(
        "vector placement (vaxpy, 1024 elements)",
        &["org", "fifo", "staggered %", "aligned %"],
        rows,
        "",
    )
}

fn random_access() -> Ablation {
    let labels = ["CLI closed-page", "PI open-page"];
    let cycles = ORGANIZATIONS.map(|memory| random_access_cycles(memory, RANDOM_LINES, 42) as f64);
    let rows = labels.iter().zip(cycles).map(|(label, cycles)| Row {
        labels: vec![label.to_string()],
        values: vec![cycles, cycles / RANDOM_LINES as f64],
    });
    Ablation {
        title: "random (non-stream) cacheline accesses",
        columns: &["organization", "cycles", "cycles/line"],
        note: format!(
            "PI pays {:.2}x more for random traffic — the organizations trade\n\
             streaming bandwidth against random-access latency, as the paper notes.",
            cycles[1] / cycles[0]
        ),
        rows: rows.collect(),
        decimals: vec![0, 1],
    }
}

fn substrate() -> Ablation {
    let stream_system = analytic::cache::StreamSystem::default();
    let workload = analytic::smc::Workload::unit(2, 1, 4096);
    // One non-interleaved fast-page-mode part: a page miss, then page-mode
    // hits, with nothing to overlap them.
    let part = fpm::SystemSpec {
        banks: 1,
        ..fpm::SystemSpec::default()
    };
    let rows = [8usize, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|depth| {
            let streams = vec![
                StreamDescriptor::read("x", 0, 1, 4096),
                StreamDescriptor::read("y", 1 << 20, 1, 4096),
                StreamDescriptor::write("z", 1 << 21, 1, 4096),
            ];
            let sim = fpm::FpmSmc::new(fpm::SystemSpec::default(), streams, depth).run();
            let words_per_ns =
                fpm::FpmSmc::attainable_fraction_bound(&part, depth) * part.peak_words_per_ns();
            let rdram_percent = stream_system.smc_asymptotic_bound(&workload, depth as u64);
            Row {
                labels: vec![depth.to_string()],
                values: vec![
                    sim.mbytes_per_sec() / 1000.0,
                    words_per_ns * rdram::ELEM_BYTES as f64,
                    1.6 * rdram_percent / 100.0,
                ],
            }
        })
        .collect();
    Ablation {
        title: "SMC substrate — fast-page-mode DRAM vs Direct RDRAM",
        columns: &[
            "burst / FIFO depth",
            "FPM SMC sim GB/s",
            "FPM asymptote GB/s",
            "RDRAM SMC GB/s",
        ],
        rows,
        note: "FPM saturates at the page-mode cycle rate (the `fpm` crate's two-bank\n\
               simulator tops out near 0.53 GB/s; a single non-interleaved part at\n\
               ~0.27 GB/s); the Direct RDRAM SMC is limited only by bus turnaround\n\
               and approaches 1.6 GB/s."
            .into(),
        decimals: vec![3; 3],
    }
}

fn population() -> Ablation {
    let rows = sweep(&[1usize, 2, 4, 8, 16], |&devices| Row {
        labels: vec![
            devices.to_string(),
            (devices * DeviceConfig::default().banks).to_string(),
        ],
        values: vec![100.0 * pipelined_random_efficiency(devices, RANDOM_LINES, 11)],
    });
    Ablation {
        title: "channel population under pipelined random reads",
        columns: &["devices", "banks", "efficiency %"],
        rows,
        note: "The paper's results are \"lower than the 95% efficiency rate that\n\
               Crisp reports\" because it models a single device; with many devices\n\
               on the channel, tRR no longer serializes row activations and random\n\
               traffic approaches full efficiency."
            .into(),
        decimals: vec![1],
    }
}

fn cpu_speed() -> Ablation {
    let rows = [8usize, 16, 32, 64]
        .into_iter()
        .map(|fifo| {
            let jobs = [2, 1].map(|cycles| {
                let mut cfg = SystemConfig::smc(MemorySystem::CacheLineInterleaved, fifo);
                cfg.cpu_access_cycles = cycles;
                KernelJob::new(Kernel::Daxpy, N, cfg)
            });
            (vec![fifo.to_string()], jobs.to_vec())
        })
        .collect();
    simulated(
        "CPU speed vs FIFO depth (daxpy, CLI, 1024 elements)",
        &["fifo", "matched CPU %", "2x CPU %"],
        rows,
        "A faster processor raises shallow-FIFO performance toward the full\n\
         system bandwidth, as the paper's Section 5.2 predicts.",
    )
}

fn refresh() -> Ablation {
    let rows = ORGANIZATIONS
        .iter()
        .flat_map(|&memory| {
            [Kernel::Copy, Kernel::Vaxpy].map(|kernel| {
                let jobs = [false, true].map(|refresh| {
                    let mut cfg = SystemConfig::smc(memory, 64);
                    cfg.refresh = refresh;
                    KernelJob::new(kernel, N, cfg)
                });
                (
                    vec![kernel.name().into(), memory.label().into()],
                    jobs.to_vec(),
                )
            })
        })
        .collect();
    simulated(
        "honouring DRAM refresh (SMC, 1024 elements)",
        &["kernel", "org", "no refresh %", "with refresh %"],
        rows,
        "The paper ignores refresh; measuring it confirms the assumption\n\
         costs at most a couple of percent.",
    )
}

fn caches() -> Ablation {
    let four_way = CacheConfig::i860xp();
    let direct = CacheConfig {
        ways: 1,
        ..four_way
    };
    let rows = [1u64, 2, 4, 16]
        .into_iter()
        .map(|stride| {
            let jobs = [None, Some(four_way), Some(direct)].map(|cache| {
                let mut cfg = SystemConfig::natural_order(MemorySystem::CacheLineInterleaved)
                    .with_alignment(Alignment::Aligned);
                cfg.cache = cache;
                KernelJob {
                    stride,
                    ..KernelJob::new(Kernel::Vaxpy, N, cfg)
                }
            });
            (vec![stride.to_string()], jobs.to_vec())
        })
        .collect();
    simulated(
        "real caches vs idealized line buffers (vaxpy, CLI, 1024)",
        &[
            "stride",
            "ideal buffers %",
            "16KB 4-way %",
            "16KB direct-mapped %",
        ],
        rows,
        "Two effects the paper's idealized model misses, measured: a real\n\
         cache lets vaxpy's y-write hit the y-read's fetched line (the 4-way\n\
         column BEATS the ideal model), while aligned vectors in a\n\
         direct-mapped cache conflict on every iteration — the \"many cache\n\
         conflicts\" the paper flags as beyond its scope.",
    )
}

/// Measure all eight ablations. The simulated ones fan out across cores.
pub fn run() -> Ablations {
    Ablations {
        tables: vec![
            scheduling(),
            placement(),
            random_access(),
            substrate(),
            population(),
            cpu_speed(),
            refresh(),
            caches(),
        ],
    }
}

impl Ablations {
    /// Render the eight tables, each with its note.
    pub fn render(&self) -> String {
        let mut out = String::from("Ablations beyond the paper's figures\n");
        for (i, a) in self.tables.iter().enumerate() {
            let mut t = Table::new(a.columns.iter().map(|c| c.to_string()).collect());
            for r in &a.rows {
                let values = r.values.iter().zip(&a.decimals);
                t.row(
                    r.labels
                        .iter()
                        .cloned()
                        .chain(values.map(|(v, &d)| format!("{v:.d$}")))
                        .collect(),
                );
            }
            out.push_str(&format!(
                "\n--- ablation {}: {} ---\n\n{}",
                i + 1,
                a.title,
                t.render()
            ));
            if !a.note.is_empty() {
                out.push_str(&format!("\n{}\n", a.note));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// Ablation `n` (1-based), from one run shared by the claim tests.
    fn ablation(n: usize) -> &'static Ablation {
        static RUN: OnceLock<Ablations> = OnceLock::new();
        &RUN.get_or_init(run).tables[n - 1]
    }

    #[test]
    fn random_access_prefers_cli_closed_page() {
        let cli = random_access_cycles(MemorySystem::CacheLineInterleaved, 400, 7);
        let pi = random_access_cycles(MemorySystem::PageInterleaved, 400, 7);
        assert!(
            pi > cli,
            "open-page PI should lose on random accesses: {pi} vs {cli}"
        );
    }

    #[test]
    fn many_devices_approach_crisp_efficiency() {
        let one = pipelined_random_efficiency(1, 500, 3);
        let eight = pipelined_random_efficiency(8, 500, 3);
        assert!(
            eight > one + 0.1,
            "8 devices should be much more efficient: {eight:.2} vs {one:.2}"
        );
        assert!(eight > 0.85, "8-device random efficiency = {eight:.2}");
    }

    // The claims of EXPERIMENTS.md's "Ablations" section, one test per
    // ablation, each at the threshold the prose states.

    #[test]
    fn speculation_lifts_every_kernel_and_bank_aware_never_helps() {
        let base =
            SystemConfig::smc(MemorySystem::PageInterleaved, 64).with_alignment(Alignment::Aligned);
        let bank_aware = base.clone().with_policy(Policy::BankAware);
        for (r, kernel) in ablation(1).rows.iter().zip(Kernel::PAPER_SUITE) {
            let [rr, ba, rr_spec, ba_spec]: [f64; 4] = r.values[..].try_into().unwrap();
            assert!(rr_spec > rr + 2.0 && ba_spec > ba && ba <= rr, "{r:?}");
            if matches!(kernel, Kernel::Daxpy | Kernel::Vaxpy) {
                // Bank-aware selection costs these two more than two points
                // and more than doubles their bus turnarounds.
                let turnarounds = |cfg| {
                    sim::run_kernel(kernel, N, 1, cfg)
                        .unwrap()
                        .device_stats
                        .turnarounds
                };
                assert!(ba < rr - 2.0, "{r:?}");
                assert!(turnarounds(&bank_aware) > 2 * turnarounds(&base), "{r:?}");
            }
        }
    }

    #[test]
    fn aligned_placement_costs_most_on_pi_with_shallow_fifos() {
        let rows = &ablation(2).rows;
        let loss = |r: &Row| r.values[0] - r.values[1];
        let (shallow_pi, rest): (Vec<&Row>, Vec<&Row>) = rows
            .iter()
            .partition(|r| r.labels[0] == "PI" && ["8", "16"].contains(&r.labels[1].as_str()));
        assert_eq!(shallow_pi.len(), 2);
        for r in shallow_pi {
            assert!(loss(r) > 20.0, "{r:?}");
            assert!(rest.iter().all(|o| loss(o) < loss(r)), "{r:?}");
        }
        for r in rows {
            match (r.labels[0].as_str(), r.labels[1].as_str()) {
                (_, "128") => assert!(loss(r).abs() < 0.2, "{r:?}"),
                ("CLI", "16" | "32" | "64") => assert!(loss(r) < 0.0, "{r:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn open_page_pi_pays_over_a_fifth_more_for_random_fills() {
        let [cli, pi] = [0, 1].map(|i| ablation(3).rows[i].values[0]);
        assert!(pi > 1.2 * cli, "{pi} vs {cli}");
    }

    #[test]
    fn fpm_is_page_miss_limited_and_rdram_approaches_its_peak() {
        let rows = &ablation(4).rows;
        let fpm = rdram::legacy::FIGURE_1[0];
        for pair in rows.windows(2) {
            for col in 0..3 {
                assert!(pair[1].values[col] > pair[0].values[col], "{pair:?}");
            }
        }
        for r in rows {
            let [sim, asymptote, rdram]: [f64; 3] = r.values[..].try_into().unwrap();
            // Page-mode peaks: 8 bytes per tPC per bank.
            assert!(sim < 2.0 * 8.0 / fpm.t_pc_ns, "{r:?}");
            assert!(asymptote < 8.0 / fpm.t_pc_ns, "{r:?}");
            assert!(rdram > 3.0 * sim, "{r:?}");
            // One page miss, then page-mode hits: 8b / (tRC + (b - 1) tPC).
            let b: f64 = r.labels[0].parse().unwrap();
            let burst = 8.0 * b / (fpm.t_rc_ns + (b - 1.0) * fpm.t_pc_ns);
            assert!((asymptote - burst).abs() < 1e-12, "{r:?}");
        }
        assert!(rows.last().unwrap().values[2] > 1.59);
    }

    #[test]
    fn one_device_sits_below_crisps_95_percent_and_two_exceed_it() {
        let efficiency: Vec<f64> = ablation(5).rows.iter().map(|r| r.values[0]).collect();
        assert!(efficiency[0] < 95.0, "{efficiency:?}");
        assert!(efficiency[1..].iter().all(|&e| e > 95.0), "{efficiency:?}");
        assert!(
            efficiency.windows(2).all(|w| w[1] >= w[0]),
            "{efficiency:?}"
        );
    }

    #[test]
    fn a_faster_cpu_lifts_only_shallow_fifos() {
        for r in &ablation(6).rows {
            let lift = r.values[1] - r.values[0];
            if ["8", "16"].contains(&r.labels[0].as_str()) {
                assert!(lift > 0.0 && lift < 2.0, "{r:?}");
            } else {
                assert!(lift.abs() < 1.5, "{r:?}");
            }
        }
    }

    #[test]
    fn refresh_costs_at_most_four_tenths_of_a_point() {
        for r in &ablation(7).rows {
            assert!(r.values[0] - r.values[1] <= 0.4, "{r:?}");
        }
    }

    #[test]
    fn real_caches_cut_both_ways() {
        let rows = &ablation(8).rows;
        for r in rows {
            let [ideal, four_way, _]: [f64; 3] = r.values[..].try_into().unwrap();
            assert!(four_way > ideal, "{r:?}");
        }
        let [ideal, _, direct_mapped]: [f64; 3] = rows[0].values[..].try_into().unwrap();
        assert_eq!(rows[0].labels[0], "1");
        assert!(direct_mapped < ideal / 4.0, "{:?}", rows[0]);
    }
}
