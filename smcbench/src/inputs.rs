//! Workload inputs, made from the seed alone.
//!
//! The seed sets the fault and chaos seeds and adds a seeded length offset
//! in `[0, n/64)` to every stream point (`[0, 1024)` at n = 65536), so the
//! benchmark never runs one fixed geometry. The set-up phase builds these
//! inputs; the timed passes only consume them.

use campaign::{CampaignSpec, RunPoint};
use kernels::Kernel;
use sim::{MemorySystem, SystemConfig};
use tenancy::{RetryPolicy, ServeConfig, TenantMix};

use crate::catalog::Workload;

/// One kernel run of a stream workload.
#[derive(Debug, Clone)]
pub struct StreamPoint {
    /// Kernel to run.
    pub kernel: Kernel,
    /// Elements per stream.
    pub n: u64,
    /// Stride in 64-bit words.
    pub stride: u64,
    /// The simulated system.
    pub cfg: SystemConfig,
}

impl StreamPoint {
    /// Short label naming the point in spans and error messages.
    pub fn label(&self) -> String {
        let order = match self.cfg.ordering {
            sim::AccessOrder::NaturalOrder => "natural".to_string(),
            sim::AccessOrder::Smc { fifo_depth } => format!("smc{fifo_depth}"),
        };
        format!(
            "{}/{}/{}/s{}/n{}/ch{}",
            self.kernel,
            order,
            self.cfg.memory.label(),
            self.stride,
            self.n,
            self.cfg.channels
        )
    }
}

/// The multi-tenant serve of the `serve-chaos` workload.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Tenants, with seeded length offsets applied to each request size.
    pub mix: TenantMix,
    /// Serving-layer configuration.
    pub cfg: ServeConfig,
    /// The simulated system every request runs on (chaos plan included).
    pub base: SystemConfig,
}

/// Everything one workload's passes consume.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Independent kernel runs.
    Streams(Vec<StreamPoint>),
    /// A campaign grid: the spec and its expanded, length-offset points.
    Campaign {
        /// The grid's declarative form.
        spec: CampaignSpec,
        /// The points the passes run.
        points: Vec<RunPoint>,
    },
    /// A multi-tenant serve.
    Serve(ServeInputs),
}

const CLI: MemorySystem = MemorySystem::CacheLineInterleaved;
const PI: MemorySystem = MemorySystem::PageInterleaved;

/// SMC FIFO depth of the stream and multichannel workloads.
const STREAM_FIFO: usize = 128;

/// The serve workload's tenants: `ls` and `bh` request sizes.
const SERVE_LS_N: u64 = 512;
const SERVE_BH_N: u64 = 4096;
/// Brownout on channel 0 for the whole serve, one outage on channel 1.
const SERVE_CHAOS: &str = "brownout:0:0:400000:4;outage:1:500:3000";

/// SplitMix64 step: a well-mixed 64-bit value from `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded length offset for point `index` of length `n`: in `[0, n/64)`.
fn length_offset(seed: u64, index: usize, n: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index as u64)) % (n / 64).max(1)
}

/// Build `workload`'s inputs for `seed`, with every base length divided by
/// `shrink` (1 is the benchmark's size; tests pass larger values).
///
/// # Panics
///
/// Panics if `shrink` is zero or a built-in spec fails to parse, both of
/// which are bugs in the caller or this module.
pub fn build(workload: Workload, seed: u64, shrink: u64) -> Inputs {
    assert!(shrink > 0, "shrink divides lengths and must be positive");
    let len = |n: u64| (n / shrink).max(64);
    match workload {
        Workload::StreamSmc | Workload::StreamNatural => {
            let smc = workload == Workload::StreamSmc;
            let mut shapes: Vec<(Kernel, MemorySystem, u64, u64)> = Vec::new();
            for kernel in Kernel::PAPER_SUITE {
                for memory in [CLI, PI] {
                    shapes.push((kernel, memory, len(65_536), 1));
                }
            }
            if smc {
                shapes.push((Kernel::Daxpy, CLI, len(16_384), 4));
                shapes.push((Kernel::Vaxpy, PI, len(16_384), 4));
            }
            let points = shapes
                .into_iter()
                .enumerate()
                .map(|(i, (kernel, memory, n, stride))| StreamPoint {
                    kernel,
                    n: n + length_offset(seed, i, n),
                    stride,
                    cfg: if smc {
                        SystemConfig::smc(memory, STREAM_FIFO)
                    } else {
                        SystemConfig::natural_order(memory)
                    },
                })
                .collect();
            Inputs::Streams(points)
        }
        Workload::Multichannel => {
            let interleaved = memsys::Placement::parse("interleaved").expect("valid placement");
            let numa = memsys::Placement::parse("numa:0").expect("valid placement");
            let mut points = Vec::new();
            for kernel in [Kernel::Daxpy, Kernel::Vaxpy] {
                let base = SystemConfig::smc(CLI, STREAM_FIFO);
                let mut cfgs: Vec<SystemConfig> = [2, 4, 8]
                    .into_iter()
                    .map(|ch| base.clone().with_channels(ch).with_placement(interleaved))
                    .collect();
                cfgs.push(
                    base.with_channels(2)
                        .with_placement(numa)
                        .with_remote_penalty(vec![0, 40]),
                );
                for cfg in cfgs {
                    let n = len(65_536);
                    points.push(StreamPoint {
                        kernel,
                        n: n + length_offset(seed, points.len(), n),
                        stride: 1,
                        cfg,
                    });
                }
            }
            Inputs::Streams(points)
        }
        Workload::Campaign => {
            let mut spec = CampaignSpec::named("smcbench-campaign");
            spec.axes.kernels = Kernel::PAPER_SUITE
                .iter()
                .map(|k| k.name().to_string())
                .collect();
            spec.axes.orders = vec!["smc".into(), "natural".into()];
            spec.axes.memories = vec!["cli".into(), "pi".into()];
            spec.axes.fifos = vec![32];
            spec.axes.lengths = vec![len(4096)];
            // Eight retries, not four: at 5% NACKs a transfer fails only
            // after nine NACKed attempts in a row, so no seed ends a run in
            // retry exhaustion (with four, about one seed in ten did).
            spec.axes.faults = vec![
                String::new(),
                "nack:50:8".into(),
                "busy:*:256:16;stall:1024:32".into(),
            ];
            spec.axes.fault_seeds = vec![seed];
            spec.axes.attributions = vec![0, 1];
            let mut points = campaign::expand(&spec);
            for (i, p) in points.iter_mut().enumerate() {
                p.n += length_offset(seed, i, p.n);
            }
            Inputs::Campaign { spec, points }
        }
        Workload::ServeChaos => {
            let spec = format!(
                "ls:8:daxpy:{}+bh:8:copy:{}",
                len(SERVE_LS_N),
                len(SERVE_BH_N)
            );
            let mut mix = TenantMix::parse(&spec).expect("valid tenant mix");
            // Offsets change each request's size, not the arrival cadence
            // and deadlines the mix grammar derived from the base size.
            for (i, t) in mix.tenants.iter_mut().enumerate() {
                t.n += length_offset(seed, i, t.n);
            }
            let plan = faults::FaultPlan::parse(SERVE_CHAOS).expect("valid chaos plan");
            let base = SystemConfig::smc(CLI, 32)
                .with_channels(2)
                .with_chaos(plan, seed);
            let banks = base.device.total_banks() * base.channels;
            let mut cfg = sim::serve::serve_config_for(banks, 0, base.device.timing.t_pack);
            cfg.policy = "regulated".to_string();
            cfg.queue_capacity = 4;
            cfg.retry = RetryPolicy::with_budget(2, seed);
            Inputs::Serve(ServeInputs { mix, cfg, base })
        }
    }
}
