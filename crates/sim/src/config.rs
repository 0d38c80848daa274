//! System-level configuration: memory organization, access ordering, and
//! vector placement.

use serde::{Deserialize, Serialize};

use analytic::Organization;
use baseline::LinePolicy;
use faults::{FaultClause, FaultInjector};
use memsys::{Placement, SystemMap, Topology};
use rdram::{AddressMap, Cycle, DeviceConfig, Interleave};
use smc::{PagePolicy, Policy};

use crate::SimError;

fn default_channels() -> usize {
    1
}

/// Default cacheline size: 32 bytes = 4 elements, as in the paper.
pub const DEFAULT_LINE_BYTES: u64 = 32;

/// The two memory organizations of the paper's Section 4, coupling an
/// interleaving scheme with its natural page policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemorySystem {
    /// Cacheline interleaving + closed-page policy ("CLI").
    CacheLineInterleaved,
    /// Page interleaving + open-page policy ("PI").
    PageInterleaved,
}

impl MemorySystem {
    /// The address interleaving for this organization.
    pub fn interleave(self, line_bytes: u64) -> Interleave {
        match self {
            MemorySystem::CacheLineInterleaved => Interleave::Cacheline { line_bytes },
            MemorySystem::PageInterleaved => Interleave::Page,
        }
    }

    /// Page policy for the natural-order (cacheline) controller.
    pub fn line_policy(self) -> LinePolicy {
        match self {
            MemorySystem::CacheLineInterleaved => LinePolicy::ClosedPage,
            MemorySystem::PageInterleaved => LinePolicy::OpenPage,
        }
    }

    /// Page policy for the SMC's MSU.
    pub fn page_policy(self) -> PagePolicy {
        match self {
            MemorySystem::CacheLineInterleaved => PagePolicy::ClosedPage,
            MemorySystem::PageInterleaved => PagePolicy::OpenPage,
        }
    }

    /// The corresponding analytic-model organization.
    pub fn organization(self) -> Organization {
        match self {
            MemorySystem::CacheLineInterleaved => Organization::CacheLineInterleaved,
            MemorySystem::PageInterleaved => Organization::PageInterleaved,
        }
    }

    /// "CLI" / "PI".
    pub fn label(self) -> &'static str {
        self.organization().label()
    }
}

/// How stream accesses reach the DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessOrder {
    /// Conventional controller: cacheline fills in the computation's
    /// natural order.
    NaturalOrder,
    /// Stream Memory Controller with per-stream FIFOs of the given depth
    /// (in elements).
    Smc {
        /// FIFO depth in 64-bit elements.
        fifo_depth: usize,
    },
}

/// Vector base-address placement (Section 4.2): the two extremes the paper
/// simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Alignment {
    /// All vector bases map to the same bank: maximal bank conflicts when
    /// the MSU switches FIFOs.
    Aligned,
    /// Bases staggered so successive vectors start in different banks.
    Staggered,
}

/// A complete simulated system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Memory organization (interleaving + page policy).
    pub memory: MemorySystem,
    /// Access-ordering scheme.
    pub ordering: AccessOrder,
    /// Vector placement.
    pub alignment: Alignment,
    /// MSU scheduling policy (SMC runs only).
    pub policy: Policy,
    /// Speculatively activate upcoming pages (SMC runs only).
    pub speculative: bool,
    /// Cacheline size in bytes.
    pub line_bytes: u64,
    /// RDRAM device configuration.
    pub device: DeviceConfig,
    /// Cycles between successive CPU stream accesses. The paper's
    /// matched-bandwidth assumption is 2 (one 64-bit element per two
    /// interface-clock cycles = the memory's peak supply rate); 1 models a
    /// CPU twice as fast as the memory.
    pub cpu_access_cycles: u64,
    /// Honour DRAM refresh obligations during SMC runs (the paper ignores
    /// refresh; enabling it measures the ~1% cost of that assumption).
    pub refresh: bool,
    /// Charge write-allocate fetches and dirty-line writebacks in
    /// natural-order runs (the paper's bounds ignore writebacks; this
    /// measures them).
    pub write_allocate: bool,
    /// Route natural-order runs through a real set-associative cache (with
    /// conflict misses and dirty evictions) instead of the paper's
    /// idealized per-stream line buffers.
    pub cache: Option<baseline::cache::CacheConfig>,
    /// Record every issued command with the cycle the memory system
    /// delivered it at (its launch cycle unless a chaos plan deferred or
    /// stretched it), exposing the stream on
    /// [`RunResult::commands`](crate::RunResult) (the
    /// `smcsim --record-trace` format checked by `smcsim check`).
    pub record_commands: bool,
    /// Replay the recorded command stream through the timing-conformance
    /// checker after the run and fail with
    /// [`SimError::Conformance`](crate::SimError) on any violation.
    /// Defaults to on in debug builds (every test run audits its own
    /// schedule) and off in release builds.
    pub check_conformance: bool,
    /// Verify the memory image of every SMC run against the kernel's
    /// scalar reference after the run (the SMC moves real data; the
    /// natural-order controller is a timing model that moves none, so
    /// natural-order runs have nothing to verify).
    pub verify: bool,
    /// Fault-injection plan: device-level clauses (busy windows, refresh
    /// storms, DATA NACKs, controller stalls), attached to the memory
    /// system, which times commands by it and lends it to the controller.
    /// `None` or an empty plan runs clean.
    pub faults: Option<faults::FaultPlan>,
    /// Seed for the fault injector's pseudo-random draws.
    pub fault_seed: u64,
    /// Collect cycle-resolved telemetry: a metrics registry, bank/bus/FIFO
    /// timelines replayed from the command stream, and controller events,
    /// exposed on [`RunResult::telemetry`](crate::RunResult) and audited in
    /// every build ([`SimError::Audit`]). Implies command recording
    /// internally; cycle counts are unaffected.
    pub telemetry: bool,
    /// Independent memory channels, each shaped like [`Self::device`]. The
    /// paper's system is one channel; more channels multiply peak DATA
    /// bandwidth and give the MSU cross-channel reordering room.
    #[serde(default = "default_channels")]
    pub channels: usize,
    /// How addresses are placed across channels (ignored at one channel).
    #[serde(default)]
    pub placement: Placement,
    /// Per-channel ROW-delivery penalty in interface-clock cycles
    /// (NUMA-style asymmetry; see [`memsys::Topology::remote_penalty`]).
    /// Empty means a symmetric system.
    #[serde(default)]
    pub remote_penalty: Vec<Cycle>,
    /// Channel-level chaos plan: brownouts, outages, and device failures
    /// interpreted by the memory-system router (degraded-mode delivery
    /// with exact per-channel loss accounting). `None` — or a plan with no
    /// channel-scoped clauses — runs healthy and is provably inert.
    #[serde(default)]
    pub chaos: Option<faults::FaultPlan>,
    /// Seed the chaos injector is built with. Every channel clause is a
    /// deterministic window that draws nothing from it, so today two runs
    /// differing only in this seed are identical.
    #[serde(default)]
    pub chaos_seed: u64,
}

impl SystemConfig {
    /// An SMC system with the paper's round-robin MSU and staggered vectors.
    pub fn smc(memory: MemorySystem, fifo_depth: usize) -> Self {
        SystemConfig {
            memory,
            ordering: AccessOrder::Smc { fifo_depth },
            ..Self::natural_order(memory)
        }
    }

    /// A conventional natural-order system with staggered vectors.
    pub fn natural_order(memory: MemorySystem) -> Self {
        SystemConfig {
            memory,
            ordering: AccessOrder::NaturalOrder,
            alignment: Alignment::Staggered,
            policy: Policy::RoundRobin,
            speculative: false,
            line_bytes: DEFAULT_LINE_BYTES,
            device: DeviceConfig::default(),
            cpu_access_cycles: crate::CYCLES_PER_ACCESS,
            refresh: false,
            write_allocate: false,
            cache: None,
            record_commands: false,
            check_conformance: cfg!(debug_assertions),
            verify: true,
            faults: None,
            fault_seed: 0,
            telemetry: false,
            channels: default_channels(),
            placement: Placement::default(),
            remote_penalty: Vec::new(),
            chaos: None,
            chaos_seed: 0,
        }
    }

    /// Replace the channel count (placement and penalties unchanged).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Replace the cross-channel address placement.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Replace the per-channel ROW-delivery penalties.
    pub fn with_remote_penalty(mut self, remote_penalty: Vec<Cycle>) -> Self {
        self.remote_penalty = remote_penalty;
        self
    }

    /// The channel/device topology this configuration describes: `channels`
    /// channels of [`Self::device`]'s device count each.
    pub fn topology(&self) -> Topology {
        Topology {
            channels: self.channels,
            devices_per_channel: self.device.devices,
            remote_penalty: self.remote_penalty.clone(),
        }
    }

    /// The address map and memory system this configuration describes:
    /// the device, address map, topology and placement validated, and the
    /// device-level [`Self::faults`] plan and the channel-scoped clauses of
    /// [`Self::chaos`] attached.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the first invalid part, or the first
    /// fault or chaos clause aimed at a bank, channel or device the system
    /// lacks (such a clause would run silently inert).
    pub fn build_memory(&self) -> Result<(SystemMap, memsys::MemorySystem), SimError> {
        let invalid = |what: &str, e: String| SimError::Config(format!("invalid {what}: {e}"));
        self.device
            .validate()
            .map_err(|e| invalid("device config", e))?;
        let inner = AddressMap::new(self.memory.interleave(self.line_bytes), &self.device)
            .map_err(|e| invalid("address map", e))?;
        let topo = self.topology();
        topo.validate().map_err(|e| invalid("topology", e))?;
        let map = if topo.is_single() {
            SystemMap::single(inner)
        } else {
            SystemMap::new(inner, &self.device, &topo, self.placement)
                .map_err(|e| invalid("placement", e))?
        };
        for (plan, kind) in [(&self.faults, "fault"), (&self.chaos, "chaos")] {
            for clause in plan.iter().flat_map(|p| &p.clauses) {
                if let Some(missing) = self.missing_target(clause) {
                    return Err(SimError::Config(format!(
                        "{kind} clause `{clause}` names {missing}"
                    )));
                }
            }
        }
        let mut dev = memsys::MemorySystem::new(self.device.clone(), topo);
        if let Some(plan) = self.faults.as_ref().filter(|p| !p.is_empty()) {
            dev.set_faults(FaultInjector::new(plan, self.fault_seed));
        }
        if let Some(plan) = &self.chaos {
            dev.set_chaos(FaultInjector::new(plan, self.chaos_seed));
        }
        Ok((map, dev))
    }

    /// The bank, channel or device `clause` names that this system lacks,
    /// if any.
    fn missing_target(&self, clause: &FaultClause) -> Option<String> {
        let (what, index, count) = match *clause {
            FaultClause::BankBusy {
                bank: Some(bank), ..
            } => ("bank", bank, self.channels * self.device.total_banks()),
            FaultClause::ChannelBrownout { channel, .. }
            | FaultClause::ChannelOutage { channel, .. } => ("channel", channel, self.channels),
            FaultClause::DeviceFail {
                channel, device, ..
            } => {
                if channel >= self.channels {
                    ("channel", channel, self.channels)
                } else {
                    ("device", device, self.device.devices)
                }
            }
            FaultClause::BankBusy { bank: None, .. }
            | FaultClause::DataNack { .. }
            | FaultClause::RefreshStorm { .. }
            | FaultClause::Stall { .. } => return None,
        };
        let per = if what == "device" { " per channel" } else { "" };
        (index >= count)
            .then(|| format!("{what} {index}, which the system lacks ({what}s{per}: {count})"))
    }

    /// Replace the vector alignment.
    pub fn with_alignment(mut self, alignment: Alignment) -> Self {
        self.alignment = alignment;
        self
    }

    /// Replace the MSU scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable speculative next-page activation in the MSU.
    pub fn with_speculation(mut self) -> Self {
        self.speculative = true;
        self
    }

    /// Record the issued command stream (and keep it on the result).
    pub fn with_command_recording(mut self) -> Self {
        self.record_commands = true;
        self
    }

    /// Collect cycle-resolved telemetry during the run.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Inject `plan` with the given injector seed.
    pub fn with_faults(mut self, plan: faults::FaultPlan, seed: u64) -> Self {
        self.faults = Some(plan);
        self.fault_seed = seed;
        self
    }

    /// Route channel-scoped clauses of `plan` through the memory system's
    /// degraded-mode delivery path. Plans without channel-scoped clauses
    /// leave the system healthy.
    pub fn with_chaos(mut self, plan: faults::FaultPlan, seed: u64) -> Self {
        self.chaos = Some(plan);
        self.chaos_seed = seed;
        self
    }

    /// Whether this configuration carries an active (channel-scoped)
    /// chaos plan.
    pub fn chaos_active(&self) -> bool {
        self.chaos.as_ref().is_some_and(|p| p.has_channel_faults())
    }

    /// The analytic stream-system parameters matching this configuration.
    pub fn stream_system(&self) -> analytic::cache::StreamSystem {
        analytic::cache::StreamSystem {
            timing: self.device.timing,
            line_words: self.line_bytes / rdram::ELEM_BYTES,
            page_words: self.device.words_per_page(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organizations_couple_policies() {
        let cli = MemorySystem::CacheLineInterleaved;
        assert_eq!(cli.line_policy(), LinePolicy::ClosedPage);
        assert_eq!(cli.page_policy(), PagePolicy::ClosedPage);
        assert_eq!(cli.label(), "CLI");
        let pi = MemorySystem::PageInterleaved;
        assert_eq!(pi.line_policy(), LinePolicy::OpenPage);
        assert_eq!(pi.page_policy(), PagePolicy::OpenPage);
        assert_eq!(pi.interleave(32), Interleave::Page);
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::smc(MemorySystem::PageInterleaved, 32)
            .with_alignment(Alignment::Aligned)
            .with_policy(Policy::BankAware)
            .with_speculation()
            .with_command_recording();
        assert_eq!(cfg.ordering, AccessOrder::Smc { fifo_depth: 32 });
        assert_eq!(cfg.alignment, Alignment::Aligned);
        assert_eq!(cfg.policy, Policy::BankAware);
        assert!(cfg.speculative && cfg.record_commands && cfg.verify);
    }

    #[test]
    fn stream_system_mirrors_geometry() {
        let sys = SystemConfig::natural_order(MemorySystem::CacheLineInterleaved).stream_system();
        assert_eq!(sys.line_words, 4);
        assert_eq!(sys.page_words, 128);
        sys.validate().unwrap();
    }
}
