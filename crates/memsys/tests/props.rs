//! Property suite for the system address map: randomized topologies ×
//! placements × per-channel interleavings, checking the two contracts the
//! controllers rely on:
//!
//! 1. **Bijectivity** — `encode` inverts `decode` exactly on every address
//!    in the system's range, and the decoded channel always agrees with
//!    [`SystemMap::split`]. A placement that dropped or aliased addresses
//!    would corrupt stream data silently; the round trip makes that a
//!    seeded counterexample instead.
//! 2. **Channel balance** — channel-interleaved placement spreads any
//!    aligned run of blocks across channels with per-channel counts within
//!    one of each other; sequential placement keeps one extent on one
//!    channel; NUMA placement homes everything.

use faults::{FaultInjector, FaultPlan};
use proptest::prelude::*;

use memsys::{MemorySystem, Placement, SystemMap, Topology};
use rdram::{AddressMap, Command, DeviceConfig, Interleave, PACKET_BYTES};

/// A generated system shape: topology, placement, and inner interleave.
#[derive(Debug, Clone)]
struct Shape {
    channels: usize,
    devices: usize,
    placement: Placement,
    page_interleave: bool,
}

impl Shape {
    fn build(&self) -> (SystemMap, DeviceConfig) {
        let cfg = DeviceConfig {
            devices: self.devices,
            ..DeviceConfig::default()
        };
        let interleave = if self.page_interleave {
            Interleave::Page
        } else {
            Interleave::Cacheline { line_bytes: 32 }
        };
        let inner = AddressMap::new(interleave, &cfg).expect("inner map builds");
        let topo = Topology {
            channels: self.channels,
            devices_per_channel: self.devices,
            remote_penalty: Vec::new(),
        };
        let map = SystemMap::new(inner, &cfg, &topo, self.placement).expect("valid shape");
        (map, cfg)
    }

    /// Total bytes the whole system addresses.
    fn total_bytes(&self, cfg: &DeviceConfig) -> u64 {
        match self.placement {
            // NUMA exposes one channel's worth of address space.
            Placement::Numa { .. } => cfg.capacity_bytes(),
            Placement::ChannelInterleaved { .. } | Placement::DeviceSequential => {
                cfg.capacity_bytes() * self.channels as u64
            }
        }
    }
}

/// Strategy over valid shapes: 1-8 channels, 1-4 devices per channel, all
/// three placements (interleave blocks are packet-aligned powers of two,
/// so they always divide the power-of-two channel capacity).
fn shapes() -> impl Strategy<Value = Shape> {
    (1usize..9, 1usize..5, 0u32..4, any::<bool>(), 0usize..8).prop_map(
        |(channels, devices, kind, page_interleave, extra)| {
            let placement = match kind {
                0 => Placement::ChannelInterleaved {
                    block_bytes: PACKET_BYTES << (extra % 10),
                },
                1 => Placement::DeviceSequential,
                2 => Placement::Numa {
                    home: extra % channels,
                },
                _ => Placement::default(),
            };
            Shape {
                channels,
                devices,
                placement,
                page_interleave,
            }
        },
    )
}

proptest! {
    /// `encode(decode(addr)) == addr` on every placement, and the decoded
    /// global bank lives on the channel `split` assigns the address to.
    #[test]
    fn decode_encode_round_trips_and_banks_stay_in_range(
        shape in shapes(),
        addr_seeds in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let (map, cfg) = shape.build();
        let total = shape.total_bytes(&cfg);
        for seed in addr_seeds {
            // Packet-aligned addresses within the system's range (the
            // stream layouts only ever produce aligned addresses).
            let addr = (seed % total) / PACKET_BYTES * PACKET_BYTES;
            let loc = map.decode(addr);
            prop_assert!(loc.bank < map.banks(), "bank {} of {}", loc.bank, map.banks());
            let (ch, _) = map.split(addr);
            prop_assert_eq!(map.channel_of_bank(loc.bank), ch, "addr {}", addr);
            prop_assert_eq!(map.encode(loc), addr, "round trip at {}", addr);
        }
    }

    /// Distinct addresses never alias to one location: decode is injective
    /// on the packet-aligned address range (a direct corollary of the
    /// round trip, asserted independently over random pairs).
    #[test]
    fn decode_never_aliases_two_addresses(
        shape in shapes(),
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
    ) {
        let (map, cfg) = shape.build();
        let total = shape.total_bytes(&cfg);
        let a = (a_seed % total) / PACKET_BYTES * PACKET_BYTES;
        let b = (b_seed % total) / PACKET_BYTES * PACKET_BYTES;
        if a == b {
            continue;
        }
        let (la, lb) = (map.decode(a), map.decode(b));
        prop_assert!(
            la.bank != lb.bank || la.row != lb.row || la.col != lb.col,
            "addresses {} and {} alias to {:?}", a, b, la
        );
    }

    /// Channel-interleaved placement balances any aligned run of blocks:
    /// per-channel block counts stay within one of each other, and a full
    /// rotation touches every channel exactly once.
    #[test]
    fn interleaved_runs_balance_across_channels(
        channels in 2usize..9,
        devices in 1usize..5,
        block_shift in 0u32..7,
        start_block in 0u64..1024,
        run_blocks in 1usize..256,
    ) {
        let shape = Shape {
            channels,
            devices,
            placement: Placement::ChannelInterleaved {
                block_bytes: PACKET_BYTES << block_shift,
            },
            page_interleave: true,
        };
        let (map, cfg) = shape.build();
        let block_bytes = PACKET_BYTES << block_shift;
        let total_blocks = shape.total_bytes(&cfg) / block_bytes;
        let mut counts = vec![0u64; channels];
        for i in 0..run_blocks as u64 {
            let block = (start_block + i) % total_blocks;
            let (ch, _) = map.split(block * block_bytes);
            counts[ch] += 1;
        }
        let min = counts.iter().copied().min().unwrap_or(0);
        let max = counts.iter().copied().max().unwrap_or(0);
        prop_assert!(
            max - min <= 1,
            "run of {} blocks from {}: counts {:?}", run_blocks, start_block, counts
        );
        if run_blocks >= channels {
            prop_assert_eq!(min, run_blocks as u64 / channels as u64);
        }
    }

    /// Sequential placement keeps each capacity-sized extent on a single
    /// channel, in channel order; NUMA placement homes every address.
    #[test]
    fn sequential_and_numa_concentrate_traffic_as_specified(
        channels in 2usize..9,
        devices in 1usize..5,
        home_seed in 0usize..8,
        addr_seeds in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        let seq = Shape {
            channels,
            devices,
            placement: Placement::DeviceSequential,
            page_interleave: true,
        };
        let (map, cfg) = seq.build();
        let cap = cfg.capacity_bytes();
        for seed in &addr_seeds {
            let addr = (seed % (cap * channels as u64)) / PACKET_BYTES * PACKET_BYTES;
            let (ch, local) = map.split(addr);
            prop_assert_eq!(ch as u64, addr / cap, "extent owner at {}", addr);
            prop_assert_eq!(local, addr % cap);
        }
        let home = home_seed % channels;
        let numa = Shape {
            channels,
            devices,
            placement: Placement::Numa { home },
            page_interleave: true,
        };
        let (map, _) = numa.build();
        for seed in &addr_seeds {
            let addr = (seed % cap) / PACKET_BYTES * PACKET_BYTES;
            let (ch, _) = map.split(addr);
            prop_assert_eq!(ch, home, "NUMA home at {}", addr);
            prop_assert_eq!(map.channel_of_bank(map.decode(addr).bank), home);
        }
    }

    /// Failed-channel topologies: with one channel declared down, the
    /// address map stays a bijection over the *surviving* global bank
    /// space — survivors round-trip exactly, never alias each other, and
    /// never decode into the failed channel's bank range. (The map is
    /// placement-only, so a chaos plan must not bend it; this pins that.)
    #[test]
    fn failed_channel_topologies_stay_bijective_on_survivors(
        shape in shapes(),
        failed_seed in any::<usize>(),
        addr_seeds in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let (map, cfg) = shape.build();
        let failed = failed_seed % shape.channels;
        let bpc = map.banks() / shape.channels;
        let total = shape.total_bytes(&cfg);
        let mut survivors: Vec<(u64, rdram::Location)> = Vec::new();
        for seed in addr_seeds {
            let addr = (seed % total) / PACKET_BYTES * PACKET_BYTES;
            let (ch, _) = map.split(addr);
            if ch == failed {
                continue;
            }
            let loc = map.decode(addr);
            // Survivors never land in the failed channel's bank range.
            let owner = map.channel_of_bank(loc.bank);
            prop_assert_ne!(owner, failed, "addr {} decoded into the failed channel", addr);
            prop_assert!(
                loc.bank < failed * bpc || loc.bank >= (failed + 1) * bpc,
                "bank {} inside failed range [{}, {})", loc.bank, failed * bpc, (failed + 1) * bpc
            );
            prop_assert_eq!(map.encode(loc), addr, "survivor round trip at {}", addr);
            survivors.push((addr, loc));
        }
        // No two surviving addresses alias one location.
        for (i, (a, la)) in survivors.iter().enumerate() {
            for (b, lb) in survivors.iter().skip(i + 1) {
                if a != b {
                    prop_assert!(
                        la.bank != lb.bank || la.row != lb.row || la.col != lb.col,
                        "survivors {} and {} alias to {:?}", a, b, la
                    );
                }
            }
        }
    }

    /// Degraded-mode accounting sums exactly: under seeded chaos plans,
    /// the system-wide totals equal the field-wise per-channel sum, MTTR
    /// reconciles against the injected outage windows, and healthy
    /// channels stay clean.
    #[test]
    fn chaos_stats_sum_exactly_under_seeded_plans(
        channels in 2usize..5,
        chaos_seed in any::<u64>(),
        bank_seeds in prop::collection::vec(any::<usize>(), 8..48),
    ) {
        let cfg = DeviceConfig::default();
        let topo = Topology {
            channels,
            devices_per_channel: cfg.devices,
            remote_penalty: Vec::new(),
        };
        let plan = FaultPlan::chaos_from_seed(chaos_seed, channels, topo.devices_per_channel);
        // Every clause names a channel and device the topology has, so
        // none of them runs inert.
        for c in &plan.clauses {
            let (channel, device) = match *c {
                faults::FaultClause::ChannelBrownout { channel, .. }
                | faults::FaultClause::ChannelOutage { channel, .. } => (channel, 0),
                faults::FaultClause::DeviceFail { channel, device, .. } => (channel, device),
                faults::FaultClause::BankBusy { .. }
                | faults::FaultClause::DataNack { .. }
                | faults::FaultClause::RefreshStorm { .. }
                | faults::FaultClause::Stall { .. } => unreachable!("a chaos plan has only channel clauses"),
            };
            prop_assert!(
                channel < channels && device < topo.devices_per_channel,
                "{} names a target the topology lacks", plan.to_spec()
            );
        }
        let mut sys = MemorySystem::new(cfg, topo);
        sys.set_chaos(FaultInjector::new(&plan, chaos_seed));
        let banks = sys.total_banks();
        let mut now = 0u64;
        for (i, seed) in bank_seeds.iter().enumerate() {
            let bank = seed % banks;
            let act = Command::activate(bank, (i % 4) as u64);
            let t = sys.earliest(&act, now);
            prop_assert!(t < u64::MAX, "chaos plan {} livelocked ACT", plan.to_spec());
            sys.issue_at(&act, t).expect("earliest-then-issue holds under chaos");
            let col = Command::read(bank, 0).with_auto_precharge();
            let t = sys.earliest(&col, now);
            sys.issue_at(&col, t).expect("COL issue holds under chaos");
            now = now.saturating_add(97);
        }
        // Exact sum: totals are the field-wise sum of per-channel stats.
        let mut manual = memsys::ChannelFaultStats::default();
        for st in sys.chaos_stats() {
            manual.absorb(st);
        }
        prop_assert_eq!(sys.chaos_stats_total(), manual);
        for (ch, st) in sys.chaos_stats().iter().enumerate() {
            let windows = plan.outage_windows(ch);
            let injected: u64 = windows.iter().map(|(f, e)| e - f).sum();
            prop_assert!(st.outages_observed as usize <= windows.len());
            // Each observed window contributes its injected length once.
            if st.outages_observed as usize == windows.len() {
                prop_assert_eq!(st.mttr_cycles, injected, "channel {} MTTR", ch);
            } else {
                prop_assert!(st.mttr_cycles <= injected);
            }
            if let Some(at) = st.last_recovery_at {
                prop_assert!(
                    windows.iter().any(|&(_, e)| e == at),
                    "recovery at {} matches no injected window end {:?}", at, windows
                );
            }
            // A channel no clause touches must stay clean.
            let touched = plan.clauses.iter().any(|c| match *c {
                faults::FaultClause::ChannelBrownout { channel, .. }
                | faults::FaultClause::ChannelOutage { channel, .. }
                | faults::FaultClause::DeviceFail { channel, .. } => channel == ch,
                faults::FaultClause::BankBusy { .. }
                | faults::FaultClause::DataNack { .. }
                | faults::FaultClause::RefreshStorm { .. }
                | faults::FaultClause::Stall { .. } => false,
            });
            if !touched {
                prop_assert!(st.is_clean(), "untouched channel {} has stats {:?}", ch, st);
            }
        }
    }

    /// Randomized topologies validate exactly when their shape is sound,
    /// and the single-channel passthrough never pays a remote penalty.
    #[test]
    fn topology_validation_matches_its_contract(
        channels in 0usize..9,
        devices in 0usize..5,
        penalties in prop::collection::vec(0u64..65, 0..10),
    ) {
        let topo = Topology {
            channels,
            devices_per_channel: devices,
            remote_penalty: penalties.clone(),
        };
        let sound = channels >= 1 && devices >= 1 && penalties.len() <= channels;
        prop_assert_eq!(topo.validate().is_ok(), sound);
        if sound {
            for ch in 0..channels {
                let expect = if channels == 1 {
                    0
                } else {
                    penalties.get(ch).copied().unwrap_or(0)
                };
                prop_assert_eq!(topo.penalty_of(ch), expect);
            }
        }
    }
}
