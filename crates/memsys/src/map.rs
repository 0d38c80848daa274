//! Address placement across channels.
//!
//! The per-channel [`AddressMap`] (CLI/PI interleaving) stays exactly as
//! the paper defines it; [`SystemMap`] layers a *placement* on top that
//! decides which channel each address lives on, then hands the
//! channel-local remainder to the inner map. Decoded locations carry a
//! global bank index so controllers can track conflicts across channels
//! with one flat bank space.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use rdram::{AddressMap, DeviceConfig, Location, PACKET_BYTES};
use serde::{Deserialize, Serialize};

/// Default block granularity for channel interleaving: one 4 KB block,
/// i.e. consecutive 4 KB regions rotate round-robin across channels.
pub const DEFAULT_BLOCK_BYTES: u64 = 4096;

/// How addresses are placed across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Block `b` lives on channel `b % channels`: bandwidth from every
    /// channel for any stream longer than a few blocks.
    ChannelInterleaved {
        /// Interleaving granularity in bytes.
        block_bytes: u64,
    },
    /// Channel `c` owns the `c`-th contiguous capacity-sized extent:
    /// small working sets see exactly one channel.
    DeviceSequential,
    /// Every address lives on the `home` channel — the asymmetric
    /// placement of a NUMA system accessing one node's memory. The other
    /// channels idle; with a ROW penalty on `home` this is the "remote
    /// memory" end of the bandwidth cliff.
    Numa {
        /// The channel all traffic is homed on.
        home: usize,
    },
}

impl Default for Placement {
    fn default() -> Self {
        Placement::ChannelInterleaved {
            block_bytes: DEFAULT_BLOCK_BYTES,
        }
    }
}

impl Placement {
    /// Parse the CLI/campaign grammar:
    /// `interleaved[:<block_bytes>]` | `sequential` | `numa[:<home>]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn parse(s: &str) -> Result<Placement, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match (head, arg) {
            ("interleaved", None) => Ok(Placement::default()),
            ("interleaved", Some(a)) => {
                let block_bytes: u64 = a
                    .parse()
                    .map_err(|_| format!("bad interleave block size {a:?}"))?;
                Ok(Placement::ChannelInterleaved { block_bytes })
            }
            ("sequential", None) => Ok(Placement::DeviceSequential),
            ("numa", None) => Ok(Placement::Numa { home: 0 }),
            ("numa", Some(a)) => {
                let home: usize = a.parse().map_err(|_| format!("bad NUMA home {a:?}"))?;
                Ok(Placement::Numa { home })
            }
            _ => Err(format!(
                "unknown placement {s:?} (expected interleaved[:bytes], sequential, or numa[:home])"
            )),
        }
    }

    /// Canonical spelling, inverse of [`parse`](Placement::parse):
    /// defaults render without their argument so campaign keys stay
    /// byte-identical to the pre-topology grammar.
    pub fn label(&self) -> String {
        match self {
            Placement::ChannelInterleaved {
                block_bytes: DEFAULT_BLOCK_BYTES,
            } => "interleaved".into(),
            Placement::ChannelInterleaved { block_bytes } => format!("interleaved:{block_bytes}"),
            Placement::DeviceSequential => "sequential".into(),
            Placement::Numa { home: 0 } => "numa".into(),
            Placement::Numa { home } => format!("numa:{home}"),
        }
    }
}

/// Address map for a whole memory system: placement across channels, then
/// the per-channel CLI/PI [`AddressMap`] within the owning channel.
///
/// Decoded [`Location`]s use global banks: channel `c`'s local bank `b`
/// appears as `c * banks_per_channel + b`. [`encode`](SystemMap::encode)
/// inverts [`decode`](SystemMap::decode) exactly on every placement.
#[derive(Debug, Clone)]
pub struct SystemMap {
    inner: AddressMap,
    placement: Placement,
    channels: usize,
    banks_per_channel: usize,
    /// Bytes one channel addresses; the extent size for sequential/NUMA
    /// placement. `u64::MAX` in the single-channel passthrough, where no
    /// placement math runs.
    channel_capacity: u64,
}

impl SystemMap {
    /// Single-channel passthrough: decodes and encodes exactly as the
    /// inner map does.
    pub fn single(inner: AddressMap) -> Self {
        SystemMap {
            banks_per_channel: inner.banks(),
            inner,
            placement: Placement::default(),
            channels: 1,
            channel_capacity: u64::MAX,
        }
    }

    /// A map for `topo.channels` channels, each shaped like `cfg` and
    /// internally interleaved by `inner`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: an interleave
    /// block that is zero, not packet-aligned, or not dividing the
    /// channel capacity, or a NUMA home beyond the last channel.
    pub fn new(
        inner: AddressMap,
        cfg: &DeviceConfig,
        topo: &crate::Topology,
        placement: Placement,
    ) -> Result<Self, String> {
        topo.validate()?;
        let capacity = cfg.capacity_bytes();
        match placement {
            Placement::ChannelInterleaved { block_bytes } => {
                if block_bytes == 0 || block_bytes % PACKET_BYTES != 0 {
                    return Err(format!(
                        "interleave block ({block_bytes} B) must be a non-zero multiple of the packet size ({PACKET_BYTES} B)"
                    ));
                }
                if !capacity.is_multiple_of(block_bytes) {
                    return Err(format!(
                        "interleave block ({block_bytes} B) must divide the channel capacity ({capacity} B)"
                    ));
                }
            }
            Placement::DeviceSequential => {}
            Placement::Numa { home } => {
                if home >= topo.channels {
                    return Err(format!(
                        "NUMA home channel {home} out of range (system has {} channels)",
                        topo.channels
                    ));
                }
            }
        }
        Ok(SystemMap {
            banks_per_channel: cfg.total_banks(),
            inner,
            placement,
            channels: topo.channels,
            channel_capacity: capacity,
        })
    }

    /// The per-channel interleaving this map layers placement over.
    pub fn inner(&self) -> &AddressMap {
        &self.inner
    }

    /// The placement in force.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Channels the map spreads addresses over.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Banks across the whole system (`channels × banks_per_channel`).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the global bank count: channels times banks per channel, both small validated geometry"
    )]
    pub fn banks(&self) -> usize {
        self.channels * self.banks_per_channel
    }

    /// Which channel owns global bank `bank`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "banks_per_channel is at least 1: a validated DeviceConfig has a device and a bank"
    )]
    pub fn channel_of_bank(&self, bank: usize) -> usize {
        bank / self.banks_per_channel
    }

    /// Bytes addressable by one channel.
    pub fn channel_capacity(&self) -> u64 {
        self.channel_capacity
    }

    /// Which channel `addr` lives on, and its address within that channel.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "block_bytes and channel_capacity are non-zero (SystemMap::new checks them) and n >= 2 here; a channel index is below n, so it fits usize"
    )]
    pub fn split(&self, addr: u64) -> (usize, u64) {
        if self.channels == 1 {
            return (0, addr);
        }
        let n = self.channels as u64;
        match self.placement {
            Placement::ChannelInterleaved { block_bytes } => {
                let block = addr / block_bytes;
                let ch = (block % n) as usize;
                let local = (block / n) * block_bytes + addr % block_bytes;
                (ch, local)
            }
            Placement::DeviceSequential => {
                let ch = ((addr / self.channel_capacity) % n) as usize;
                (ch, addr % self.channel_capacity)
            }
            Placement::Numa { home } => (home, addr % self.channel_capacity),
        }
    }

    /// Decode `addr` to a globally-banked location.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a global bank index: below channels times banks per channel"
    )]
    pub fn decode(&self, addr: u64) -> Location {
        let (ch, local_addr) = self.split(addr);
        let loc = self.inner.decode(local_addr);
        Location {
            bank: ch * self.banks_per_channel + loc.bank,
            row: loc.row,
            col: loc.col,
        }
    }

    /// Encode a globally-banked location back to its address, the exact
    /// inverse of [`decode`](SystemMap::decode) over each placement's
    /// valid address range.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "banks_per_channel is at least 1: a validated DeviceConfig has a device and a bank; the result is the inverse of split, so it stays within the system capacity"
    )]
    pub fn encode(&self, loc: Location) -> u64 {
        let ch = loc.bank / self.banks_per_channel;
        let local_addr = self.inner.encode(Location {
            bank: loc.bank % self.banks_per_channel,
            row: loc.row,
            col: loc.col,
        });
        if self.channels == 1 {
            return local_addr;
        }
        let n = self.channels as u64;
        match self.placement {
            Placement::ChannelInterleaved { block_bytes } => {
                let block = local_addr / block_bytes;
                (block * n + ch as u64) * block_bytes + local_addr % block_bytes
            }
            Placement::DeviceSequential => (ch as u64) * self.channel_capacity + local_addr,
            Placement::Numa { .. } => local_addr,
        }
    }

    /// Contiguous bytes an address stream covers before leaving the
    /// current bank: the inner map's chunk, further limited by the
    /// interleave block when placement splits blocks across channels.
    pub fn contiguous_bytes_per_bank(&self) -> u64 {
        let inner = self.inner.contiguous_bytes_per_bank();
        if self.channels == 1 {
            return inner;
        }
        match self.placement {
            Placement::ChannelInterleaved { block_bytes } => inner.min(block_bytes),
            Placement::DeviceSequential | Placement::Numa { .. } => inner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use rdram::Interleave;

    fn topo(channels: usize) -> Topology {
        Topology {
            channels,
            ..Topology::single()
        }
    }

    fn map(channels: usize, placement: Placement) -> SystemMap {
        let cfg = DeviceConfig::default();
        SystemMap::new(
            AddressMap::new(Interleave::Page, &cfg).unwrap(),
            &cfg,
            &topo(channels),
            placement,
        )
        .unwrap()
    }

    #[test]
    fn parse_and_label_round_trip() {
        for s in [
            "interleaved",
            "interleaved:8192",
            "sequential",
            "numa",
            "numa:2",
        ] {
            let p = Placement::parse(s).unwrap();
            assert_eq!(p.label(), s, "{s}");
        }
        assert_eq!(
            Placement::parse("interleaved:4096").unwrap().label(),
            "interleaved"
        );
        assert_eq!(Placement::parse("numa:0").unwrap().label(), "numa");
        assert!(Placement::parse("striped").is_err());
        assert!(Placement::parse("interleaved:x").is_err());
        assert!(Placement::parse("numa:y").is_err());
    }

    #[test]
    fn single_channel_is_a_passthrough() {
        let cfg = DeviceConfig::default();
        let inner = AddressMap::new(Interleave::Page, &cfg).unwrap();
        let sys = SystemMap::single(inner);
        for addr in [0u64, 1024, 4096, 65_536, 1_000_448] {
            assert_eq!(sys.decode(addr), inner.decode(addr), "addr {addr}");
            assert_eq!(sys.encode(sys.decode(addr)), addr);
        }
        assert_eq!(
            sys.contiguous_bytes_per_bank(),
            inner.contiguous_bytes_per_bank()
        );
    }

    #[test]
    fn interleaved_blocks_rotate_across_channels() {
        let sys = map(4, Placement::default());
        for block in 0..16u64 {
            let loc = sys.decode(block * DEFAULT_BLOCK_BYTES);
            assert_eq!(
                sys.channel_of_bank(loc.bank),
                (block % 4) as usize,
                "block {block}"
            );
        }
    }

    #[test]
    fn sequential_fills_one_channel_before_the_next() {
        let sys = map(2, Placement::DeviceSequential);
        let cap = sys.channel_capacity();
        assert_eq!(sys.channel_of_bank(sys.decode(0).bank), 0);
        assert_eq!(sys.channel_of_bank(sys.decode(cap - 16).bank), 0);
        assert_eq!(sys.channel_of_bank(sys.decode(cap).bank), 1);
    }

    #[test]
    fn numa_homes_everything_on_one_channel() {
        let sys = map(3, Placement::Numa { home: 2 });
        for addr in [0u64, 4096, 123_456 * 16] {
            assert_eq!(sys.channel_of_bank(sys.decode(addr).bank), 2);
        }
    }

    #[test]
    fn numa_home_must_exist() {
        let cfg = DeviceConfig::default();
        let err = SystemMap::new(
            AddressMap::new(Interleave::Page, &cfg).unwrap(),
            &cfg,
            &topo(2),
            Placement::Numa { home: 2 },
        )
        .unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn decode_encode_is_the_identity_on_every_placement() {
        for placement in [
            Placement::default(),
            Placement::ChannelInterleaved { block_bytes: 64 },
            Placement::DeviceSequential,
        ] {
            let sys = map(4, placement);
            for addr in (0..4 * sys.channel_capacity()).step_by(65_521).chain([
                0,
                16,
                4 * sys.channel_capacity() - 16,
            ]) {
                assert_eq!(
                    sys.encode(sys.decode(addr)),
                    addr,
                    "{placement:?} addr {addr}"
                );
            }
        }
        let numa = map(4, Placement::Numa { home: 1 });
        for addr in (0..numa.channel_capacity()).step_by(65_521) {
            assert_eq!(numa.encode(numa.decode(addr)), addr);
        }
    }

    #[test]
    fn interleave_block_must_divide_capacity() {
        let cfg = DeviceConfig::default();
        let err = SystemMap::new(
            AddressMap::new(Interleave::Page, &cfg).unwrap(),
            &cfg,
            &topo(2),
            Placement::ChannelInterleaved { block_bytes: 48 },
        )
        .unwrap_err();
        assert!(err.contains("divide"));
    }
}
