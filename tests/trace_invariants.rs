//! Protocol invariants checked on recorded command streams.
//!
//! Every run here sets `check_conformance`, so `run_kernel` replays its
//! command record through the `checker` crate's rules in every build and
//! fails on any violation. Among them are the rules these tests re-verify
//! from the outside: bus exclusivity (`row-bus-overlap`,
//! `col-bus-overlap`, `data-bus-overlap`), ACT spacing (`tRR`, `tRC`),
//! activate-to-column delay (`tRCD`) and the write-to-read `turnaround`,
//! across both controllers and both memory organizations.

use kernels::Kernel;
use rdram::{Command, CommandRecord};
use sim::{run_kernel, MemorySystem, SystemConfig};

/// The command record of a run the conformance checker passed.
fn audited(kernel: Kernel, n: u64, stride: u64, cfg: &SystemConfig) -> Vec<CommandRecord> {
    let mut cfg = cfg.clone().with_command_recording();
    cfg.check_conformance = true;
    run_kernel(kernel, n, stride, &cfg)
        .unwrap_or_else(|e| panic!("{kernel} {:?}: {e}", cfg.memory))
        .commands
}

#[test]
fn smc_traces_respect_the_protocol() {
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for kernel in [Kernel::Copy, Kernel::Daxpy, Kernel::Vaxpy, Kernel::Swap] {
            let commands = audited(kernel, 128, 1, &SystemConfig::smc(memory, 32));
            assert!(commands.len() > 100, "{kernel} {memory:?} record too small");
        }
    }
}

#[test]
fn natural_order_traces_respect_the_protocol() {
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for kernel in [Kernel::Copy, Kernel::Hydro] {
            audited(kernel, 128, 1, &SystemConfig::natural_order(memory));
        }
    }
}

mod random {
    use super::*;
    use proptest::prelude::*;
    use sim::Alignment;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The protocol rules hold for arbitrary kernels, organizations,
        /// FIFO depths, strides, placements, and MSU features.
        #[test]
        fn random_configs_respect_the_protocol(
            kernel in prop::sample::select(Kernel::ALL.to_vec()),
            memory in prop::sample::select(vec![
                MemorySystem::CacheLineInterleaved,
                MemorySystem::PageInterleaved,
            ]),
            depth in 2usize..40,
            stride in 1u64..5,
            aligned in any::<bool>(),
            speculative in any::<bool>(),
        ) {
            let mut cfg = SystemConfig::smc(memory, depth);
            if aligned {
                cfg = cfg.with_alignment(Alignment::Aligned);
            }
            if speculative {
                cfg = cfg.with_speculation();
            }
            audited(kernel, 64, stride, &cfg);
        }
    }
}

#[test]
fn data_bus_moves_exactly_the_stream_packets() {
    // Unit-stride daxpy on 256 elements: 3 streams x 128 packets, one COL
    // (and so one DATA packet) each.
    let commands = audited(
        Kernel::Daxpy,
        256,
        1,
        &SystemConfig::smc(MemorySystem::PageInterleaved, 64),
    );
    let cols = commands
        .iter()
        .filter(|r| matches!(r.cmd, Command::Col { .. }))
        .count();
    assert_eq!(cols, 3 * 128);
}
