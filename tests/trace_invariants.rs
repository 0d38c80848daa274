//! Protocol invariants checked from recorded packet traces.
//!
//! These tests re-verify, from the *outside*, the timing rules the device
//! enforces internally: bus exclusivity, ACT spacing, activate-to-column
//! delay, and the write-to-read turnaround — across both controllers and
//! both memory organizations.

use std::collections::BTreeMap;

use kernels::Kernel;
use rdram::trace::{Trace, TraceKind, TraceUnit};
use rdram::{Dir, Timing};
use sim::{run_kernel, MemorySystem, SystemConfig};

fn traced(kernel: Kernel, n: u64, cfg: &SystemConfig) -> Trace {
    let cfg = cfg.clone().with_trace();
    run_kernel(kernel, n, 1, &cfg)
        .expect("fault-free run")
        .trace
        .expect("trace requested")
}

fn check_invariants(trace: &Trace, t: &Timing) {
    let mut lane_end: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last_act_any: Option<u64> = None;
    let mut last_act_bank: BTreeMap<usize, u64> = BTreeMap::new();
    let mut col_ok_bank: BTreeMap<usize, u64> = BTreeMap::new();
    let mut last_write_data_end: Option<u64> = None;

    for e in trace.events() {
        let lane = match e.unit {
            TraceUnit::RowBus => "row",
            TraceUnit::ColBus => "col",
            TraceUnit::DataBus => "data",
        };
        // Auto-precharge events are recorded for visualization only; they
        // occupy no bus.
        if !matches!(e.kind, TraceKind::AutoPrecharge { .. }) {
            let end = lane_end.entry(lane).or_insert(0);
            assert!(
                e.interval.start >= *end,
                "{lane} bus overlap at cycle {}: {e:?}",
                e.interval.start
            );
            *end = e.interval.end;
        }
        match e.kind {
            TraceKind::Activate { bank, .. } => {
                if let Some(prev) = last_act_any {
                    assert!(
                        e.interval.start >= prev + t.t_rr,
                        "tRR violated: ACTs at {prev} and {}",
                        e.interval.start
                    );
                }
                if let Some(prev) = last_act_bank.get(&bank) {
                    assert!(
                        e.interval.start >= prev + t.t_rc,
                        "tRC violated on bank {bank}: ACTs at {prev} and {}",
                        e.interval.start
                    );
                }
                last_act_any = Some(e.interval.start);
                last_act_bank.insert(bank, e.interval.start);
                col_ok_bank.insert(bank, e.interval.start + t.t_rcd + 1);
            }
            TraceKind::ColRead { bank } | TraceKind::ColWrite { bank } => {
                let ok = col_ok_bank.get(&bank).copied().unwrap_or(u64::MAX);
                assert!(
                    e.interval.start >= ok,
                    "COL to bank {bank} at {} before ACT+tRCD+1 ({ok})",
                    e.interval.start
                );
            }
            TraceKind::Data { dir, .. } => {
                if dir == Dir::Read {
                    if let Some(wend) = last_write_data_end {
                        assert!(
                            e.interval.start >= wend + t.t_rw || e.interval.start + t.t_rw <= wend,
                            "turnaround violated: write data ended {wend}, read \
                             data starts {}",
                            e.interval.start
                        );
                    }
                } else {
                    last_write_data_end = Some(e.interval.end);
                }
            }
            TraceKind::Precharge { .. } | TraceKind::AutoPrecharge { .. } => {}
        }
    }
}

#[test]
fn smc_traces_respect_the_protocol() {
    let t = Timing::default();
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for kernel in [Kernel::Copy, Kernel::Daxpy, Kernel::Vaxpy, Kernel::Swap] {
            let trace = traced(kernel, 128, &SystemConfig::smc(memory, 32));
            assert!(trace.len() > 100, "{kernel} {memory:?} trace too small");
            check_invariants(&trace, &t);
        }
    }
}

#[test]
fn natural_order_traces_respect_the_protocol() {
    let t = Timing::default();
    for memory in [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ] {
        for kernel in [Kernel::Copy, Kernel::Hydro] {
            let trace = traced(kernel, 128, &SystemConfig::natural_order(memory));
            check_invariants(&trace, &t);
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
            let mut cfg = SystemConfig::smc(memory, depth).with_trace();
            if aligned {
                cfg = cfg.with_alignment(Alignment::Aligned);
            }
            if speculative {
                cfg = cfg.with_speculation();
            }
            let trace = sim::run_kernel(kernel, 64, stride, &cfg).expect("fault-free run")
                .trace
                .expect("trace requested");
            check_invariants(&trace, &Timing::default());
        }
    }
}

#[test]
fn data_bus_moves_exactly_the_stream_packets() {
    // Unit-stride daxpy on 256 elements: 3 streams x 128 packets.
    let trace = traced(
        Kernel::Daxpy,
        256,
        &SystemConfig::smc(MemorySystem::PageInterleaved, 64),
    );
    let data_packets = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Data { .. }))
        .count();
    assert_eq!(data_packets, 3 * 128);
}
