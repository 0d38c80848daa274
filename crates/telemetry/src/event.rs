//! Controller-side telemetry events.
//!
//! The memory system's command record already captures everything the
//! *device* does; these events capture what the *controllers* decide — FIFO
//! service switches, per-stream FIFO depth samples, fault-recovery
//! incidents, and watchdog trips — without touching the schedulers
//! themselves: controllers diff their own statistics once per tick and keep
//! an event per change, which the harness takes back after the run.

use rdram::Cycle;

/// One controller-side telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A stream FIFO's occupancy changed (a depth sample).
    FifoDepth {
        /// Cycle of the sample.
        cycle: Cycle,
        /// FIFO index (= stream index).
        fifo: usize,
        /// Elements buffered, including in-flight reservations.
        occupancy: u64,
    },
    /// The MSU moved service to a different FIFO.
    FifoSwitch {
        /// Cycle of the switch.
        cycle: Cycle,
        /// The FIFO now being serviced.
        fifo: usize,
    },
    /// A DATA packet was NACKed by the fault injector and will be retried.
    DataNack {
        /// Cycle the NACK was observed.
        cycle: Cycle,
        /// Bank of the last issued command, when known.
        bank: Option<usize>,
    },
    /// The controller absorbed an injected stall cycle.
    InjectedStall {
        /// Cycle of the stall.
        cycle: Cycle,
    },
    /// A bank was demoted from open-page to closed-page service.
    BankDegraded {
        /// Cycle of the demotion.
        cycle: Cycle,
        /// Total banks degraded so far.
        total: u64,
    },
    /// The MSU issued a speculative PRER/ACT command.
    SpeculativeActivate {
        /// Cycle of the speculative command.
        cycle: Cycle,
    },
    /// A DRAM refresh was performed.
    Refresh {
        /// Cycle refresh maintenance ran.
        cycle: Cycle,
    },
    /// The forward-progress watchdog tripped (a livelock report follows as
    /// a structured error).
    WatchdogTrip {
        /// Cycle at which the watchdog gave up.
        cycle: Cycle,
        /// Cycles since the last observable progress.
        stalled_for: Cycle,
    },
}

impl Event {
    /// The cycle the event is stamped with.
    pub fn cycle(&self) -> Cycle {
        match *self {
            Event::FifoDepth { cycle, .. }
            | Event::FifoSwitch { cycle, .. }
            | Event::DataNack { cycle, .. }
            | Event::InjectedStall { cycle }
            | Event::BankDegraded { cycle, .. }
            | Event::SpeculativeActivate { cycle }
            | Event::Refresh { cycle }
            | Event::WatchdogTrip { cycle, .. } => cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_reports_its_cycle() {
        let events = [
            Event::FifoSwitch { cycle: 10, fifo: 1 },
            Event::InjectedStall { cycle: 11 },
            Event::WatchdogTrip {
                cycle: 12,
                stalled_for: 4,
            },
        ];
        let cycles: Vec<Cycle> = events.iter().map(Event::cycle).collect();
        assert_eq!(cycles, [10, 11, 12]);
    }
}
