//! Line-transfer scheduling for the natural-order controller.

// Cycle integrity: no wrapping arithmetic and no truncating casts on this
// integer-cycle hot path. Each exception says why it cannot wrap.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use memsys::{MemorySystem, SystemMap};
use rdram::{Command, Cycle, Location, ELEM_BYTES, PACKET_BYTES};
use smc::{
    LivelockReport, SmcError, StreamDescriptor, StreamKind, Watchdog, DEFAULT_WATCHDOG_CYCLES,
};
use telemetry::Event;

/// Page management applied to each cacheline burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinePolicy {
    /// Precharge after every line burst (pairs with CLI).
    ClosedPage,
    /// Leave the page open; precharge only on a row conflict (pairs with PI).
    OpenPage,
}

/// How the cache treats stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WritePolicy {
    /// The paper's optimistic model: a store's line moves to memory once,
    /// as a write transfer; writebacks are ignored.
    #[default]
    StoreDirect,
    /// Realistic write-allocate: a store first *fetches* its line, and the
    /// dirty line is written back when the stream moves past it — two
    /// transfers per written line.
    WriteAllocate,
}

/// One cacheline transfer in the natural-order schedule.
#[derive(Debug, Clone)]
struct LineOp {
    line_addr: u64,
    /// Direction of the transfer on the DATA bus.
    dir: StreamKind,
    /// Iteration whose access first touched this line (dependency anchor
    /// for stores).
    trigger_iter: u64,
    /// (stream, element) pairs carried by the line, in access order —
    /// shared lines (e.g. daxpy's y read- and write-streams) may carry
    /// elements of several streams.
    elements: Vec<(usize, u64)>,
    /// Store-dependency gating: the loads of `trigger_iter` must arrive
    /// before this transfer may begin.
    gated: bool,
    /// Record per-element arrival times (read data the CPU consumes).
    record_arrivals: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Precharge,
    Activate,
    /// Next packet index within the line still to transfer.
    Col(u64),
}

#[derive(Debug, Clone)]
struct InFlight {
    op: LineOp,
    loc: Location,
    stage: Stage,
    /// DATA NACKs absorbed by this line so far.
    retries: u32,
    /// Packet index to resume at after redoing ROW work (NACK recovery).
    resume_at: u64,
}

/// Timing summary of a completed natural-order run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// End cycle of the last DATA packet.
    pub last_data_cycle: Cycle,
    /// Cacheline transfers performed.
    pub line_transfers: u64,
    /// Cycles the controller spent with work queued but nothing issuable.
    pub idle_cycles: Cycle,
    /// DATA packets NACKed by the fault injector and retried.
    pub data_nacks: u64,
}

/// The natural-order cacheline controller (see the [crate docs](crate)).
#[derive(Debug)]
pub struct BaselineController {
    streams: Vec<StreamDescriptor>,
    map: SystemMap,
    policy: LinePolicy,
    line_bytes: u64,
    queue: VecDeque<LineOp>,
    in_flight: Vec<InFlight>,
    /// Per-stream, per-element arrival cycle of read data (end of its DATA
    /// packet); `None` until scheduled.
    arrivals: Vec<Vec<Option<Cycle>>>,
    last_data_cycle: Cycle,
    line_transfers: u64,
    idle_cycles: Cycle,
    max_in_flight: usize,
    /// (hits, misses, writebacks) of the modeled cache, if any.
    cache_stats: Option<(u64, u64, u64)>,
    data_nacks: u64,
    /// Keyed on (commands the memory system accepted, queued ops, ops in
    /// flight, completed line transfers).
    watchdog: Watchdog<(u64, usize, usize, u64)>,
    last_issued: Option<(Command, Cycle)>,
    /// Controller events, while recording them.
    events: Option<Vec<Event>>,
    /// NACK count at the previous tick; the event emitter turns the
    /// per-tick delta into events.
    prev_nacks: u64,
    /// Ticks executed, one per call to [`tick`](Self::tick).
    ticks: u64,
    /// The first cycle after the last tick at which a tick can change
    /// anything, as far as that tick could see: the cycle after a stalled
    /// tick, else the least of the in-flight ops' earliest starts (looked
    /// up a cycle ahead after an issue) and the front op's admission cycle.
    wake: Cycle,
}

impl BaselineController {
    /// Build the natural-order schedule for `streams` (in the processor's
    /// per-iteration access order) over cachelines of `line_bytes`.
    ///
    /// All streams must have the same length, as in the paper's model.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, lengths differ, or `line_bytes` is not
    /// a positive multiple of the 16-byte packet.
    pub fn new(
        streams: Vec<StreamDescriptor>,
        map: SystemMap,
        policy: LinePolicy,
        line_bytes: u64,
    ) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        assert!(
            line_bytes > 0 && line_bytes.is_multiple_of(PACKET_BYTES),
            "cacheline must be a positive multiple of {PACKET_BYTES} bytes"
        );
        let n = streams[0].length;
        assert!(
            streams.iter().all(|s| s.length == n),
            "the model assumes equal-length streams"
        );
        let queue = Self::build_queue(&streams, line_bytes, WritePolicy::StoreDirect);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a stream length sizes an in-memory vector, so it fits usize"
        )]
        let arrivals = streams
            .iter()
            .map(|s| vec![None; s.length as usize])
            .collect();
        BaselineController {
            streams,
            map,
            policy,
            line_bytes,
            queue,
            in_flight: Vec::new(),
            arrivals,
            last_data_cycle: 0,
            line_transfers: 0,
            idle_cycles: 0,
            max_in_flight: 4,
            cache_stats: None,
            data_nacks: 0,
            watchdog: Watchdog::new(DEFAULT_WATCHDOG_CYCLES),
            last_issued: None,
            events: None,
            prev_nacks: 0,
            ticks: 0,
            wake: 0,
        }
    }

    /// Record events from the next [`tick`](Self::tick) on: one [`Event`]
    /// per fault-recovery incident (injected stall cycles, DATA NACKs) and
    /// per watchdog trip, until [`take_events`](Self::take_events) collects
    /// them. Without it the per-tick cost is a single `Option` check.
    pub fn record_events(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// The events recorded so far, in emission order, leaving the record
    /// empty. Empty when not recording.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Replace the forward-progress watchdog threshold (cycles without
    /// observable progress before [`tick`](Self::tick) returns
    /// [`SmcError::Livelock`]).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_watchdog(mut self, limit: Cycle) -> Self {
        self.watchdog = Watchdog::new(limit);
        self
    }

    /// Switch the store treatment (rebuilds the schedule). Call before the
    /// first [`tick`](Self::tick).
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.queue = Self::build_queue(&self.streams, self.line_bytes, write_policy);
        self
    }

    /// Route the streams through a real set-associative cache instead of
    /// the paper's idealized per-stream line buffers (rebuilds the
    /// schedule; call before the first [`tick`](Self::tick)). Conflict
    /// misses become extra line fetches and dirty evictions become
    /// writebacks — the cost the paper notes but leaves unmeasured. The
    /// cache's hit/miss/writeback counts are available afterwards through
    /// [`cache_stats`](Self::cache_stats).
    ///
    /// # Panics
    ///
    /// Panics if the cache line size differs from the controller's or the
    /// configuration is invalid.
    pub fn with_cache(mut self, cache_cfg: crate::cache::CacheConfig) -> Self {
        assert_eq!(
            cache_cfg.line_bytes, self.line_bytes,
            "cache and controller line sizes must agree"
        );
        let (queue, stats) = Self::build_queue_cached(&self.streams, cache_cfg);
        self.queue = queue;
        self.cache_stats = Some(stats);
        self
    }

    /// Hit/miss/writeback counts of the modeled cache, when
    /// [`with_cache`](Self::with_cache) was used.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        self.cache_stats
    }

    /// Build the schedule through a shared set-associative cache: every
    /// miss fetches a line, every dirty eviction writes one back.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "line_bytes is non-zero (CacheModel::new validates it), a queue index follows a push, and n - 1 runs only when there are dirty lines, so n >= 1"
    )]
    fn build_queue_cached(
        streams: &[StreamDescriptor],
        cache_cfg: crate::cache::CacheConfig,
    ) -> (VecDeque<LineOp>, (u64, u64, u64)) {
        use crate::cache::{CacheModel, CacheOutcome};
        let n = streams[0].length;
        let line_bytes = cache_cfg.line_bytes;
        let mut cache = CacheModel::new(cache_cfg);
        let mut queue: VecDeque<LineOp> = VecDeque::new();
        // Latest fetch op per resident line.
        let mut owner: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        let writeback = |queue: &mut VecDeque<LineOp>, line_addr: u64, i: u64| {
            queue.push_back(LineOp {
                line_addr,
                dir: StreamKind::Write,
                trigger_iter: i,
                elements: Vec::new(),
                gated: false,
                record_arrivals: false,
            });
        };
        for i in 0..n {
            for (s, desc) in streams.iter().enumerate() {
                let addr = desc.element_addr(i);
                let line = addr & !(line_bytes - 1);
                let is_store = desc.kind == StreamKind::Write;
                match cache.access(addr, is_store) {
                    CacheOutcome::Hit => {
                        if let Some(&idx) = owner.get(&line) {
                            queue[idx].elements.push((s, i));
                        }
                    }
                    CacheOutcome::Miss { evicted_dirty } => {
                        if let Some(victim) = evicted_dirty {
                            writeback(&mut queue, victim, i);
                        }
                        queue.push_back(LineOp {
                            line_addr: line,
                            // Every miss fetches (write-allocate).
                            dir: StreamKind::Read,
                            trigger_iter: i,
                            elements: vec![(s, i)],
                            gated: is_store,
                            record_arrivals: true,
                        });
                        owner.insert(line, queue.len() - 1);
                    }
                }
            }
        }
        // Flush the remaining dirty lines.
        for line_addr in cache.dirty_lines() {
            writeback(&mut queue, line_addr, n - 1);
        }
        (queue, (cache.hits(), cache.misses(), cache.writebacks()))
    }

    /// Generate line transfers in natural order: iteration by iteration,
    /// stream by stream, a new transfer whenever an access leaves the
    /// stream's current line. Under [`WritePolicy::WriteAllocate`], stores
    /// *fetch* their line and enqueue a writeback when the stream moves on.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "line counts and queue indices are bounded by the stream lengths; line_bytes is non-zero (checked in new), a queue index follows a push, n - 1 runs only for a stream with a line, so n >= 1; element indices and stream lengths index in-memory vectors, so they fit usize"
    )]
    fn build_queue(
        streams: &[StreamDescriptor],
        line_bytes: u64,
        write_policy: WritePolicy,
    ) -> VecDeque<LineOp> {
        let n = streams[0].length;
        let allocate = write_policy == WritePolicy::WriteAllocate;
        // Reserve the schedule at its final size: one op per line a stream
        // touches, plus one writeback per line of a write-allocate store.
        let ops: u64 = streams
            .iter()
            .map(|desc| {
                let writebacks = allocate && desc.kind == StreamKind::Write;
                line_count(desc, line_bytes) * if writebacks { 2 } else { 1 }
            })
            .sum();
        let per_line: Vec<usize> = streams
            .iter()
            .map(|desc| elements_per_line(desc, line_bytes))
            .collect();
        let mut queue: VecDeque<LineOp> = VecDeque::with_capacity(ops as usize);
        let mut current_line: Vec<Option<u64>> = vec![None; streams.len()];
        let mut open_op: Vec<Option<usize>> = vec![None; streams.len()];
        let writeback = |queue: &mut VecDeque<LineOp>, line: u64, i: u64| {
            queue.push_back(LineOp {
                line_addr: line,
                dir: StreamKind::Write,
                trigger_iter: i,
                elements: Vec::new(),
                gated: false,
                record_arrivals: false,
            });
        };
        for i in 0..n {
            for (s, desc) in streams.iter().enumerate() {
                let addr = desc.element_addr(i);
                let line = addr & !(line_bytes - 1);
                // A hit on the open line appends to its op; anything else —
                // including the (impossible) case of a current line with no
                // recorded op — opens a fresh line op.
                if let (true, Some(idx)) = (current_line[s] == Some(line), open_op[s]) {
                    queue[idx].elements.push((s, i));
                } else {
                    // Evict the previous dirty line of a write-allocate
                    // store stream.
                    if allocate && desc.kind == StreamKind::Write {
                        if let Some(prev) = current_line[s] {
                            writeback(&mut queue, prev, i);
                        }
                    }
                    let is_store = desc.kind == StreamKind::Write;
                    let mut elements = Vec::with_capacity(per_line[s]);
                    elements.push((s, i));
                    queue.push_back(LineOp {
                        line_addr: line,
                        // Write-allocate stores fetch the line first.
                        dir: if is_store && allocate {
                            StreamKind::Read
                        } else {
                            desc.kind
                        },
                        trigger_iter: i,
                        elements,
                        gated: is_store,
                        record_arrivals: desc.kind == StreamKind::Read,
                    });
                    current_line[s] = Some(line);
                    open_op[s] = Some(queue.len() - 1);
                }
            }
        }
        // Flush the final dirty lines.
        if allocate {
            for (s, desc) in streams.iter().enumerate() {
                if desc.kind == StreamKind::Write {
                    if let Some(line) = current_line[s] {
                        writeback(&mut queue, line, n - 1);
                    }
                }
            }
        }
        queue
    }

    /// Limit the number of line transfers in flight (default 4, the Direct
    /// RDRAM's outstanding-transaction limit). A value of 1 models a
    /// *blocking* controller — one miss at a time, the assumption behind the
    /// paper's single-stream Equations 5.2/5.3.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one in-flight transfer");
        self.max_in_flight = n;
        self
    }

    /// Arrival cycle of read element `elem` of stream `stream`, once its
    /// DATA packet has been scheduled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "element indices and stream lengths index in-memory vectors, so they fit usize"
    )]
    pub fn elem_arrival(&self, stream: usize, elem: u64) -> Option<Cycle> {
        self.arrivals[stream][elem as usize]
    }

    /// Whether every line transfer has completed issue.
    pub fn done(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Dependency for a store line: the loads of its trigger iteration must
    /// have delivered their elements. Returns the cycle at which the store
    /// may begin, or `None` while unknown.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "element indices and stream lengths index in-memory vectors, so they fit usize"
    )]
    fn store_dep_cycle(&self, op: &LineOp) -> Option<Cycle> {
        let mut dep = 0;
        for (s, desc) in self.streams.iter().enumerate() {
            if desc.kind == StreamKind::Read {
                match self.arrivals[s][op.trigger_iter as usize] {
                    Some(c) => dep = dep.max(c),
                    None => return None,
                }
            }
        }
        Some(dep)
    }

    /// Admit queued ops in order while the front one is ready at `now`.
    fn try_admit(&mut self, now: Cycle) {
        while self.admission_cycle() <= now {
            let Some(op) = self.queue.pop_front() else {
                break;
            };
            let loc = self.map.decode(op.line_addr);
            // The ROW stage is derived from live bank state in tick(), just
            // before the op's first command issues.
            self.in_flight.push(InFlight {
                op,
                loc,
                stage: Stage::Col(0),
                retries: 0,
                resume_at: 0,
            });
        }
    }

    /// The cycle from which the front op may be admitted, or `Cycle::MAX`
    /// when only an issue can unblock it: the window is full, or a store
    /// waits on loads that have not all been scheduled (in-order issue
    /// stalls behind it).
    fn admission_cycle(&self) -> Cycle {
        if self.in_flight.len() >= self.max_in_flight {
            return Cycle::MAX;
        }
        let Some(op) = self.queue.front() else {
            return Cycle::MAX;
        };
        // A blocking controller (one outstanding transfer) waits for the
        // previous line fill to complete before starting the next.
        let blocking = if self.max_in_flight == 1 {
            self.last_data_cycle
        } else {
            0
        };
        if !op.gated {
            return blocking;
        }
        self.store_dep_cycle(op)
            .map_or(Cycle::MAX, |dep| dep.max(blocking))
    }

    fn packets_per_line(&self) -> u64 {
        self.line_bytes / PACKET_BYTES
    }

    /// Advance one cycle: admit ready transfers and issue at most one
    /// command packet, unless the memory system's fault timeline
    /// ([`MemorySystem::faults`]) stalls the controller this cycle. The
    /// watchdog watches stalled cycles too.
    ///
    /// # Errors
    ///
    /// [`SmcError::Protocol`] if the device rejects a scheduled command,
    /// [`SmcError::RetryExhausted`] if an injected DATA NACK outlasts the
    /// fault plan's retry budget, or [`SmcError::Livelock`] when the
    /// forward-progress watchdog sees no command issued for the watchdog
    /// threshold, counted from the latest delivery of an accepted command
    /// ([`MemorySystem::last_delivery`]).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "tick and idle-cycle counters, one increment per cycle, bounded by the run length"
    )]
    pub fn tick(&mut self, now: Cycle, dev: &mut MemorySystem) -> Result<(), SmcError> {
        self.ticks += 1;
        if dev.faults().stalled(now) {
            if !self.done() {
                self.idle_cycles += 1;
                if let Some(events) = &mut self.events {
                    events.push(Event::InjectedStall { cycle: now });
                }
            }
            self.wake = now.saturating_add(1);
        } else {
            self.step(now, dev)?;
            if let Some(events) = &mut self.events {
                for _ in self.prev_nacks..self.data_nacks {
                    events.push(Event::DataNack {
                        cycle: now,
                        bank: self.last_issued.map(|(c, _)| c.bank()),
                    });
                }
                self.prev_nacks = self.data_nacks;
            }
        }
        if self.done() {
            self.watchdog.idle(now);
            return Ok(());
        }
        let key = (
            dev.commands_accepted(),
            self.queue.len(),
            self.in_flight.len(),
            self.line_transfers,
        );
        if let Some(stalled_for) = self.watchdog.observe(now, key, dev.last_delivery()) {
            if let Some(events) = &mut self.events {
                events.push(Event::WatchdogTrip {
                    cycle: now,
                    stalled_for,
                });
            }
            return Err(SmcError::Livelock(Box::new(self.livelock_report(now, dev))));
        }
        Ok(())
    }

    fn livelock_report(&self, now: Cycle, dev: &MemorySystem) -> LivelockReport {
        let banks = dev.total_banks();
        let (last_command, last_command_cycle) = match self.last_issued {
            Some((c, t)) => (Some(format!("{c:?}")), t),
            None => (None, 0),
        };
        LivelockReport {
            now,
            stalled_for: self.watchdog.stalled_for(now),
            last_command,
            last_command_cycle,
            open_banks: (0..banks)
                .filter_map(|b| dev.open_row(b).map(|r| (b, r)))
                .collect(),
            fifo_occupancy: Vec::new(),
            in_flight: self.in_flight.len(),
            pending: self.queue.len(),
        }
    }

    /// One scheduling step: admit ready transfers and issue at most one
    /// command packet. Sets `wake`.
    fn step(&mut self, now: Cycle, dev: &mut MemorySystem) -> Result<(), SmcError> {
        self.try_admit(now);
        let ready = match self.ready_op(now, dev) {
            Ok((k, cmd)) => {
                self.issue(k, cmd, now, dev)?;
                // Look at the next cycle from the new state now, so the
                // next tick lands on an event rather than finding nothing.
                let next = now.saturating_add(1);
                match self.ready_op(next, dev) {
                    Ok(_) => next,
                    Err(ready) => ready,
                }
            }
            Err(ready) => {
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "an idle-cycle counter, one increment per cycle, bounded by the run length"
                )]
                if !self.queue.is_empty() || !self.in_flight.is_empty() {
                    self.idle_cycles += 1;
                }
                ready
            }
        };
        self.wake = ready.min(self.admission_cycle());
        Ok(())
    }

    /// The oldest in-flight op whose next command can start at `at`, with
    /// that command; otherwise the least cycle at which a blocked op's next
    /// command can start (`Cycle::MAX` when every op waits on an older op
    /// sharing its bank). Ops that have not started their column phase
    /// take their stage from live bank state.
    fn ready_op(&mut self, at: Cycle, dev: &MemorySystem) -> Result<(usize, Command), Cycle> {
        let mut ready = Cycle::MAX;
        for k in 0..self.in_flight.len() {
            // An op must not issue ROW commands for a bank while an older
            // in-flight op still has column accesses outstanding there — a
            // precharge would yank the row from under it.
            let bank = self.in_flight[k].loc.bank;
            let bank_busy = self.in_flight[..k].iter().any(|o| o.loc.bank == bank);
            // Recompute the stage from live bank state when the op has not
            // started its column phase.
            if self.in_flight[k].stage == Stage::Col(0) {
                if bank_busy {
                    continue;
                }
                let plan = dev.plan(self.in_flight[k].loc);
                self.in_flight[k].stage = if plan.needs_precharge {
                    Stage::Precharge
                } else if plan.needs_activate {
                    Stage::Activate
                } else {
                    Stage::Col(0)
                };
            }
            if bank_busy && matches!(self.in_flight[k].stage, Stage::Precharge | Stage::Activate) {
                continue;
            }
            let cmd = self.command_for(&self.in_flight[k]);
            let start = dev.earliest(&cmd, at);
            if start <= at {
                return Ok((k, cmd));
            }
            // `Cycle::MAX` is the busy-window fixpoint giving up on windows
            // that tile (almost) all of time, which a later query may not:
            // look again the cycle after.
            ready = ready.min(if start == Cycle::MAX {
                at.saturating_add(1)
            } else {
                start
            });
        }
        Err(ready)
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "p is a packet index below packets_per_line, so the column stays inside the line"
    )]
    fn command_for(&self, f: &InFlight) -> Command {
        match f.stage {
            Stage::Precharge => Command::precharge(f.loc.bank),
            Stage::Activate => Command::activate(f.loc.bank, f.loc.row),
            Stage::Col(p) => {
                let col = f.loc.col + p * PACKET_BYTES;
                let base = match f.op.dir {
                    StreamKind::Read => Command::read(f.loc.bank, col),
                    StreamKind::Write => Command::write(f.loc.bank, col),
                };
                let last = p + 1 == self.packets_per_line();
                if last && self.policy == LinePolicy::ClosedPage {
                    base.with_auto_precharge()
                } else {
                    base
                }
            }
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "p is a packet index below packets_per_line, so addresses stay inside the line; NACK, retry and line counters are bounded by the run length; element indices and stream lengths index in-memory vectors, so they fit usize"
    )]
    fn issue(
        &mut self,
        k: usize,
        cmd: Command,
        now: Cycle,
        dev: &mut MemorySystem,
    ) -> Result<(), SmcError> {
        let stage = self.in_flight[k].stage;
        let outcome = dev.issue_at(&cmd, now)?;
        self.last_issued = Some((cmd, now));
        match stage {
            Stage::Precharge => self.in_flight[k].stage = Stage::Activate,
            Stage::Activate => {
                self.in_flight[k].stage = Stage::Col(self.in_flight[k].resume_at);
            }
            Stage::Col(p) => {
                let Some(data) = outcome.data else {
                    return Err(SmcError::Internal(
                        "COL command completed without a data interval",
                    ));
                };
                self.last_data_cycle = self.last_data_cycle.max(data.end);
                let bank = self.in_flight[k].loc.bank;
                if dev
                    .faults()
                    .nack_data(bank, data.end, self.in_flight[k].retries)
                {
                    // The bus cycles are spent but no data moved: retry the
                    // packet. The row may have been auto-precharged away, so
                    // re-derive the stage from live bank state.
                    self.data_nacks += 1;
                    self.in_flight[k].retries += 1;
                    let retries = self.in_flight[k].retries;
                    if retries > dev.faults().nack_retry_limit() {
                        return Err(SmcError::RetryExhausted {
                            bank,
                            addr: self.in_flight[k].op.line_addr + p * PACKET_BYTES,
                            attempts: retries,
                        });
                    }
                    self.in_flight[k].resume_at = p;
                    let plan = dev.plan(self.in_flight[k].loc);
                    self.in_flight[k].stage = if plan.needs_precharge {
                        Stage::Precharge
                    } else if plan.needs_activate {
                        Stage::Activate
                    } else {
                        Stage::Col(p)
                    };
                    return Ok(());
                }
                // Linefill forwarding: each element becomes visible when
                // its own packet starts arriving (the paper: the store "can
                // be initiated as soon as the first data packet is
                // received").
                if self.in_flight[k].op.record_arrivals {
                    let op = &self.in_flight[k].op;
                    let pkt_lo = op.line_addr + p * PACKET_BYTES;
                    for &(es, e) in &op.elements {
                        let desc = &self.streams[es];
                        if desc.kind != StreamKind::Read {
                            continue;
                        }
                        let a = desc.element_addr(e);
                        if a >= pkt_lo && a < pkt_lo + PACKET_BYTES {
                            self.arrivals[es][e as usize] = Some(data.start);
                        }
                    }
                }
                if p + 1 == self.packets_per_line() {
                    self.line_transfers += 1;
                    self.in_flight.remove(k);
                } else {
                    self.in_flight[k].stage = Stage::Col(p + 1);
                }
            }
        }
        Ok(())
    }

    /// Run the whole schedule, returning the timing summary.
    ///
    /// The loop steps from event to event: after each tick it jumps to the
    /// next cycle at which a tick can change anything, and counts every
    /// skipped cycle as idle. The result, the device state, every arrival,
    /// the command stream and the telemetry events all equal those of
    /// calling [`tick`](Self::tick) once per cycle (see the
    /// [crate docs](crate) for why).
    ///
    /// # Errors
    ///
    /// Propagates the first [`SmcError`] a tick reports — under fault
    /// injection that can be a livelock or an exhausted retry budget; on a
    /// fault-free run any error is an internal bug.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "idle cycles are at most the cycles skipped, bounded by the run length"
    )]
    pub fn run_to_completion(
        &mut self,
        dev: &mut MemorySystem,
    ) -> Result<BaselineResult, SmcError> {
        let mut now: Cycle = 0;
        while !self.done() {
            self.tick(now, dev)?;
            if self.done() {
                break;
            }
            let next = self.next_event(now, dev);
            self.idle_cycles += next.saturating_sub(now).saturating_sub(1);
            now = next;
        }
        Ok(BaselineResult {
            last_data_cycle: self.last_data_cycle,
            line_transfers: self.line_transfers,
            idle_cycles: self.idle_cycles,
            data_nacks: self.data_nacks,
        })
    }

    /// The next cycle after the tick at `now` at which a tick can change
    /// anything: the tick's `wake` cycle, the next injected stall (stalled
    /// cycles are stepped one by one) or the watchdog's deadline, whichever
    /// comes first.
    fn next_event(&self, now: Cycle, dev: &MemorySystem) -> Cycle {
        let next = now.saturating_add(1);
        let stall = dev.faults().next_stall(next).unwrap_or(Cycle::MAX);
        self.wake.min(stall).min(self.watchdog.deadline()).max(next)
    }

    /// End cycle of the last DATA packet scheduled so far.
    pub fn last_data_cycle(&self) -> Cycle {
        self.last_data_cycle
    }

    /// Ticks executed so far, one per call to [`tick`](Self::tick): one per
    /// cycle for a caller that steps every cycle, one per event under
    /// [`run_to_completion`](Self::run_to_completion).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// Distinct cachelines `desc` touches: one per element once elements are
/// a line or more apart, else every line from the first element's to the
/// last's.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "line_bytes is non-zero and a stream has at least one element (the n axis starts at 1), so the last line is at or after the first"
)]
fn line_count(desc: &StreamDescriptor, line_bytes: u64) -> u64 {
    if desc.stride * ELEM_BYTES >= line_bytes {
        return desc.length;
    }
    let first = desc.element_addr(0) / line_bytes;
    let last = desc.element_addr(desc.length - 1) / line_bytes;
    last - first + 1
}

/// The most elements of `desc` one cacheline can hold.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "a stride is at least 1 element, so the divisor is non-zero; the result is at most the stream length, which fits usize"
)]
fn elements_per_line(desc: &StreamDescriptor, line_bytes: u64) -> usize {
    line_bytes
        .div_ceil(desc.stride * ELEM_BYTES)
        .min(desc.length) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdram::{AddressMap, DeviceConfig, Interleave};

    fn cli() -> (MemorySystem, SystemMap) {
        let cfg = DeviceConfig::default();
        let map = AddressMap::new(Interleave::Cacheline { line_bytes: 32 }, &cfg).unwrap();
        (MemorySystem::single(cfg), SystemMap::single(map))
    }

    fn pi() -> (MemorySystem, SystemMap) {
        let cfg = DeviceConfig::default();
        let map = AddressMap::new(Interleave::Page, &cfg).unwrap();
        (MemorySystem::single(cfg), SystemMap::single(map))
    }

    /// Vector bases staggered by `unit` bytes so successive vectors map to
    /// different banks (one line for CLI, one page for PI — the analytic
    /// models' conflict-free assumption).
    fn three_stream(n: u64, unit: u64) -> Vec<StreamDescriptor> {
        vec![
            StreamDescriptor::read("x", 0, 1, n),
            StreamDescriptor::read("y", 64 * 1024 + unit, 1, n),
            StreamDescriptor::write("z", 128 * 1024 + 2 * unit, 1, n),
        ]
    }

    #[test]
    fn single_stream_cli_matches_the_analytic_shape() {
        // One read stream, CLI closed-page: the bound is T_LCC per line =
        // 24 cycles per 4 words -> 33.3% of peak. The simulation pipelines
        // ACTs across banks, so it should be close to (and not beat) ~6
        // cycles/word.
        let (mut dev, map) = cli();
        let streams = vec![StreamDescriptor::read("x", 0, 1, 1024)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
        let r = ctl.run_to_completion(&mut dev).expect("fault-free run");
        let words = 1024.0;
        let cyc_per_word = r.last_data_cycle as f64 / words;
        // tRR-limited: one line (4 words) per 2*tRR..=T_LCC window.
        assert!(cyc_per_word >= 2.0, "cannot beat peak: {cyc_per_word}");
        assert!(cyc_per_word < 7.0, "too slow: {cyc_per_word}");
        assert_eq!(r.line_transfers, 256);
    }

    #[test]
    fn pi_open_page_beats_cli_closed_page_for_streams() {
        let n = 1024;
        let run = |(mut dev, map): (MemorySystem, SystemMap), pol, unit| {
            let mut ctl = BaselineController::new(three_stream(n, unit), map, pol, 32);
            ctl.run_to_completion(&mut dev)
                .expect("fault-free run")
                .last_data_cycle
        };
        let cli_cycles = run(cli(), LinePolicy::ClosedPage, 32);
        let pi_cycles = run(pi(), LinePolicy::OpenPage, 1024);
        assert!(
            pi_cycles < cli_cycles,
            "PI ({pi_cycles}) should beat CLI ({cli_cycles}) for streaming"
        );
    }

    #[test]
    fn stores_wait_for_their_iterations_loads() {
        let (mut dev, map) = cli();
        let mut ctl =
            BaselineController::new(three_stream(64, 32), map, LinePolicy::ClosedPage, 32);
        let _ = ctl.run_to_completion(&mut dev).expect("fault-free run");
        // x[0] and y[0] must both arrive; z's first line transfer starts
        // after them, so every arrival is defined.
        let x0 = ctl.elem_arrival(0, 0).unwrap();
        let y0 = ctl.elem_arrival(1, 0).unwrap();
        assert!(
            x0 > 0 && y0 > x0,
            "loads pipeline in order: x0={x0} y0={y0}"
        );
    }

    #[test]
    fn forwarding_gives_elementwise_arrivals() {
        let (mut dev, map) = cli();
        let streams = vec![StreamDescriptor::read("x", 0, 1, 8)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
        let _ = ctl.run_to_completion(&mut dev).expect("fault-free run");
        // Elements 0-1 are in the line's first packet, 2-3 in the second.
        let a0 = ctl.elem_arrival(0, 0).unwrap();
        let a2 = ctl.elem_arrival(0, 2).unwrap();
        assert_eq!(a2 - a0, 4, "second packet lands one tPACK later");
        assert_eq!(ctl.elem_arrival(0, 1).unwrap(), a0);
    }

    #[test]
    fn strided_access_fetches_one_line_per_element() {
        let (mut dev, map) = cli();
        let streams = vec![StreamDescriptor::read("x", 0, 8, 32)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
        let r = ctl.run_to_completion(&mut dev).expect("fault-free run");
        assert_eq!(
            r.line_transfers, 32,
            "stride 8 words skips every other line"
        );
    }

    #[test]
    fn write_only_kernel_needs_no_dependencies() {
        let (mut dev, map) = pi();
        let streams = vec![StreamDescriptor::write("y", 0, 1, 256)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::OpenPage, 32);
        let r = ctl.run_to_completion(&mut dev).expect("fault-free run");
        assert_eq!(r.line_transfers, 64);
        assert!(ctl.done());
    }

    #[test]
    fn write_allocate_doubles_write_line_traffic_and_slows_the_run() {
        let n = 256;
        let run = |policy: WritePolicy| {
            let (mut dev, map) = cli();
            let mut ctl =
                BaselineController::new(three_stream(n, 32), map, LinePolicy::ClosedPage, 32)
                    .with_write_policy(policy);
            ctl.run_to_completion(&mut dev).expect("fault-free run")
        };
        let direct = run(WritePolicy::StoreDirect);
        let allocate = run(WritePolicy::WriteAllocate);
        // One write stream of n/4 lines: each now fetched AND written back.
        assert_eq!(allocate.line_transfers, direct.line_transfers + n / 4);
        assert!(
            allocate.last_data_cycle > direct.last_data_cycle,
            "writebacks must cost time: {} !> {}",
            allocate.last_data_cycle,
            direct.last_data_cycle
        );
    }

    #[test]
    fn cache_model_matches_line_buffers_for_unit_stride() {
        // Unit-stride streams fit easily in a 16 KB cache: the cached
        // schedule transfers the same lines as the idealized model plus the
        // final dirty flush.
        let n = 256;
        let (mut dev, map) = cli();
        let mut ideal =
            BaselineController::new(three_stream(n, 32), map, LinePolicy::ClosedPage, 32);
        let ideal_r = ideal.run_to_completion(&mut dev).expect("fault-free run");
        let (mut dev2, map2) = cli();
        let mut cached =
            BaselineController::new(three_stream(n, 32), map2, LinePolicy::ClosedPage, 32)
                .with_cache(crate::cache::CacheConfig::i860xp());
        let cached_r = cached.run_to_completion(&mut dev2).expect("fault-free run");
        let (hits, misses, _) = cached.cache_stats().unwrap();
        // Every stream's lines miss once (z's stores write-allocate).
        assert_eq!(misses, 3 * n / 4);
        assert!(hits > 0);
        // Fetches equal the ideal model's transfers; the z writebacks add
        // n/4 more.
        assert_eq!(cached_r.line_transfers, ideal_r.line_transfers + n / 4);
    }

    #[test]
    fn power_of_two_strides_storm_the_cache() {
        // Stride 2048 words = 16 KB: all three vectors' accesses collide in
        // one cache set, so every access misses — the conflict cost the
        // paper left unmeasured. (The device is too small for full 16 KB
        // strides at length 64, so use a tiny 1 KB cache and 128-byte-
        // footprint strides instead: same mechanism.)
        let tiny = crate::cache::CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 32,
            ways: 1,
        };
        let n = 64;
        let stride = 128 / 8; // 16 words = one tiny-cache way apart
        let mk = |unit: u64| {
            vec![
                StreamDescriptor::read("x", 0, stride, n),
                StreamDescriptor::read("y", 64 * 1024 + unit, stride, n),
                StreamDescriptor::write("z", 128 * 1024 + 2 * unit, stride, n),
            ]
        };
        let (mut dev, map) = cli();
        let mut cached =
            BaselineController::new(mk(1024), map, LinePolicy::ClosedPage, 32).with_cache(tiny);
        let r = cached.run_to_completion(&mut dev).expect("fault-free run");
        let (_, misses, writebacks) = cached.cache_stats().unwrap();
        // Strided accesses at one-line-per-element already miss per access;
        // the conflict cache also evicts dirty z lines continuously.
        assert_eq!(misses, 3 * n);
        // Most dirty z lines are evicted mid-run; the handful still
        // resident flush at the end.
        assert!(writebacks >= n - 16, "dirty z lines evicted: {writebacks}");
        assert_eq!(r.line_transfers, 4 * n, "3n fetches + n writebacks");
    }

    #[test]
    fn permanently_busy_banks_trip_the_watchdog() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, map) = cli();
        let plan = FaultPlan::parse("busy:*:1:1").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 7));
        let streams = vec![StreamDescriptor::read("x", 0, 1, 64)];
        let mut ctl =
            BaselineController::new(streams, map, LinePolicy::ClosedPage, 32).with_watchdog(500);
        match ctl.run_to_completion(&mut dev) {
            Err(SmcError::Livelock(report)) => {
                // Admission at cycle 0 is the last progress; the stall
                // reaches the threshold exactly 500 cycles later.
                assert_eq!((report.now, report.stalled_for), (500, 500), "{report}");
                assert!(report.last_command.is_none(), "nothing ever issued");
                assert!(report.pending + report.in_flight > 0, "work remained");
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn nacked_data_packets_are_retried_to_completion() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, map) = cli();
        let plan = FaultPlan::parse("nack:300:10").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 11));
        let streams = vec![StreamDescriptor::read("x", 0, 1, 256)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
        let r = ctl.run_to_completion(&mut dev).expect("retries recover");
        assert!(r.data_nacks > 0, "plan should have injected NACKs");
        assert_eq!(r.line_transfers, 64, "every line still completes");
    }

    #[test]
    fn injected_stalls_pause_but_do_not_kill_the_run() {
        use faults::{FaultInjector, FaultPlan};
        let (mut dev, map) = cli();
        let plan = FaultPlan::parse("stall:100:20").unwrap();
        dev.set_faults(FaultInjector::new(&plan, 3));
        let streams = vec![StreamDescriptor::read("x", 0, 1, 64)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
        let r = ctl
            .run_to_completion(&mut dev)
            .expect("stalls only slow us");
        assert_eq!(r.line_transfers, 16);
        assert!(r.idle_cycles > 0, "stall windows count as idle time");
    }

    #[test]
    fn the_memory_system_records_every_issued_command() {
        let (mut dev, map) = cli();
        dev.record_commands();
        let streams = vec![StreamDescriptor::read("x", 0, 1, 64)];
        let mut ctl = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
        let _ = ctl.run_to_completion(&mut dev).expect("fault-free run");
        let recs = dev.take_commands();
        let stats = dev.stats();
        assert_eq!(
            recs.len() as u64,
            stats.activates + stats.precharges + stats.read_packets + stats.write_packets,
            "one record per issued command"
        );
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn unequal_lengths_rejected() {
        let (_, map) = cli();
        let streams = vec![
            StreamDescriptor::read("x", 0, 1, 8),
            StreamDescriptor::read("y", 4096, 1, 16),
        ];
        let _ = BaselineController::new(streams, map, LinePolicy::ClosedPage, 32);
    }
}
