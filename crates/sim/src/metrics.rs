//! Cycle-attributed observability primitives: stall accounting and
//! typed event tracing.
//!
//! The paper's key findings are *attribution* results — the blocking PTW
//! is the traversal unit's bottleneck (§VI-A), PTW refills are ~2/3 of
//! shared-cache requests (Fig. 18) — so every ticked state machine in the
//! workspace charges each cycle it spends to exactly one bucket: either
//! `busy` (it made forward progress) or one [`StallReason`]. The central
//! invariant, asserted by the harness test suite, is
//!
//! ```text
//! busy + Σ stalls == phase cycles × lanes
//! ```
//!
//! where `lanes` is the number of independent clocks in the phase (1 for
//! the mark phase and the CPU collector, the sweeper count for the
//! parallel sweep phase).
//!
//! [`EventTrace`] is the companion ring buffer: bounded, drop-counted,
//! and cheap enough to leave compiled in — tracing is off unless a
//! component is explicitly handed a trace. The harness turns the ring
//! into Chrome-trace JSON (`chrome://tracing`) behind `--trace`.
//!
//! # Examples
//!
//! ```
//! use tracegc_sim::metrics::{StallAccounting, StallReason};
//!
//! let mut acct = StallAccounting::default();
//! acct.busy(10);
//! acct.stall(StallReason::MemLatency, 4);
//! assert_eq!(acct.total(), 14);
//! assert_eq!(acct.stalled(StallReason::MemLatency), 4);
//! ```

use std::collections::VecDeque;

use crate::Cycle;

/// Why a state machine failed to make forward progress on a cycle.
///
/// Every stalled cycle is attributed to exactly one reason; the
/// classification is by *bottleneck*, so e.g. a marker frozen behind a
/// page-table walk charges [`TlbMiss`](StallReason::TlbMiss) even though
/// the walk itself is also memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallReason {
    /// Waiting on an outstanding memory response (loads, fetch-or AMOs,
    /// mark-queue refills).
    MemLatency,
    /// Back-pressured by a full downstream queue (tracer queue, deliver
    /// buffer, mark-queue spill throttle).
    QueueFull,
    /// Frozen behind a page-table walk triggered by this requester
    /// (blocking-TLB mode, §V-B).
    TlbMiss,
    /// Waiting for the shared page-table walker, which is busy serving
    /// another requester.
    PtwBusy,
    /// Paced by a configured minimum issue interval (the bandwidth
    /// throttle of the concurrent-GC experiments).
    Throttled,
    /// Lost arbitration for the unit's single memory port this cycle.
    PortBusy,
    /// Nothing to do: drained inputs (e.g. a sweeper that finished its
    /// blocks while siblings still run).
    Idle,
}

impl StallReason {
    /// Number of distinct reasons.
    pub const COUNT: usize = 7;

    /// Every reason, in declaration (= serialization) order.
    pub const ALL: [StallReason; Self::COUNT] = [
        StallReason::MemLatency,
        StallReason::QueueFull,
        StallReason::TlbMiss,
        StallReason::PtwBusy,
        StallReason::Throttled,
        StallReason::PortBusy,
        StallReason::Idle,
    ];

    /// Dense index into per-reason arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::MemLatency => 0,
            StallReason::QueueFull => 1,
            StallReason::TlbMiss => 2,
            StallReason::PtwBusy => 3,
            StallReason::Throttled => 4,
            StallReason::PortBusy => 5,
            StallReason::Idle => 6,
        }
    }

    /// Stable snake-case name used in JSON sidecars and trace files.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::MemLatency => "mem_latency",
            StallReason::QueueFull => "queue_full",
            StallReason::TlbMiss => "tlb_miss",
            StallReason::PtwBusy => "ptw_busy",
            StallReason::Throttled => "throttled",
            StallReason::PortBusy => "port_busy",
            StallReason::Idle => "idle",
        }
    }

    /// The event-trace `kind` string for a stall span of this reason.
    pub fn stall_kind(self) -> &'static str {
        match self {
            StallReason::MemLatency => "stall:mem_latency",
            StallReason::QueueFull => "stall:queue_full",
            StallReason::TlbMiss => "stall:tlb_miss",
            StallReason::PtwBusy => "stall:ptw_busy",
            StallReason::Throttled => "stall:throttled",
            StallReason::PortBusy => "stall:port_busy",
            StallReason::Idle => "stall:idle",
        }
    }
}

/// Per-component cycle ledger: busy cycles plus one accumulator per
/// [`StallReason`]. `Copy` and comparable so results structs can embed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallAccounting {
    busy: u64,
    stalls: [u64; StallReason::COUNT],
}

impl StallAccounting {
    /// Charges `n` cycles of forward progress.
    pub fn busy(&mut self, n: u64) {
        self.busy += n;
    }

    /// Charges `n` stalled cycles to `reason`.
    pub fn stall(&mut self, reason: StallReason, n: u64) {
        self.stalls[reason.index()] += n;
    }

    /// Cycles spent making forward progress.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Cycles charged to `reason`.
    pub fn stalled(&self, reason: StallReason) -> u64 {
        self.stalls[reason.index()]
    }

    /// Total stalled cycles across all reasons.
    pub fn total_stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Busy + stalled cycles; the accounting invariant requires this to
    /// equal phase cycles × lanes.
    pub fn total(&self) -> u64 {
        self.busy + self.total_stalled()
    }

    /// `(reason, cycles)` pairs in [`StallReason::ALL`] order.
    pub fn breakdown(&self) -> [(StallReason, u64); StallReason::COUNT] {
        let mut out = [(StallReason::MemLatency, 0); StallReason::COUNT];
        for (i, r) in StallReason::ALL.into_iter().enumerate() {
            out[i] = (r, self.stalls[i]);
        }
        out
    }

    /// Folds another ledger into this one (e.g. summing phases).
    pub fn merge(&mut self, other: &StallAccounting) {
        self.busy += other.busy;
        for i in 0..StallReason::COUNT {
            self.stalls[i] += other.stalls[i];
        }
    }
}

/// One typed trace record: something happened at `cycle` in `component`.
///
/// `kind` is a small static vocabulary (`"mark_issue"`, `"spill_write"`,
/// `"stall:tlb_miss"`, …); `arg` is kind-specific (an address, a count,
/// a span length in cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred (span events: span start).
    pub cycle: Cycle,
    /// Emitting component (`"marker"`, `"sweeper"`, `"mem"`, …).
    pub component: &'static str,
    /// Event kind from the component's vocabulary.
    pub kind: &'static str,
    /// Kind-specific argument (span events: duration in cycles).
    pub arg: u64,
}

/// Default [`EventTrace`] capacity: enough for the opening of a
/// smoke-scale pause without unbounded memory growth.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A bounded ring of [`TraceEvent`]s, modelled on a hardware trace
/// buffer: once full, new events are dropped and counted rather than
/// evicting history, so the recorded prefix stays contiguous.
///
/// # Examples
///
/// ```
/// use tracegc_sim::metrics::EventTrace;
///
/// let mut t = EventTrace::new(2);
/// t.record(0, "marker", "mark_issue", 0x1000);
/// t.record(5, "marker", "mark_issue", 0x1040);
/// t.record(9, "marker", "mark_issue", 0x1080); // full: dropped
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventTrace {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl EventTrace {
    /// Creates a trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records one event, or bumps the drop counter when full.
    pub fn record(&mut self, cycle: Cycle, component: &'static str, kind: &'static str, arg: u64) {
        if self.events.len() < self.capacity {
            self.events.push_back(TraceEvent {
                cycle,
                component,
                kind,
                arg,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum events the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the recorded events in order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Consumes the ring into a `Vec` in record order.
    pub fn into_vec(self) -> Vec<TraceEvent> {
        self.events.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting_sums_and_merges() {
        let mut a = StallAccounting::default();
        a.busy(7);
        a.stall(StallReason::TlbMiss, 3);
        a.stall(StallReason::TlbMiss, 2);
        a.stall(StallReason::Idle, 1);
        assert_eq!(a.busy_cycles(), 7);
        assert_eq!(a.stalled(StallReason::TlbMiss), 5);
        assert_eq!(a.total_stalled(), 6);
        assert_eq!(a.total(), 13);

        let mut b = StallAccounting::default();
        b.busy(1);
        b.stall(StallReason::MemLatency, 4);
        b.merge(&a);
        assert_eq!(b.total(), 18);
        assert_eq!(b.stalled(StallReason::MemLatency), 4);
        assert_eq!(b.stalled(StallReason::TlbMiss), 5);
    }

    #[test]
    fn stall_reason_names_and_indices_are_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (i, r) in StallReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(seen.insert(r.name()), "duplicate name {}", r.name());
            assert_eq!(r.stall_kind(), format!("stall:{}", r.name()));
        }
    }

    #[test]
    fn event_trace_bounds_and_counts_drops() {
        let mut t = EventTrace::new(3);
        for i in 0..5 {
            t.record(i, "c", "k", i);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.capacity(), 3);
        assert_eq!(t.dropped(), 2);
        // The *prefix* is kept: drops discard new events, not history.
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        assert_eq!(t.into_vec().len(), 3);
    }
}
