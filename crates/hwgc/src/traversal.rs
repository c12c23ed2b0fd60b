//! The Traversal Unit: root reader → mark queue → marker → tracer queue →
//! tracer → mark queue (Figs. 5, 7, 13, 14).
//!
//! The unit is a pipeline of state machines advanced one clock cycle at a
//! time. Each cycle, at most one mark-queue spill action, one marker
//! issue, one marker delivery, one tracer issue and one tracer response
//! landing can occur — mirroring the single-ported hardware queues. The
//! memory system and TLBs are timestamp-passing models, so when every
//! machine is waiting on memory the simulation skips ahead to the next
//! completion.
//!
//! The decoupling the paper credits for the speedup is structural here:
//! a long object keeps the *tracer* busy while the *marker* keeps
//! draining the mark queue and filling the tracer queue, and vice versa
//! (§IV-A.II).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use tracegc_heap::layout::{bidi, conv, Header, LayoutKind, HEADER_MARK_BIT, WORD};
use tracegc_heap::{Heap, SocCtx};
use tracegc_mem::cache::issue;
use tracegc_mem::req::decompose_aligned;
use tracegc_mem::{Cache, CacheConfig, MemReq, MemSystem, Source};
use tracegc_sim::metrics::DEFAULT_TRACE_CAPACITY;
use tracegc_sim::sched::{Policy, Scheduler};
use tracegc_sim::{
    BoundedQueue, Cycle, EventTrace, FaultInjector, FaultPlan, FaultSite, FaultStats, SimError,
    StallAccounting, StallReason,
};
use tracegc_vmem::{Requester, TlbConfig, Translator, TranslatorStats, PAGE_SIZE};

use crate::compress::RefCodec;
use crate::config::{CacheTopology, GcUnitConfig};
use crate::markbit_cache::MarkBitCache;
use crate::markq::{MarkQueue, MarkQueueConfig, MarkQueueStats};
use crate::trap::{Trap, TrapKind};

/// Reference-count ceiling for the marker's header sanity check: no
/// object in any modelled workload approaches 2^26 references (that is
/// a half-gigabyte reference array), but corruption of the count field
/// sails past it. Headers above the ceiling trap as
/// [`TrapKind::HeaderCorrupt`].
const MAX_PLAUSIBLE_NREFS: u32 = 1 << 26;

/// Result of one mark pass on the traversal unit.
#[derive(Debug, Clone)]
pub struct TraversalResult {
    /// Cycle the pass began.
    pub start: Cycle,
    /// Cycle the pass completed (all queues drained).
    pub end: Cycle,
    /// Objects newly marked.
    pub objects_marked: u64,
    /// Mark operations that found the object already marked (write-back
    /// elided, §V-C).
    pub already_marked: u64,
    /// Mark operations filtered by the mark-bit cache before reaching
    /// memory (Fig. 21b).
    pub filtered: u64,
    /// References enqueued to the mark queue by the tracer.
    pub refs_enqueued: u64,
    /// Cycles in which the unit's TileLink port issued a request — the
    /// paper reports the port busy 88% of mark cycles (§VI-A).
    pub port_busy_cycles: Cycle,
    /// Mark-queue / spill statistics (Fig. 19).
    pub markq: MarkQueueStats,
    /// Translation statistics of this pass.
    pub translator: TranslatorStats,
    /// Cycle attribution for the pass: `stalls.total() == cycles()` for
    /// scheduler-driven passes (any of the `try_run_*` drivers, or a
    /// [`MarkEngine`](crate::engine::MarkEngine) under a lockstep
    /// scheduler). A raw [`TraversalUnit::step`] loop that never calls
    /// [`TraversalUnit::charge_busy`] / [`TraversalUnit::charge_stall`]
    /// leaves this empty.
    pub stalls: StallAccounting,
}

impl TraversalResult {
    /// Duration of the pass in cycles.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// The cache a unit request goes through: in the shared topology the
/// translator's, which is Fig. 18a's one 16 KiB cache; in the
/// partitioned topology none, so requests go straight to memory.
fn request_cache(topology: CacheTopology, translator: &mut Translator) -> Option<&mut Cache> {
    match topology {
        CacheTopology::Partitioned => None,
        CacheTopology::Shared => Some(translator.cache_mut()),
    }
}

/// The translation counts accrued between `base` and `now`.
fn translator_since(now: TranslatorStats, base: TranslatorStats) -> TranslatorStats {
    TranslatorStats {
        l1_hits: now.l1_hits - base.l1_hits,
        l2_hits: now.l2_hits - base.l2_hits,
        walks: now.walks - base.walks,
        walker_wait_cycles: now.walker_wait_cycles - base.walker_wait_cycles,
        walk_cycles: now.walk_cycles - base.walk_cycles,
    }
}

#[derive(Debug, Clone, Copy)]
enum MarkerSlot {
    Free,
    /// AMO in flight; response arrives at `done`.
    Busy {
        done: Cycle,
        va: u64,
        old: u64,
    },
    /// Response arrived but the tracer queue was full.
    Deliver {
        va: u64,
        old: u64,
    },
}

/// The marker's outstanding-AMO slots, with a bitmask per state so
/// every scan is a bit search and the earliest response is cached.
/// Scans keep the lowest-index-first order of a linear walk over
/// `slots`.
#[derive(Debug)]
struct MarkerSlots {
    slots: Vec<MarkerSlot>,
    /// Bit `i` is set for each of the `slots.len()` slots.
    all: u64,
    /// Bit `i` is set while `slots[i]` is `Busy`.
    busy: u64,
    /// Bit `i` is set while `slots[i]` is `Deliver`.
    deliver: u64,
    /// Earliest `done` over the busy slots (`Cycle::MAX` when none);
    /// recomputed whenever a busy slot leaves, so it is never stale.
    next_done: Cycle,
}

impl MarkerSlots {
    fn new(n: usize) -> Self {
        assert!(n <= 64, "at most 64 marker slots ({n} configured)");
        Self {
            slots: vec![MarkerSlot::Free; n],
            all: u64::MAX.checked_shr(64 - n as u32).unwrap_or(0),
            busy: 0,
            deliver: 0,
            next_done: Cycle::MAX,
        }
    }

    /// The lowest-index free slot.
    fn first_free(&self) -> Option<usize> {
        let free = self.all & !(self.busy | self.deliver);
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// The lowest-index busy slot whose response has arrived by `now`,
    /// with its `(va, old)`.
    fn first_landed(&self, now: Cycle) -> Option<(usize, u64, u64)> {
        if self.next_done > now {
            return None;
        }
        let mut busy = self.busy;
        while busy != 0 {
            let i = busy.trailing_zeros() as usize;
            if let MarkerSlot::Busy { done, va, old } = self.slots[i] {
                if done <= now {
                    return Some((i, va, old));
                }
            }
            busy &= busy - 1;
        }
        unreachable!(
            "next_done {} <= {now} but no busy slot has landed",
            self.next_done
        )
    }

    /// The lowest-index slot holding a parked delivery, with its
    /// `(va, old)`.
    fn first_deliver(&self) -> Option<(usize, u64, u64)> {
        if self.deliver == 0 {
            return None;
        }
        let i = self.deliver.trailing_zeros() as usize;
        match self.slots[i] {
            MarkerSlot::Deliver { va, old } => Some((i, va, old)),
            _ => unreachable!("the deliver mask names only Deliver slots"),
        }
    }

    fn set(&mut self, i: usize, slot: MarkerSlot) {
        let bit = 1u64 << i;
        let was_busy = self.busy & bit != 0;
        self.busy &= !bit;
        self.deliver &= !bit;
        self.slots[i] = slot;
        match slot {
            MarkerSlot::Busy { done, .. } => {
                self.busy |= bit;
                self.next_done = self.next_done.min(done);
            }
            MarkerSlot::Deliver { .. } => self.deliver |= bit,
            MarkerSlot::Free => {}
        }
        if was_busy {
            self.next_done = self.earliest_done();
        }
    }

    fn earliest_done(&self) -> Cycle {
        let mut next = Cycle::MAX;
        let mut busy = self.busy;
        while busy != 0 {
            if let MarkerSlot::Busy { done, .. } = self.slots[busy.trailing_zeros() as usize] {
                next = next.min(done);
            }
            busy &= busy - 1;
        }
        next
    }

    fn any_busy(&self) -> bool {
        self.busy != 0
    }

    fn any_deliver(&self) -> bool {
        self.deliver != 0
    }

    fn all_free(&self) -> bool {
        self.busy | self.deliver == 0
    }

    /// Frees every slot, returning the references the non-free ones
    /// held, in slot order.
    fn drain(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.busy = 0;
        self.deliver = 0;
        self.next_done = Cycle::MAX;
        self.slots
            .iter_mut()
            .filter_map(|slot| match std::mem::replace(slot, MarkerSlot::Free) {
                MarkerSlot::Busy { va, .. } | MarkerSlot::Deliver { va, .. } => Some(va),
                MarkerSlot::Free => None,
            })
    }
}

#[derive(Debug, Clone, Copy)]
struct TraceJob {
    obj: u64,
    nrefs: u32,
}

#[derive(Debug)]
enum TraceState {
    /// Walking a bidirectional reference section with aligned chunks.
    Bidi { cursor: u64, end: u64 },
    /// Conventional layout: waiting for the TIB pointer load.
    ConvTib { obj: u64, nrefs: u32 },
    /// Conventional layout: issuing per-field loads at the TIB-listed
    /// offsets.
    ConvFields { obj: u64, offsets: VecDeque<u32> },
}

/// The most words one tracer response carries: one aligned access of
/// at most 64 bytes.
const RESP_WORDS: usize = 8;

/// A tracer response: references (possibly none) arriving at `done`,
/// held inline so a response costs no heap allocation.
#[derive(Debug)]
struct TraceResp {
    done: Cycle,
    seq: u64,
    len: u8,
    words: [u64; RESP_WORDS],
}

impl TraceResp {
    fn refs(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }
}

impl PartialEq for TraceResp {
    fn eq(&self, other: &Self) -> bool {
        self.done == other.done && self.seq == other.seq
    }
}
impl Eq for TraceResp {}
impl PartialOrd for TraceResp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TraceResp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.done, self.seq).cmp(&(other.done, other.seq))
    }
}

#[derive(Debug)]
struct RootReader {
    /// Remaining `(addr, size)` chunks of the root array to read.
    chunks: VecDeque<(u64, u32)>,
    /// In-flight chunk: data arrives at `.0`.
    pending: Option<(Cycle, Vec<u64>)>,
    /// Roots read but not yet pushed into the mark queue.
    buf: VecDeque<u64>,
}

impl RootReader {
    fn done(&self) -> bool {
        self.chunks.is_empty() && self.pending.is_none() && self.buf.is_empty()
    }
}

/// The traversal unit (Fig. 5, left).
#[derive(Debug)]
pub struct TraversalUnit {
    cfg: GcUnitConfig,
    /// Translation. Its walks go through its own cache: the dedicated
    /// 8 KiB PTW cache in the partitioned topology, the one shared
    /// 16 KiB cache that also fronts every unit request in the shared
    /// topology ([`request_cache`]).
    translator: Translator,
    markq: MarkQueue,
    markbit: MarkBitCache,
    tracerq: BoundedQueue<TraceJob>,
    marker_slots: MarkerSlots,
    trace_state: Option<TraceState>,
    responses: BinaryHeap<Reverse<TraceResp>>,
    resp_seq: u64,
    /// Refs from landed responses awaiting mark-queue space.
    deliver_buf: VecDeque<u64>,
    /// References injected by concurrent-mutator write barriers
    /// (§IV-D: overwritten references written into the root region are
    /// fed to the mark queue).
    injected: VecDeque<u64>,
    roots: RootReader,
    /// The unit's single TileLink port: one data request may issue per
    /// cycle, shared by the spill engine, root reader, marker and
    /// tracer (in that priority order — spill writes first, §V-C).
    port_free: bool,
    /// The marker's pipeline is stalled until this cycle: its TLB is
    /// blocking, so a page-table walk freezes the marker (§VI-A).
    marker_blocked_until: Cycle,
    /// Likewise for the tracer's blocking TLB.
    tracer_blocked_until: Cycle,
    /// Cycles during which the port issued a request (the "port busy
    /// 88% of all mark cycles" statistic of §VI-A).
    port_busy_cycles: u64,
    /// Cycle of the most recent port issue (for §VII throttling);
    /// `None` before the first issue.
    last_issue_at: Option<Cycle>,
    /// Background mutator traffic: one 64-byte CPU read every this many
    /// cycles (0 = no background traffic). Models the application
    /// running on the CPU while a concurrent unit collects (§VII).
    bg_period: Cycle,
    bg_next: Cycle,
    /// Latencies observed by the background traffic (the mutator's view
    /// of memory interference).
    bg_latencies: Vec<Cycle>,
    objects_marked: u64,
    already_marked: u64,
    filtered: u64,
    refs_enqueued: u64,
    /// Translator statistics at [`TraversalUnit::begin`]; a result
    /// reports the counts accrued since.
    translator_at_begin: TranslatorStats,
    /// Cycle attribution for the current pass (reset by
    /// [`TraversalUnit::begin`], charged by
    /// [`TraversalUnit::try_run_mark`]'s clock-advance points).
    stalls: StallAccounting,
    /// Why the marker is frozen when `marker_blocked_until > now`.
    marker_block_reason: StallReason,
    /// Why the tracer is frozen when `tracer_blocked_until > now`.
    tracer_block_reason: StallReason,
    /// Event ring, present when `cfg.trace` is set.
    trace: Option<EventTrace>,
    /// Latched trap (first cause wins); the pipeline freezes while set
    /// and the driver recovers via
    /// [`TraversalUnit::drain_architected_state`].
    trap: Option<Trap>,
    /// The original (uncorrupted) queue entry behind a faulting marker
    /// issue — the hardware's faulting-entry register, preserved so the
    /// software fallback resumes from clean state.
    trap_pending_ref: Option<u64>,
    /// Cycle the current pass began (for the `mark_budget` deadline).
    pass_start: Cycle,
    /// Fault injector for the marker datapath (`None` = no injection).
    fault: Option<FaultInjector>,
}

impl TraversalUnit {
    /// Builds the unit for `heap`'s address space, allocating its spill
    /// region from physical memory (as the Linux driver does at boot,
    /// §V-E).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.marker_slots` exceeds 64.
    pub fn new(cfg: GcUnitConfig, heap: &mut Heap) -> Self {
        let spill_base = heap.alloc_phys_region(cfg.spill_bytes);
        let codec = if cfg.compress {
            RefCodec::Compressed {
                base: heap.spaces().immortal_base,
            }
        } else {
            RefCodec::Full
        };
        let markq = MarkQueue::new(MarkQueueConfig {
            main_entries: cfg.markq_entries,
            side_entries: cfg.markq_side,
            throttle_level: (cfg.markq_side * 3) / 4,
            codec,
            spill_base,
            spill_bytes: cfg.spill_bytes,
        });
        let tlb = match cfg.topology {
            CacheTopology::Partitioned => cfg.tlb,
            CacheTopology::Shared => TlbConfig {
                ptw_cache: CacheConfig::hwgc_shared(),
                ..cfg.tlb
            },
        };
        Self {
            translator: Translator::new(heap.address_space(), tlb),
            markq,
            markbit: MarkBitCache::new(cfg.markbit_cache),
            tracerq: BoundedQueue::new(cfg.tracer_queue),
            marker_slots: MarkerSlots::new(cfg.marker_slots),
            trace_state: None,
            responses: BinaryHeap::new(),
            resp_seq: 0,
            deliver_buf: VecDeque::new(),
            injected: VecDeque::new(),
            roots: RootReader {
                chunks: VecDeque::new(),
                pending: None,
                buf: VecDeque::new(),
            },
            port_free: true,
            marker_blocked_until: 0,
            tracer_blocked_until: 0,
            port_busy_cycles: 0,
            last_issue_at: None,
            bg_period: 0,
            bg_next: 0,
            bg_latencies: Vec::new(),
            objects_marked: 0,
            already_marked: 0,
            filtered: 0,
            refs_enqueued: 0,
            translator_at_begin: TranslatorStats::default(),
            stalls: StallAccounting::default(),
            marker_block_reason: StallReason::TlbMiss,
            tracer_block_reason: StallReason::TlbMiss,
            trace: cfg.trace.then(|| EventTrace::new(DEFAULT_TRACE_CAPACITY)),
            trap: None,
            trap_pending_ref: None,
            pass_start: 0,
            fault: None,
            cfg,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &GcUnitConfig {
        &self.cfg
    }

    /// Injects background mutator traffic during the mark pass: one
    /// 64-byte CPU read every `period` cycles (0 disables). Models the
    /// application sharing the memory system with a concurrent
    /// collection (§VII Bandwidth Throttling).
    pub fn set_background_traffic(&mut self, period: Cycle) {
        self.bg_period = period;
    }

    /// Latencies the background traffic observed (empty when disabled).
    pub fn background_latencies(&self) -> &[Cycle] {
        &self.bg_latencies
    }

    /// Shared-cache statistics (only in the [`CacheTopology::Shared`]
    /// configuration, where the translator's cache is the shared one;
    /// Fig. 18a).
    pub fn shared_cache_stats(&self) -> Option<&tracegc_mem::CacheStats> {
        (self.cfg.topology == CacheTopology::Shared).then(|| self.translator.cache().stats())
    }

    /// Attaches fault injectors from `plan`: the traversal-site stream
    /// feeds the marker datapath (reference and header corruption) and
    /// the PTW-site stream feeds the unit's translator (injected page
    /// faults). Injectors persist across passes; all-zero rates never
    /// draw and leave the run byte-identical.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = Some(plan.injector(FaultSite::Traversal));
        self.translator
            .set_fault_injector(plan.injector(FaultSite::Ptw));
    }

    /// The latched trap, if the unit froze mid-pass.
    pub fn trap(&self) -> Option<Trap> {
        self.trap
    }

    /// Marker-datapath fault statistics (`None` without an injector).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Translator (PTW-site) fault statistics (`None` without an
    /// injector).
    pub fn ptw_fault_stats(&self) -> Option<&FaultStats> {
        self.translator.fault_stats()
    }

    /// Latches `t` (the first trap wins) — the hardware's trap-cause
    /// register. The pipeline freezes: [`TraversalUnit::step`] refuses
    /// to advance and [`TraversalUnit::is_complete`] reports done.
    fn raise_trap(&mut self, t: Trap) {
        if self.trap.is_none() {
            if let Some(trace) = &mut self.trace {
                trace.record(t.at, "traversal", "trap", t.va);
            }
            self.trap = Some(t);
        }
    }

    fn translate(
        &mut self,
        who: Requester,
        va: u64,
        now: Cycle,
        mem: &mut MemSystem,
        heap: &Heap,
    ) -> Result<(u64, Cycle), Trap> {
        self.translator
            .translate(who, va, now, mem, &heap.phys)
            .map_err(|e| Trap::new(TrapKind::PageFault, e.va, now))
    }

    /// Runs a complete mark pass starting at cycle `start`.
    ///
    /// A thin driver: schedules a single [`MarkEngine`] under the
    /// lockstep policy. `tests/engine_equivalence.rs` pins its cycles
    /// and stall ledger to golden fingerprints.
    ///
    /// On success, exactly the objects reachable from the heap's roots
    /// carry mark bits (verified against the oracle in tests).
    ///
    /// # Errors
    ///
    /// A fault latched by the memory system, an injected or genuine
    /// datapath fault, or a scheduler deadlock surfaces as a
    /// [`SimError`] with the pipeline frozen in its architected state.
    /// The driver can then recover the outstanding work via
    /// [`TraversalUnit::drain_architected_state`] and hand it to the
    /// CPU's software-fallback mark path.
    ///
    /// [`MarkEngine`]: crate::engine::MarkEngine
    pub fn try_run_mark(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        start: Cycle,
    ) -> Result<TraversalResult, SimError> {
        self.begin(heap, start);
        let end = {
            let mut ctx = SocCtx::single(mem, heap);
            let mut engine = crate::engine::MarkEngine::new(self, 0);
            let report =
                Scheduler::new(Policy::Lockstep).try_run(&mut [&mut engine], &mut ctx, start)?;
            report.end
        };
        // A fault latched by the memory system on the pass's final
        // access is only observable after the scheduler returns.
        if let Some(e) = mem.take_fault() {
            self.raise_trap(Trap::from_sim_error(&e));
        }
        if let Some(t) = self.trap {
            return Err(t.into());
        }
        Ok(self.result_at(start, end))
    }

    /// Charges `n` cycles of forward progress to this pass's ledger
    /// (called by the scheduler via [`MarkEngine`]'s `note_busy`).
    ///
    /// [`MarkEngine`]: crate::engine::MarkEngine
    pub fn charge_busy(&mut self, n: u64) {
        self.stalls.busy(n);
    }

    /// Charges `span` stalled cycles starting at `now` to `reason`,
    /// recording the span in the event trace when enabled (called by the
    /// scheduler via [`MarkEngine`]'s `note_stall`).
    ///
    /// [`MarkEngine`]: crate::engine::MarkEngine
    pub fn charge_stall(&mut self, now: Cycle, reason: StallReason, span: u64) {
        self.stalls.stall(reason, span);
        if let Some(trace) = &mut self.trace {
            trace.record(now, "traversal", reason.stall_kind(), span);
        }
    }

    /// Attributes a hypothetical no-progress cycle at `now` to its
    /// bottleneck (public face of the stall classifier, for schedulers).
    pub fn stall_reason(&self, now: Cycle) -> StallReason {
        self.classify_stall(now)
    }

    /// This pass's cycle ledger so far.
    pub fn stalls(&self) -> &StallAccounting {
        &self.stalls
    }

    /// Starts a mark pass: loads the root-region chunks, flushes the
    /// mark-bit cache, and resets the per-pass machinery and every count
    /// a [`TraversalResult`] reports, so one unit can run many passes.
    /// Use with [`TraversalUnit::step`] when driving the unit
    /// concurrently with a mutator; [`TraversalUnit::try_run_mark`] wraps
    /// the whole loop for stop-the-world passes.
    ///
    /// The unit keeps no per-object counts: Fig. 21a counts each
    /// object's mark accesses from the heap after the collection.
    pub fn begin(&mut self, heap: &Heap, start: Cycle) {
        self.begin_roots(heap);
        self.bg_next = start;
        self.last_issue_at = None;
        self.marker_blocked_until = 0;
        self.tracer_blocked_until = 0;
        // Per-pass, like `cycles()`: the accounting invariant is against
        // this pass's span, not the unit's lifetime. The fault injector,
        // like the hardware it models, persists across passes.
        self.stalls = StallAccounting::default();
        self.trap = None;
        self.trap_pending_ref = None;
        self.pass_start = start;
        // The last sweep cleared every mark bit, so a reference the
        // mark-bit cache remembers is no longer marked: filtering it
        // would leave it, and all it reaches, to be freed.
        self.markbit = MarkBitCache::new(self.cfg.markbit_cache);
        self.objects_marked = 0;
        self.already_marked = 0;
        self.filtered = 0;
        self.refs_enqueued = 0;
        self.port_busy_cycles = 0;
        self.markq.reset_stats();
        self.translator_at_begin = self.translator.stats();
    }

    /// Attributes a no-progress cycle at `now` to its bottleneck.
    ///
    /// Priority order: the throttle pacing gate (it masks everything
    /// downstream), a blocking-TLB freeze (walk or walker-queue wait),
    /// queue back-pressure, then outstanding memory responses; a unit
    /// with none of these is idle (only possible mid-pass when a
    /// concurrent driver has nothing injected yet).
    fn classify_stall(&self, now: Cycle) -> StallReason {
        let throttled = self.cfg.min_issue_interval > 0
            && self
                .last_issue_at
                .is_some_and(|t| now < t + self.cfg.min_issue_interval);
        if throttled {
            return StallReason::Throttled;
        }
        if now < self.marker_blocked_until {
            return self.marker_block_reason;
        }
        if now < self.tracer_blocked_until {
            return self.tracer_block_reason;
        }
        let tracer_has_work = self.trace_state.is_some() || !self.tracerq.is_empty();
        let marker_parked = self.marker_slots.any_deliver();
        let tracer_gated = tracer_has_work
            && (self.markq.throttled()
                || self.deliver_buf.len() > 4 * self.markq.entries_per_chunk());
        if marker_parked || tracer_gated {
            return StallReason::QueueFull;
        }
        let mem_pending = self.roots.pending.is_some()
            || !self.responses.is_empty()
            || self.markq.next_event().is_some()
            || self.marker_slots.any_busy();
        if mem_pending {
            return StallReason::MemLatency;
        }
        StallReason::Idle
    }

    /// The event ring (if tracing is enabled), leaving tracing active.
    pub fn take_trace(&mut self) -> Option<EventTrace> {
        let capacity = self.trace.as_ref()?.capacity();
        self.trace.replace(EventTrace::new(capacity))
    }

    /// Advances the unit by one clock cycle; returns whether anything
    /// happened (when `false`, skip to [`TraversalUnit::next_event_at`]).
    pub fn step(&mut self, now: Cycle, heap: &mut Heap, mem: &mut MemSystem) -> bool {
        // A latched trap freezes the whole pipeline until the driver
        // drains the architected state and restarts the pass.
        if self.trap.is_some() {
            return false;
        }
        // Poll the memory system's fault latch (uncorrectable ECC or an
        // exhausted retry budget on one of our requests) and escalate.
        if let Some(e) = mem.take_fault() {
            self.raise_trap(Trap::from_sim_error(&e));
            return true;
        }
        // The driver-programmed per-request deadline (fleet timeout):
        // a pass that overruns its cycle budget traps exactly at the
        // deadline under both pacings — lockstep steps every cycle and
        // fast-forward's hop is clamped by `next_event_at` below.
        if self.cfg.mark_budget > 0 && now >= self.pass_start + self.cfg.mark_budget {
            self.raise_trap(Trap::new(TrapKind::RequestTimeout, 0, now));
            return true;
        }
        // Expire pipeline freezes and the throttle gate once their
        // deadline passes, so `next_event_at` never reports a stale
        // (past) event: a stale minimum masks the unit's real future
        // events and degrades scheduler skip-ahead into a +1 crawl.
        if self.marker_blocked_until <= now {
            self.marker_blocked_until = 0;
        }
        if self.tracer_blocked_until <= now {
            self.tracer_blocked_until = 0;
        }
        if self.cfg.min_issue_interval > 0
            && self
                .last_issue_at
                .is_some_and(|t| t + self.cfg.min_issue_interval <= now)
        {
            self.last_issue_at = None;
        }
        let mut progress = false;
        // Background mutator traffic shares the memory controller.
        if self.bg_period > 0 {
            while self.bg_next <= now {
                let addr = 0x100_0000 + (self.bg_next % 8192) * 64;
                let done = mem.schedule(&MemReq::read(addr & !63, 64, Source::Cpu), self.bg_next);
                self.bg_latencies.push(done - self.bg_next);
                self.bg_next += self.bg_period;
            }
        }
        // §VII throttling: the unit may be capped below full issue
        // rate to leave residual bandwidth to the application.
        let throttled_cycle = self.cfg.min_issue_interval > 0
            && self
                .last_issue_at
                .is_some_and(|t| now < t + self.cfg.min_issue_interval);
        self.port_free = !throttled_cycle;
        // Drain write-barrier injections into the mark queue.
        while let Some(&va) = self.injected.front() {
            if self.markq.enqueue(va) {
                self.injected.pop_front();
                progress = true;
            } else {
                break;
            }
        }
        // The spill engine acts first ("we always give priority to
        // memory requests from outQ").
        {
            let cache = request_cache(self.cfg.topology, &mut self.translator);
            let mut port = self.port_free;
            let spill_before = self.trace.is_some().then(|| self.markq.stats());
            progress |= self.markq.tick(now, mem, &mut heap.phys, cache, &mut port);
            self.port_free = port;
            if let (Some(before), Some(trace)) = (spill_before, &mut self.trace) {
                let after = self.markq.stats();
                if after.spill_writes > before.spill_writes {
                    trace.record(
                        now,
                        "markq",
                        "spill_write",
                        after.spill_writes - before.spill_writes,
                    );
                }
                if after.spill_reads > before.spill_reads {
                    trace.record(
                        now,
                        "markq",
                        "spill_read",
                        after.spill_reads - before.spill_reads,
                    );
                }
            }
        }
        // Spill-region exhaustion latched during the markq tick is an
        // architectural limit violation: trap before issuing more work.
        if self.markq.spill_exhausted() {
            let base = self.markq.spill_base();
            self.raise_trap(Trap::new(TrapKind::SpillExhausted, base, now));
            return true;
        }
        // Each stage can trap; the pipeline freezes the same cycle so
        // no later stage consumes state the driver needs to recover.
        progress |= self.tick_roots(now, mem, heap);
        if self.trap.is_some() {
            return true;
        }
        progress |= self.tick_marker_deliver(now);
        if self.trap.is_some() {
            return true;
        }
        progress |= self.tick_marker_issue(now, mem, heap);
        if self.trap.is_some() {
            return true;
        }
        progress |= self.tick_tracer_land(now);
        progress |= self.tick_tracer_deliver();
        progress |= self.tick_tracer_issue(now, mem, heap);
        if self.trap.is_some() {
            return true;
        }

        if !self.port_free && !throttled_cycle {
            self.port_busy_cycles += 1;
            self.last_issue_at = Some(now);
        }
        progress
    }

    /// Feeds a reference from a concurrent mutator's write barrier into
    /// the unit (§IV-D: "The traversal unit writes all references that
    /// are written into this region to the mark queue").
    pub fn inject_reference(&mut self, va: u64) {
        if va != 0 {
            self.injected.push_back(va);
        }
    }

    /// Whether the pass has fully drained (queues, slots, responses and
    /// injected barrier references) — or trapped, in which case the
    /// frozen unit makes no further progress and the driver must check
    /// [`TraversalUnit::trap`].
    pub fn is_complete(&self) -> bool {
        self.trap.is_some() || (self.is_done() && self.injected.is_empty())
    }

    /// Earliest pending completion, for idle skip-ahead while stepping.
    ///
    /// Upholds the scheduler's `next_event_at` contract: the minimum
    /// over every wake source — spill-engine fills, the pending root
    /// fetch, busy marker slots, queued tracer responses, the
    /// marker/tracer pipeline freezes, the §VII issue-throttle expiry
    /// and the next background-traffic slot — so the unit never changes
    /// state strictly before the reported cycle, and (because
    /// [`TraversalUnit::step`] expires stale freeze/throttle deadlines
    /// up front) never reports a cycle already in the past.
    pub fn next_event_at(&self) -> Option<Cycle> {
        let inner = self.next_event();
        // The `mark_budget` deadline is a wake source like any other:
        // stepping the unit there raises the timeout trap (a real state
        // change), so reporting it keeps the fast-forward hop honest —
        // and wakes a unit that is otherwise stalled with no event of
        // its own, turning a would-be deadlock into a trap.
        if self.trap.is_none() && self.cfg.mark_budget > 0 {
            let deadline = self.pass_start + self.cfg.mark_budget;
            return Some(inner.map_or(deadline, |e| e.min(deadline)));
        }
        inner
    }

    /// Builds the result for a pass driven externally via
    /// [`TraversalUnit::step`] (after [`TraversalUnit::is_complete`]).
    pub fn result_at(&self, start: Cycle, now: Cycle) -> TraversalResult {
        TraversalResult {
            start,
            end: now,
            objects_marked: self.objects_marked,
            already_marked: self.already_marked,
            filtered: self.filtered,
            refs_enqueued: self.refs_enqueued,
            port_busy_cycles: self.port_busy_cycles,
            markq: self.markq.stats(),
            translator: translator_since(self.translator.stats(), self.translator_at_begin),
            stalls: self.stalls,
        }
    }

    /// Drains the unit's architected state after a trap: every
    /// reference still owed a visit, collected from all pipeline
    /// registers and queues. Together with the mark bitmap already in
    /// heap memory, this is everything the CPU's software-fallback path
    /// (`Cpu::resume_mark_from`) needs to complete the mark.
    ///
    /// The list is conservative: it may contain duplicates, references
    /// to objects already marked but not yet fully traced (the fallback
    /// re-traces them — marking is monotonic, so this terminates), the
    /// original uncorrupted value of a faulting queue entry, and — for
    /// a genuinely corrupt heap — invalid words the fallback's software
    /// sanitizer skips. Only null entries are dropped here.
    pub fn drain_architected_state(&mut self, heap: &Heap) -> Vec<u64> {
        let mut pending = Vec::new();
        // The faulting-entry register: the original (uncorrupted) value
        // of the queue entry whose issue trapped.
        if let Some(raw) = self.trap_pending_ref.take() {
            pending.push(raw);
        }
        // Mark queue: main, inQ, outQ and every spilled chunk.
        pending.extend(self.markq.drain_all(&heap.phys));
        // Root reader: unissued chunks (functionally readable), an
        // in-flight read, and buffered roots.
        for (addr, size) in std::mem::take(&mut self.roots.chunks) {
            for i in 0..u64::from(size) / WORD {
                pending.push(heap.read_va(addr + i * WORD));
            }
        }
        if let Some((_, refs)) = self.roots.pending.take() {
            pending.extend(refs);
        }
        pending.extend(self.roots.buf.drain(..));
        // Marker slots: objects whose mark AMO already landed
        // functionally but whose trace was never handed over.
        pending.extend(self.marker_slots.drain());
        // Tracer queue and the in-flight trace: hand back the whole
        // object; partial tracing progress is simply redone.
        while let Some(job) = self.tracerq.pop() {
            pending.push(job.obj);
        }
        if let Some(state) = self.trace_state.take() {
            pending.push(match state {
                // In the bidirectional layout `end` is the object
                // header's address (the ref section precedes it).
                TraceState::Bidi { end, .. } => end,
                TraceState::ConvTib { obj, .. } | TraceState::ConvFields { obj, .. } => obj,
            });
        }
        // Undelivered tracer responses and buffered references.
        while let Some(Reverse(resp)) = self.responses.pop() {
            pending.extend_from_slice(resp.refs());
        }
        pending.extend(self.deliver_buf.drain(..));
        pending.extend(self.injected.drain(..));
        pending.retain(|&va| va != 0);
        pending
    }

    fn begin_roots(&mut self, heap: &Heap) {
        let base = heap.spaces().hwgc_base;
        let count = heap.read_va(base);
        self.roots.chunks = decompose_aligned(base + WORD, count * WORD)
            .into_iter()
            .collect();
        self.roots.pending = None;
        self.roots.buf.clear();
    }

    fn tick_roots(&mut self, now: Cycle, mem: &mut MemSystem, heap: &Heap) -> bool {
        let mut progress = false;
        // Push buffered roots into the mark queue.
        while let Some(&va) = self.roots.buf.front() {
            if va == 0 {
                self.roots.buf.pop_front();
                progress = true;
                continue;
            }
            if self.markq.enqueue(va) {
                self.roots.buf.pop_front();
                progress = true;
            } else {
                break;
            }
        }
        // Land a finished read.
        if let Some((done, _)) = self.roots.pending {
            if done <= now {
                let (_, refs) = self.roots.pending.take().expect("pending root read");
                self.roots.buf.extend(refs);
                progress = true;
            }
            return progress;
        }
        // Issue the next chunk (consumes the shared port).
        if !self.port_free {
            return progress;
        }
        if let Some((addr, size)) = self.roots.chunks.pop_front() {
            self.port_free = false;
            let (pa, ready) = match self.translate(Requester::Marker, addr, now, mem, heap) {
                Ok(v) => v,
                Err(t) => {
                    // Re-park the chunk so the architected-state drain
                    // still recovers its roots.
                    self.roots.chunks.push_front((addr, size));
                    self.raise_trap(t);
                    return true;
                }
            };
            let req = MemReq::read(pa, size, Source::RootReader);
            let cache = request_cache(self.cfg.topology, &mut self.translator);
            let done = issue(mem, cache, &req, ready);
            // The chunk is aligned and at most 64 B, so all its words
            // share the page just translated.
            let refs: Vec<u64> = (0..size as u64 / WORD)
                .map(|i| heap.phys.read_u64(pa + i * WORD))
                .collect();
            self.roots.pending = Some((done, refs));
            progress = true;
        }
        progress
    }

    /// Hands one completed mark response to the tracer queue.
    fn tick_marker_deliver(&mut self, now: Cycle) -> bool {
        // Newly completed responses first: they may free their slot
        // without needing tracer-queue space (already marked / no refs).
        if let Some((idx, va, old)) = self.marker_slots.first_landed(now) {
            // Injected header corruption forces the reference count past
            // any plausible value; the sanity check below must catch it.
            let corrupted = self.fault.as_mut().is_some_and(|f| f.corrupt_header());
            let observed = if corrupted {
                old | ((u64::from(MAX_PLAUSIBLE_NREFS) + 1) << 2)
            } else {
                old
            };
            let header = Header::from_raw(observed);
            if !header.is_live() || header.nrefs() > MAX_PLAUSIBLE_NREFS {
                // Hold the *uncorrupted* response in the slot so the
                // architected-state drain recovers the object, then
                // freeze: a dead tag bit or an absurd count means the
                // header word cannot be trusted.
                self.marker_slots.set(idx, MarkerSlot::Deliver { va, old });
                self.raise_trap(Trap::new(TrapKind::HeaderCorrupt, va, now));
                return true;
            }
            if header.is_marked() || header.nrefs() == 0 {
                // Nothing to trace; free the slot.
                self.marker_slots.set(idx, MarkerSlot::Free);
                return true;
            }
            let job = TraceJob {
                obj: va,
                nrefs: header.nrefs(),
            };
            if self.tracerq.try_push(job).is_ok() {
                self.marker_slots.set(idx, MarkerSlot::Free);
            } else {
                // Hold the response: back-pressure on the marker.
                self.marker_slots.set(idx, MarkerSlot::Deliver { va, old });
            }
            return true;
        }
        // Retry a parked delivery; a failed retry is *not* progress (the
        // queue is still full), so idle cycles can skip ahead and real
        // deadlocks are detected instead of spinning.
        let Some((idx, va, old)) = self.marker_slots.first_deliver() else {
            return false;
        };
        let job = TraceJob {
            obj: va,
            nrefs: Header::from_raw(old).nrefs(),
        };
        if self.tracerq.try_push(job).is_ok() {
            self.marker_slots.set(idx, MarkerSlot::Free);
            return true;
        }
        false
    }

    /// Issues one mark AMO from the mark queue.
    fn tick_marker_issue(&mut self, now: Cycle, mem: &mut MemSystem, heap: &mut Heap) -> bool {
        if !self.port_free || now < self.marker_blocked_until {
            return false;
        }
        let Some(slot_idx) = self.marker_slots.first_free() else {
            return false;
        };
        let Some(raw) = self.markq.dequeue() else {
            return false;
        };
        // The queue-to-marker datapath is where injected single-bit
        // reference corruption lands (flipping an alignment bit or a
        // bit beyond every mapped space — see the detectability
        // contract in `tracegc_sim::fault`).
        let va = match &mut self.fault {
            Some(f) => f.corrupt_ref(raw).unwrap_or(raw),
            None => raw,
        };
        // The architectural sanitizer: every reference is checked for
        // alignment and against the space map before it may reach the
        // AMO datapath. This catches injected corruption and any
        // genuinely corrupt queue entry alike; the original entry is
        // preserved in the faulting-entry register for the fallback.
        if !va.is_multiple_of(WORD) {
            self.trap_pending_ref = Some(raw);
            self.raise_trap(Trap::new(TrapKind::RefMisaligned, va, now));
            return true;
        }
        if !heap.spaces().in_traced_space(va) {
            self.trap_pending_ref = Some(raw);
            self.raise_trap(Trap::new(TrapKind::RefOutOfBounds, va, now));
            return true;
        }
        if self.markbit.filter(va) {
            self.filtered += 1;
            return true;
        }
        self.port_free = false;
        let (pa, ready) = match self.translate(Requester::Marker, va, now, mem, heap) {
            Ok(v) => v,
            Err(t) => {
                self.trap_pending_ref = Some(raw);
                self.raise_trap(t);
                return true;
            }
        };
        self.block_on_walk(Requester::Marker, ready);
        // Functional fetch-or now; timing decided by what the old value
        // was (write-back elision for already-marked objects, §V-C).
        let old = heap.phys.fetch_or_u64(pa, HEADER_MARK_BIT);
        let was_marked = Header::from_raw(old).is_marked();
        let req = if was_marked {
            MemReq::read(pa, 8, Source::Marker)
        } else {
            MemReq::amo(pa, Source::Marker)
        };
        let cache = request_cache(self.cfg.topology, &mut self.translator);
        let done = issue(mem, cache, &req, ready);
        if was_marked {
            self.already_marked += 1;
        } else {
            self.objects_marked += 1;
        }
        if let Some(trace) = &mut self.trace {
            trace.record(now, "marker", "mark_issue", va);
        }
        self.marker_slots
            .set(slot_idx, MarkerSlot::Busy { done, va, old });
        true
    }

    /// Lands the earliest due tracer response into the delivery buffer.
    fn tick_tracer_land(&mut self, now: Cycle) -> bool {
        if let Some(Reverse(resp)) = self.responses.peek() {
            if resp.done <= now {
                let Reverse(resp) = self.responses.pop().expect("peeked");
                self.deliver_buf.extend(resp.refs());
                return true;
            }
        }
        false
    }

    /// Moves delivered references into the mark queue (up to one spill
    /// chunk worth per cycle).
    fn tick_tracer_deliver(&mut self) -> bool {
        let mut moved = 0;
        let budget = self.markq.entries_per_chunk();
        while moved < budget {
            let Some(&va) = self.deliver_buf.front() else {
                break;
            };
            if self.markq.enqueue(va) {
                self.deliver_buf.pop_front();
                self.refs_enqueued += 1;
                moved += 1;
            } else {
                break;
            }
        }
        moved > 0
    }

    /// Issues one tracer memory request (Fig. 14's request generator).
    fn tick_tracer_issue(&mut self, now: Cycle, mem: &mut MemSystem, heap: &mut Heap) -> bool {
        if !self.port_free || now < self.tracer_blocked_until {
            return false;
        }
        if self.markq.throttled() || self.deliver_buf.len() > 4 * self.markq.entries_per_chunk() {
            return false;
        }
        if self.trace_state.is_none() {
            let Some(job) = self.tracerq.pop() else {
                return false;
            };
            self.trace_state = Some(match heap.layout() {
                LayoutKind::Bidirectional => {
                    let obj = tracegc_heap::ObjRef::new(job.obj);
                    let base = bidi::ref_section_base(obj, job.nrefs);
                    TraceState::Bidi {
                        cursor: base,
                        end: job.obj,
                    }
                }
                LayoutKind::Conventional => TraceState::ConvTib {
                    obj: job.obj,
                    nrefs: job.nrefs,
                },
            });
        }

        self.port_free = false;
        match self.trace_state.take().expect("set above") {
            TraceState::Bidi { cursor, end } => {
                let remaining = end - cursor;
                debug_assert!(remaining > 0 && remaining % WORD == 0);
                // Largest aligned power-of-two transfer, clipped at the
                // page boundary ("the request is interrupted and
                // re-enqueued to pass through the TLB again", §V-C).
                let align = 1u64 << cursor.trailing_zeros().min(6);
                let fit = if remaining >= 64 {
                    64
                } else {
                    1u64 << (63 - remaining.leading_zeros())
                };
                let to_page_end = PAGE_SIZE - (cursor % PAGE_SIZE);
                let size = align.min(fit).min(to_page_end).max(WORD);
                let (pa, ready) = match self.translate(Requester::Tracer, cursor, now, mem, heap) {
                    Ok(v) => v,
                    Err(t) => {
                        // Restore the cursor: the drain hands the whole
                        // object back to the fallback for re-tracing.
                        self.trace_state = Some(TraceState::Bidi { cursor, end });
                        self.raise_trap(t);
                        return true;
                    }
                };
                self.block_on_walk(Requester::Tracer, ready);
                let req = MemReq::read(pa, size as u32, Source::Tracer);
                let cache = request_cache(self.cfg.topology, &mut self.translator);
                let done = issue(mem, cache, &req, ready);
                // Clipped at the page end: every word is in `pa`'s page.
                let refs = (0..size / WORD)
                    .map(|i| heap.phys.read_u64(pa + i * WORD))
                    .filter(|&r| r != 0);
                self.push_response(done, refs);
                if let Some(trace) = &mut self.trace {
                    trace.record(now, "tracer", "trace_issue", size);
                }
                let next = cursor + size;
                if next < end {
                    self.trace_state = Some(TraceState::Bidi { cursor: next, end });
                }
                true
            }
            TraceState::ConvTib { obj, nrefs } => {
                // Load the TIB pointer (extra access #1), then the offset
                // words (extra access #2) — the cacheless-cost the
                // bidirectional layout removes (§IV-A.I).
                let objref = tracegc_heap::ObjRef::new(obj);
                let tib_va = conv::tib_slot(objref);
                let (pa, ready) = match self.translate(Requester::Tracer, tib_va, now, mem, heap) {
                    Ok(v) => v,
                    Err(t) => {
                        self.trace_state = Some(TraceState::ConvTib { obj, nrefs });
                        self.raise_trap(t);
                        return true;
                    }
                };
                self.block_on_walk(Requester::Tracer, ready);
                let cache = request_cache(self.cfg.topology, &mut self.translator);
                let t1 = issue(mem, cache, &MemReq::read(pa, 8, Source::Tracer), ready);
                let tib = heap.phys.read_u64(pa);
                // Offset words, dependent on the TIB pointer.
                let mut t2 = t1;
                let mut offsets = VecDeque::with_capacity(nrefs as usize);
                for (addr, size) in decompose_aligned(tib + WORD, nrefs as u64 * WORD) {
                    let (pa, ready) = match self.translate(Requester::Tracer, addr, t2, mem, heap) {
                        Ok(v) => v,
                        Err(t) => {
                            // Restart the whole TIB walk on recovery.
                            self.trace_state = Some(TraceState::ConvTib { obj, nrefs });
                            self.raise_trap(t);
                            return true;
                        }
                    };
                    let cache = request_cache(self.cfg.topology, &mut self.translator);
                    t2 = issue(mem, cache, &MemReq::read(pa, size, Source::Tracer), ready);
                    for i in 0..size as u64 / WORD {
                        offsets.push_back(heap.phys.read_u64(pa + i * WORD) as u32);
                    }
                }
                // An empty response carries the dependency time forward.
                self.push_response(t2, std::iter::empty());
                self.trace_state = Some(TraceState::ConvFields { obj, offsets });
                true
            }
            TraceState::ConvFields { obj, mut offsets } => {
                let Some(offset) = offsets.pop_front() else {
                    return true; // object finished
                };
                let objref = tracegc_heap::ObjRef::new(obj);
                let field_va = conv::field_slot(objref, offset);
                let (pa, ready) = match self.translate(Requester::Tracer, field_va, now, mem, heap)
                {
                    Ok(v) => v,
                    Err(t) => {
                        offsets.push_front(offset);
                        self.trace_state = Some(TraceState::ConvFields { obj, offsets });
                        self.raise_trap(t);
                        return true;
                    }
                };
                self.block_on_walk(Requester::Tracer, ready);
                let cache = request_cache(self.cfg.topology, &mut self.translator);
                let done = issue(mem, cache, &MemReq::read(pa, 8, Source::Tracer), ready);
                let raw = heap.phys.read_u64(pa);
                self.push_response(done, Some(raw).filter(|&r| r != 0));
                if !offsets.is_empty() {
                    self.trace_state = Some(TraceState::ConvFields { obj, offsets });
                }
                true
            }
        }
    }

    /// Blocking TLB: when the translation just made for `who` (the
    /// marker or the tracer) walked, its pipeline freezes until `ready`,
    /// charged as a walk of its own ([`StallReason::TlbMiss`]) or a wait
    /// behind the busy walker first ([`StallReason::PtwBusy`]).
    fn block_on_walk(&mut self, who: Requester, ready: Cycle) {
        let Some(reason) = self.translator.last_walk() else {
            return;
        };
        if !self.cfg.tlb.blocking_requesters {
            return;
        }
        if who == Requester::Marker {
            self.marker_blocked_until = ready;
            self.marker_block_reason = reason;
        } else {
            self.tracer_blocked_until = ready;
            self.tracer_block_reason = reason;
        }
    }

    /// Queues a response of at most [`RESP_WORDS`] references.
    ///
    /// # Panics
    ///
    /// Panics if `refs` yields more than [`RESP_WORDS`] words.
    fn push_response(&mut self, done: Cycle, refs: impl IntoIterator<Item = u64>) {
        let mut words = [0; RESP_WORDS];
        let mut len = 0;
        for r in refs {
            assert!(
                len < RESP_WORDS,
                "a tracer response holds at most {RESP_WORDS} words"
            );
            words[len] = r;
            len += 1;
        }
        self.resp_seq += 1;
        self.responses.push(Reverse(TraceResp {
            done,
            seq: self.resp_seq,
            len: len as u8,
            words,
        }));
    }

    fn is_done(&self) -> bool {
        self.roots.done()
            && self.markq.is_empty()
            && self.tracerq.is_empty()
            && self.trace_state.is_none()
            && self.responses.is_empty()
            && self.deliver_buf.is_empty()
            && self.marker_slots.all_free()
    }

    fn next_event(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |t: Cycle| {
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        if let Some(t) = self.markq.next_event() {
            consider(t);
        }
        if let Some((t, _)) = self.roots.pending {
            consider(t);
        }
        if self.marker_slots.any_busy() {
            consider(self.marker_slots.next_done);
        }
        if let Some(Reverse(r)) = self.responses.peek() {
            consider(r.done);
        }
        if self.marker_blocked_until > 0 {
            consider(self.marker_blocked_until);
        }
        if self.tracer_blocked_until > 0 {
            consider(self.tracer_blocked_until);
        }
        if self.cfg.min_issue_interval > 0 {
            if let Some(t) = self.last_issue_at {
                consider(t + self.cfg.min_issue_interval);
            }
        }
        if self.bg_period > 0 {
            consider(self.bg_next);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_heap::verify::check_marks_match_reachability;
    use tracegc_heap::{HeapConfig, ObjRef};

    /// A heap whose live graph is a binary tree with cross edges — wide
    /// BFS frontiers, like real heaps (the paper notes "most of the
    /// parallelism in the heap traversal exists at the beginning").
    fn build_heap(n: usize, layout: LayoutKind) -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 256 << 20,
            layout,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..n)
            .map(|i| h.alloc(3, (i % 6) as u32, false).unwrap())
            .collect();
        let live = n * 3 / 5;
        for i in 0..live {
            if 2 * i + 1 < live {
                h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
            }
            if 2 * i + 2 < live {
                h.set_ref(objs[i], 1, Some(objs[2 * i + 2]));
            }
            h.set_ref(objs[i], 2, Some(objs[(i * 31 + 7) % live]));
        }
        for i in live..n - 1 {
            h.set_ref(objs[i], 0, Some(objs[i + 1]));
        }
        h.set_roots(&[objs[0]]);
        h
    }

    #[test]
    fn unit_marks_exactly_the_reachable_set() {
        let mut heap = build_heap(2000, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        check_marks_match_reachability(&heap).unwrap();
        assert_eq!(result.objects_marked, 1200);
        assert!(result.cycles() > 0);
    }

    #[test]
    fn unit_is_faster_than_serialized_marking() {
        // With 16 slots and decoupled tracing, the pass must take far
        // fewer cycles than objects * DRAM latency.
        let mut heap = build_heap(2000, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        let serial_floor = result.objects_marked * 40;
        assert!(
            result.cycles() < serial_floor,
            "no memory-level parallelism: {} >= {}",
            result.cycles(),
            serial_floor
        );
    }

    #[test]
    fn tiny_mark_queue_still_completes_via_spilling() {
        let mut heap = build_heap(3000, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let cfg = GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            ..GcUnitConfig::default()
        };
        let mut unit = TraversalUnit::new(cfg, &mut heap);
        let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        check_marks_match_reachability(&heap).unwrap();
        assert!(result.markq.spill_writes > 0, "expected spilling");
        assert_eq!(
            result.markq.enqueued, result.markq.dequeued,
            "every enqueued ref must be consumed"
        );
    }

    #[test]
    fn compression_preserves_correctness_and_halves_spill() {
        let run = |compress: bool| {
            let mut heap = build_heap(3000, LayoutKind::Bidirectional);
            let mut mem = MemSystem::ddr3(Default::default());
            let cfg = GcUnitConfig {
                markq_entries: 16,
                markq_side: 16,
                compress,
                ..GcUnitConfig::default()
            };
            let mut unit = TraversalUnit::new(cfg, &mut heap);
            let r = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
            check_marks_match_reachability(&heap).unwrap();
            r.markq.spill_bytes_written
        };
        let full = run(false);
        let compressed = run(true);
        assert!(compressed > 0 && compressed < full);
    }

    #[test]
    fn markbit_cache_filters_hot_objects() {
        // A hub object referenced by everyone: the cache should filter
        // most of the duplicate marks.
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let hub = h.alloc(0, 0, false).unwrap();
        let objs: Vec<ObjRef> = (0..500).map(|_| h.alloc(2, 0, false).unwrap()).collect();
        for i in 0..500usize {
            h.set_ref(objs[i], 0, Some(hub));
            if i + 1 < 500 {
                h.set_ref(objs[i], 1, Some(objs[i + 1]));
            }
        }
        h.set_roots(&[objs[0]]);
        let mut mem = MemSystem::ddr3(Default::default());
        let cfg = GcUnitConfig {
            markbit_cache: 64,
            ..GcUnitConfig::default()
        };
        let mut unit = TraversalUnit::new(cfg, &mut h);
        let result = unit.try_run_mark(&mut h, &mut mem, 0).unwrap();
        check_marks_match_reachability(&h).unwrap();
        assert!(
            result.filtered > 400,
            "hub marks should be filtered: {}",
            result.filtered
        );
    }

    #[test]
    fn conventional_layout_marks_correctly_but_slower() {
        let n = 800;
        let run = |layout| {
            let mut heap = build_heap(n, layout);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            let r = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
            check_marks_match_reachability(&heap).unwrap();
            (r.objects_marked, r.cycles())
        };
        let (bidi_marked, bidi_cycles) = run(LayoutKind::Bidirectional);
        let (conv_marked, conv_cycles) = run(LayoutKind::Conventional);
        assert_eq!(bidi_marked, conv_marked);
        assert!(
            conv_cycles > bidi_cycles,
            "conventional {conv_cycles} should exceed bidirectional {bidi_cycles}"
        );
    }

    #[test]
    fn shared_topology_marks_correctly_and_ptw_dominates_cache() {
        // Large enough that the live set far exceeds the TLB reach
        // (32 + 128 entries x 4 KiB), with randomized edges to kill page
        // locality, as in the paper's 200 MB heaps.
        use tracegc_sim::rng::{Rng, StdRng};
        let n = 40_000;
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 256 << 20,
            ..HeapConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(42);
        let objs: Vec<ObjRef> = (0..n)
            .map(|i| h.alloc(3, (i % 6) as u32, false).unwrap())
            .collect();
        for i in 0..n {
            for slot in 0..3 {
                let target = rng.random_range(0..n);
                h.set_ref(objs[i], slot, Some(objs[target]));
            }
        }
        let _: bool = rng.random();
        h.set_roots(&[objs[0]]);
        let mut heap = h;
        let mut mem = MemSystem::ddr3(Default::default());
        let cfg = GcUnitConfig {
            topology: CacheTopology::Shared,
            ..GcUnitConfig::default()
        };
        let mut unit = TraversalUnit::new(cfg, &mut heap);
        unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        check_marks_match_reachability(&heap).unwrap();
        let stats = unit.shared_cache_stats().expect("shared cache");
        let ptw = stats.accesses(Source::Ptw);
        let total: u64 = Source::ALL.iter().map(|&s| stats.accesses(s)).sum();
        assert!(ptw > 0 && total > 0);
        // Fig. 18a: the PTW is by far the largest requester at the
        // shared cache (the paper reports ~2/3 of all requests).
        for s in [Source::Marker, Source::Tracer, Source::MarkQueue] {
            assert!(
                ptw > stats.accesses(s),
                "PTW ({ptw}) should exceed {s} ({})",
                stats.accesses(s)
            );
        }
        assert!(
            ptw * 2 > total,
            "PTW should be the majority of shared-cache requests: {ptw}/{total}"
        );
    }

    #[test]
    fn empty_roots_complete_immediately() {
        let mut heap = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let _garbage = heap.alloc(1, 0, false).unwrap();
        heap.set_roots(&[]);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        assert_eq!(result.objects_marked, 0);
        assert!(heap.marked_set().is_empty());
    }

    #[test]
    fn stall_accounting_sums_to_pass_cycles() {
        // The central observability invariant: every cycle of the pass is
        // attributed to exactly one bucket.
        for layout in [LayoutKind::Bidirectional, LayoutKind::Conventional] {
            let mut heap = build_heap(2000, layout);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
            assert_eq!(
                result.stalls.total(),
                result.cycles(),
                "busy + stalls must cover the {layout:?} pass exactly"
            );
            assert!(result.stalls.busy_cycles() > 0);
            assert!(result.stalls.total_stalled() > 0, "a DDR3 pass must stall");
        }
    }

    #[test]
    fn trace_ring_records_mark_events_when_enabled() {
        let mut heap = build_heap(500, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let cfg = GcUnitConfig {
            trace: true,
            ..GcUnitConfig::default()
        };
        let mut unit = TraversalUnit::new(cfg, &mut heap);
        let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        let trace = unit.take_trace().expect("tracing enabled");
        let marks = trace.events().filter(|e| e.kind == "mark_issue").count() as u64;
        assert_eq!(marks, result.objects_marked + result.already_marked);
        // Cycle-ordered and after take the ring starts fresh.
        let mut last = 0;
        for e in trace.events() {
            assert!(e.cycle >= last);
            last = e.cycle;
        }
        assert!(unit.take_trace().expect("still enabled").is_empty());

        let mut heap2 = build_heap(500, LayoutKind::Bidirectional);
        let mut unit2 = TraversalUnit::new(GcUnitConfig::default(), &mut heap2);
        assert!(unit2.take_trace().is_none(), "tracing off by default");
    }

    /// A minimal functional software fallback: sanitize the drained
    /// architected state, re-trace every pending object, and push
    /// children only when newly marked (monotonic marking terminates).
    /// The timed CPU version lives in `tracegc-cpu`; this pins the
    /// *soundness* of the drained state itself.
    fn software_fallback(heap: &mut Heap, pending: Vec<u64>) {
        let mut work: Vec<ObjRef> = pending
            .into_iter()
            .filter(|&va| va != 0 && va % WORD == 0 && heap.spaces().in_traced_space(va))
            .map(ObjRef::new)
            .collect();
        while let Some(obj) = work.pop() {
            heap.mark(obj);
            for r in heap.refs_of(obj) {
                // `Heap::mark` returns the *old* bit: push only the
                // newly marked, so the walk terminates.
                if !heap.mark(r) {
                    work.push(r);
                }
            }
        }
    }

    fn faulted_cfg() -> GcUnitConfig {
        GcUnitConfig::default()
    }

    fn fault_plan(cfg: tracegc_sim::FaultConfig) -> tracegc_sim::FaultPlan {
        tracegc_sim::FaultPlan::new(cfg)
    }

    #[test]
    fn injected_ref_corruption_traps_and_drained_state_completes_the_mark() {
        let mut heap = build_heap(2000, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(faulted_cfg(), &mut heap);
        unit.install_fault_plan(&fault_plan(tracegc_sim::FaultConfig {
            seed: 11,
            corrupt_ref_rate: 0.05,
            ..Default::default()
        }));
        let err = unit
            .try_run_mark(&mut heap, &mut mem, 0)
            .expect_err("a 5% corruption rate must trap within 2000 objects");
        let trap = unit.trap().expect("trap latched");
        assert!(
            matches!(
                trap.kind,
                TrapKind::RefMisaligned | TrapKind::RefOutOfBounds
            ),
            "unexpected trap {trap:?}"
        );
        assert_eq!(err.at(), trap.at);
        // The headline property: mark bitmap + drained state is enough
        // for software to finish, landing on the exact live set.
        let pending = unit.drain_architected_state(&heap);
        assert!(!pending.is_empty(), "mid-pass trap must leave work");
        software_fallback(&mut heap, pending);
        check_marks_match_reachability(&heap).unwrap();
    }

    #[test]
    fn injected_header_corruption_traps_and_recovers() {
        let mut heap = build_heap(1500, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(faulted_cfg(), &mut heap);
        unit.install_fault_plan(&fault_plan(tracegc_sim::FaultConfig {
            seed: 5,
            corrupt_header_rate: 0.02,
            ..Default::default()
        }));
        unit.try_run_mark(&mut heap, &mut mem, 0)
            .expect_err("header corruption must trap");
        assert_eq!(unit.trap().unwrap().kind, TrapKind::HeaderCorrupt);
        let pending = unit.drain_architected_state(&heap);
        software_fallback(&mut heap, pending);
        check_marks_match_reachability(&heap).unwrap();
    }

    #[test]
    fn injected_pte_fault_traps_as_page_fault_and_recovers() {
        let mut heap = build_heap(1500, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(faulted_cfg(), &mut heap);
        unit.install_fault_plan(&fault_plan(tracegc_sim::FaultConfig {
            seed: 9,
            pte_fault_rate: 0.05,
            ..Default::default()
        }));
        unit.try_run_mark(&mut heap, &mut mem, 0)
            .expect_err("PTE faults must trap");
        assert_eq!(unit.trap().unwrap().kind, TrapKind::PageFault);
        assert!(unit.ptw_fault_stats().unwrap().pte_faults > 0);
        let pending = unit.drain_architected_state(&heap);
        software_fallback(&mut heap, pending);
        check_marks_match_reachability(&heap).unwrap();
    }

    #[test]
    fn dropped_responses_escalate_to_a_mem_timeout_trap() {
        let mut heap = build_heap(500, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        mem.set_fault_injector(
            fault_plan(tracegc_sim::FaultConfig {
                seed: 2,
                drop_rate: 1.0,
                ..Default::default()
            })
            .injector(FaultSite::Mem),
        );
        let mut unit = TraversalUnit::new(faulted_cfg(), &mut heap);
        unit.try_run_mark(&mut heap, &mut mem, 0)
            .expect_err("every response dropped: the retry budget must exhaust");
        assert_eq!(unit.trap().unwrap().kind, TrapKind::MemTimeout);
        let pending = unit.drain_architected_state(&heap);
        software_fallback(&mut heap, pending);
        check_marks_match_reachability(&heap).unwrap();
    }

    #[test]
    fn uncorrectable_ecc_escalates_and_recovers() {
        let mut heap = build_heap(500, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        mem.set_fault_injector(
            fault_plan(tracegc_sim::FaultConfig {
                seed: 3,
                bit_flip_rate: 1.0,
                ecc_detect_weight: 0.0,
                ecc_uncorrectable_weight: 1.0,
                ..Default::default()
            })
            .injector(FaultSite::Mem),
        );
        let mut unit = TraversalUnit::new(faulted_cfg(), &mut heap);
        unit.try_run_mark(&mut heap, &mut mem, 0)
            .expect_err("every read poisoned: must escalate");
        assert_eq!(unit.trap().unwrap().kind, TrapKind::EccUncorrectable);
        let pending = unit.drain_architected_state(&heap);
        software_fallback(&mut heap, pending);
        check_marks_match_reachability(&heap).unwrap();
    }

    #[test]
    fn spill_exhaustion_traps_and_recovers() {
        // A spill region of exactly one chunk slot with a tiny main
        // queue: a graph this size must exhaust it.
        let mut heap = build_heap(3000, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let cfg = GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            spill_bytes: 64,
            ..GcUnitConfig::default()
        };
        let mut unit = TraversalUnit::new(cfg, &mut heap);
        unit.try_run_mark(&mut heap, &mut mem, 0)
            .expect_err("one-chunk spill region must exhaust");
        assert_eq!(unit.trap().unwrap().kind, TrapKind::SpillExhausted);
        let pending = unit.drain_architected_state(&heap);
        software_fallback(&mut heap, pending);
        check_marks_match_reachability(&heap).unwrap();
    }

    #[test]
    fn zero_rate_plan_leaves_the_pass_identical() {
        let run = |plan: bool| {
            let mut heap = build_heap(1500, LayoutKind::Bidirectional);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(faulted_cfg(), &mut heap);
            if plan {
                unit.install_fault_plan(&fault_plan(tracegc_sim::FaultConfig::zero_rates(99)));
                mem.set_fault_injector(
                    fault_plan(tracegc_sim::FaultConfig::zero_rates(99)).injector(FaultSite::Mem),
                );
            }
            let r = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
            (r.end, r.objects_marked, r.refs_enqueued, r.stalls.total())
        };
        assert_eq!(run(false), run(true), "zero rates must not perturb timing");
    }

    #[test]
    fn results_are_deterministic() {
        let run = || {
            let mut heap = build_heap(1500, LayoutKind::Bidirectional);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            let r = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
            (
                r.end,
                r.objects_marked,
                r.refs_enqueued,
                r.markq.spill_writes,
            )
        };
        assert_eq!(run(), run());
    }
}
