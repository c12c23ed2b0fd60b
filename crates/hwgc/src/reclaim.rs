//! The Reclamation Unit: parallel block sweepers (Fig. 8, §V-D).
//!
//! Blocks are read from a global block list and distributed to block
//! sweepers that reclaim them in parallel. Each sweeper steps through a
//! block's cells linearly: it reads the word at the start of the cell —
//! LSB 1 means a live cell with a bidirectional layout, otherwise it is a
//! free-list pointer — locates the word containing the mark bit, and
//! either clears the mark (reachable), links the cell onto the new free
//! list (dead or already free), or skips ahead. Each sweeper holds only
//! two line buffers ("the mark queue and sweeper access memory
//! sequentially and therefore only need 2 cache lines", §VI-B).
//!
//! Fig. 20 scales the sweeper count 1–8: linear to 2, diminishing
//! beyond, with memory contention outweighing parallelism at 8.

use tracegc_heap::layout::{
    bidi, conv, decode_cell_start, encode_free_cell_start, CellStart, Header, LayoutKind,
};
use tracegc_heap::{Heap, SocCtx};
use tracegc_mem::{MemReq, MemSystem, Source};
use tracegc_sim::metrics::DEFAULT_TRACE_CAPACITY;
use tracegc_sim::sched::{Engine, Policy, Progress, Scheduler};
use tracegc_sim::{Cycle, EventTrace, LruMap, StallAccounting, StallReason};
use tracegc_vmem::{Requester, Translator};

use crate::config::GcUnitConfig;

/// Line buffers per sweeper ("only need 2 cache lines", §VI-B).
const LINE_BUFS: usize = 2;
/// Cycles a block sweeper's state machine spends per cell
/// (classification, mark-word address computation, free-list link
/// update; §V-D).
const CELL_CYCLES: u64 = 16;
/// Cycles to dequeue/enqueue a block from the global block lists.
const BLOCK_CYCLES: u64 = 8;

/// Result of one sweep pass on the reclamation unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimResult {
    /// Cycle the pass began.
    pub start: Cycle,
    /// Cycle the last sweeper finished.
    pub end: Cycle,
    /// Cells scanned across all blocks.
    pub cells_scanned: u64,
    /// Dead-object cells converted to free-list entries.
    pub cells_freed: u64,
    /// Surviving (marked) objects whose marks were cleared.
    pub live_objects: u64,
    /// Memory read requests issued by the sweepers.
    pub line_reads: u64,
    /// Parallel sweeper lanes the pass ran with.
    pub lanes: u64,
    /// Cycle attribution summed across all lanes:
    /// `stalls.total() == cycles() * lanes`. A sweeper that drains its
    /// share of blocks before its siblings charges the remainder to
    /// [`StallReason::Idle`].
    pub stalls: StallAccounting,
}

impl ReclaimResult {
    /// Duration of the pass in cycles.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// One block sweeper's progress through its current block.
#[derive(Debug)]
struct Sweeper {
    /// Index into the heap's block table, or `None` between blocks.
    block: Option<BlockJob>,
    /// The line buffers, keyed by line VA: each 64-byte line is valid
    /// from the cycle it holds, and a miss replaces the least recently
    /// used line.
    bufs: LruMap<Cycle>,
    /// The sweeper's own notion of time (sweepers run in parallel).
    now: Cycle,
}

#[derive(Debug)]
struct BlockJob {
    bidx: usize,
    base_va: u64,
    cell_bytes: u64,
    ncells: u64,
    next_cell: u64,
    /// Tail of the free list being built (0 = list empty so far).
    tail: u64,
    free_head: u64,
    free_cells: u64,
}

/// The reclamation unit.
#[derive(Debug)]
pub struct ReclamationUnit {
    cfg: GcUnitConfig,
    translator: Translator,
    /// Event ring, present when `cfg.trace` is set.
    trace: Option<EventTrace>,
}

impl ReclamationUnit {
    /// Builds the unit bound to `heap`'s address space.
    pub fn new(cfg: GcUnitConfig, heap: &Heap) -> Self {
        Self {
            translator: Translator::new(heap.address_space(), cfg.tlb),
            trace: cfg.trace.then(|| EventTrace::new(DEFAULT_TRACE_CAPACITY)),
            cfg,
        }
    }

    /// The event ring (if tracing is enabled), leaving tracing active.
    pub fn take_trace(&mut self) -> Option<EventTrace> {
        let capacity = self.trace.as_ref()?.capacity();
        self.trace.replace(EventTrace::new(capacity))
    }

    /// Runs a full sweep starting at `start`, rebuilding every block's
    /// free list and clearing surviving mark bits. Functionally identical
    /// to [`tracegc_heap::verify::software_sweep`].
    ///
    /// A thin driver: schedules a single [`SweepEngine`] under the
    /// lockstep policy. `tests/engine_equivalence.rs` pins its cycles
    /// and stall ledger to golden fingerprints.
    pub fn run_sweep(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        start: Cycle,
    ) -> ReclaimResult {
        let mut engine = SweepEngine::new(self, 0, start);
        {
            let mut ctx = SocCtx::single(mem, heap);
            Scheduler::new(Policy::Lockstep)
                .try_run(&mut [&mut engine], &mut ctx, start)
                .expect("ReclamationUnit::run_sweep: the sweeper array wedged");
        }
        engine.into_result()
    }

    /// Reads the 64-byte line containing `va` through the sweeper's line
    /// buffers; returns the cycle the word is available.
    fn line_read(
        sweeper: &mut Sweeper,
        heap: &Heap,
        mem: &mut MemSystem,
        translator: &mut Translator,
        result: &mut ReclaimResult,
        va: u64,
    ) -> Cycle {
        let line_va = va & !63;
        if let Some(pos) = sweeper.bufs.find(line_va) {
            sweeper.bufs.touch(pos);
            let ready = *sweeper.bufs.value(pos);
            // An in-flight buffered line: the remaining wait is memory.
            result
                .stalls
                .stall(StallReason::MemLatency, ready.saturating_sub(sweeper.now));
            return ready;
        }
        let (pa, ready) = translator
            .translate(Requester::Sweeper, line_va, sweeper.now, mem, &heap.phys)
            .unwrap_or_else(|e| panic!("sweeper fault: {e}"));
        let done = mem.schedule(&MemReq::read(pa, 64, Source::Sweeper), ready);
        // Split the wait: the translation portion is a TLB-miss walk (or
        // a wait behind the busy shared walker), the rest is the line
        // fetch itself.
        let total = done.saturating_sub(sweeper.now);
        let mut xlat = 0;
        if let Some(reason) = translator.last_walk() {
            xlat = ready.saturating_sub(sweeper.now).min(total);
            result.stalls.stall(reason, xlat);
        }
        result.stalls.stall(StallReason::MemLatency, total - xlat);
        result.line_reads += 1;
        sweeper.bufs.insert(line_va, done);
        done
    }

    /// Processes one cell of the sweeper's current block.
    fn step_cell(
        sweeper: &mut Sweeper,
        heap: &mut Heap,
        mem: &mut MemSystem,
        translator: &mut Translator,
        trace: &mut Option<EventTrace>,
        result: &mut ReclaimResult,
    ) {
        let job = sweeper.block.as_mut().expect("has a block");
        if job.next_cell >= job.ncells {
            // Block finished: return it to the free/live block lists.
            let job = sweeper.block.take().expect("has a block");
            heap.set_block_free_list(job.bidx, job.free_head, job.free_cells);
            if let Some(trace) = trace {
                trace.record(sweeper.now, "sweeper", "block_done", job.bidx as u64);
            }
            sweeper.bufs.clear();
            sweeper.now += BLOCK_CYCLES;
            result.stalls.busy(BLOCK_CYCLES);
            return;
        }
        let cell = job.base_va + job.next_cell * job.cell_bytes;
        job.next_cell += 1;
        result.cells_scanned += 1;
        sweeper.now += CELL_CYCLES;
        result.stalls.busy(CELL_CYCLES);

        // Read the cell-start word and classify.
        let layout = heap.layout();
        let t = Self::line_read(sweeper, heap, mem, translator, result, cell);
        sweeper.now = sweeper.now.max(t);
        let start_word = heap.read_va(cell);

        // Re-borrow the job after the heap accesses.
        let job = sweeper.block.as_mut().expect("has a block");
        match decode_cell_start(start_word) {
            CellStart::Free { .. } => {
                // Already free: re-link onto the new list.
                Self::append_free(heap, mem, sweeper.now, job, cell);
            }
            CellStart::Live { nrefs, .. } => {
                let header_va = match layout {
                    LayoutKind::Bidirectional => bidi::header_of_cell(cell, nrefs),
                    LayoutKind::Conventional => conv::header_of_cell(cell),
                };
                let t = Self::line_read(sweeper, heap, mem, translator, result, header_va);
                sweeper.now = sweeper.now.max(t);
                let header = Header::from_raw(heap.read_va(header_va));
                let job = sweeper.block.as_mut().expect("has a block");
                if header.is_marked() {
                    // Reachable: clear the mark (posted 8-byte write).
                    heap.write_va(header_va, header.without_mark().raw());
                    let pa = heap.va_to_pa(header_va);
                    mem.schedule(&MemReq::write(pa, 8, Source::Sweeper), sweeper.now);
                    result.live_objects += 1;
                } else {
                    // Dead: the cell joins the free list.
                    Self::append_free(heap, mem, sweeper.now, job, cell);
                    result.cells_freed += 1;
                }
            }
        }
    }

    /// Links `cell` onto the block's new free list (address order is
    /// preserved because cells are visited in address order).
    fn append_free(
        heap: &mut Heap,
        mem: &mut MemSystem,
        now: Cycle,
        job: &mut BlockJob,
        cell: u64,
    ) {
        heap.write_va(cell, encode_free_cell_start(0));
        let pa = heap.va_to_pa(cell);
        mem.schedule(&MemReq::write(pa, 8, Source::Sweeper), now);
        if job.tail == 0 {
            job.free_head = cell;
        } else {
            heap.write_va(job.tail, encode_free_cell_start(cell));
            let tail_pa = heap.va_to_pa(job.tail);
            mem.schedule(&MemReq::write(tail_pa, 8, Source::Sweeper), now);
        }
        job.tail = cell;
        job.free_cells += 1;
    }
}

/// The reclamation unit's sweeper array as a scheduled engine over
/// `heaps[heap_idx]`.
///
/// Each [`step`](SweepEngine::step) replays every sweeper action whose
/// local clock has been reached — block fetches and cell scans, chosen
/// earliest-local-clock-first — so the action order, memory-request timestamps and [`ReclaimResult`]
/// are identical whether the engine runs alone or interleaved with
/// other engines on a shared memory system. When all blocks are swept
/// the engine stalls until the slowest lane's finish cycle (charging
/// early lanes' idle tails), finalizes the heap (free lists, LOS mark
/// clears) and reports [`Progress::Done`].
///
/// The engine self-accounts its multi-lane ledger into the
/// [`ReclaimResult`], so the scheduler's `note_busy`/`note_stall`
/// charges stay the default no-ops.
#[derive(Debug)]
pub struct SweepEngine<'a> {
    unit: &'a mut ReclamationUnit,
    heap_idx: usize,
    sweepers: Vec<Sweeper>,
    /// Block count, captured from the heap on the first step.
    nblocks: Option<usize>,
    next_block: usize,
    result: ReclaimResult,
    finalized: bool,
}

impl<'a> SweepEngine<'a> {
    /// A sweep pass over `heaps[heap_idx]` starting at `start`.
    pub fn new(unit: &'a mut ReclamationUnit, heap_idx: usize, start: Cycle) -> Self {
        let lanes = unit.cfg.sweepers.max(1);
        Self {
            unit,
            heap_idx,
            sweepers: (0..lanes)
                .map(|_| Sweeper {
                    block: None,
                    bufs: LruMap::new(LINE_BUFS),
                    now: start,
                })
                .collect(),
            nblocks: None,
            next_block: 0,
            result: ReclaimResult {
                start,
                end: start,
                lanes: lanes as u64,
                ..ReclaimResult::default()
            },
            finalized: false,
        }
    }

    /// The completed pass's result (after the scheduler reports done).
    pub fn into_result(self) -> ReclaimResult {
        self.result
    }

    /// Index of the earliest-clock sweeper with work, if any.
    fn earliest_pending(&self) -> Option<usize> {
        let nblocks = self.nblocks.unwrap_or(0);
        (0..self.sweepers.len())
            .filter(|&i| self.sweepers[i].block.is_some() || self.next_block < nblocks)
            .min_by_key(|&i| self.sweepers[i].now)
    }

    /// Idle tails, free-list bookkeeping and LOS mark clears once every
    /// block is swept.
    fn finalize(&mut self, heap: &mut Heap) {
        for s in &self.sweepers {
            self.result.end = self.result.end.max(s.now);
        }
        // A lane that finished early is idle until the slowest one ends,
        // keeping busy + stalls == cycles × lanes exact.
        for s in &self.sweepers {
            self.result
                .stalls
                .stall(StallReason::Idle, self.result.end - s.now);
        }
        heap.finish_sweep();
        // LOS marks are cleared by the runtime (§V-A).
        for los in heap.los_objects().to_vec() {
            let h = heap.header(los.obj).without_mark();
            heap.write_va(los.obj.addr(), h.raw());
        }
        self.finalized = true;
    }
}

impl<'a, 'c> Engine<SocCtx<'c>> for SweepEngine<'a> {
    fn name(&self) -> &'static str {
        "reclaim"
    }

    fn step(&mut self, now: Cycle, ctx: &mut SocCtx<'c>) -> Progress {
        let SocCtx { mem, heaps, .. } = ctx;
        let heap = &mut *heaps[self.heap_idx];
        if self.nblocks.is_none() {
            self.nblocks = Some(heap.blocks().len());
        }
        // Replay every sweeper action due by the shared clock, earliest
        // local clock first, so the sweepers' requests reach the shared
        // memory system in one global time order, alone or beside other
        // engines.
        let mut progress = false;
        while let Some(idx) = self.earliest_pending() {
            if self.sweepers[idx].now > now {
                return if progress {
                    Progress::Advanced
                } else {
                    Progress::Stalled
                };
            }
            let sweeper = &mut self.sweepers[idx];
            if sweeper.block.is_none() {
                // Fetch the next block from the global block list.
                let info = heap.blocks()[self.next_block];
                sweeper.block = Some(BlockJob {
                    bidx: self.next_block,
                    base_va: info.base_va,
                    cell_bytes: info.cell_bytes,
                    ncells: info.ncells,
                    next_cell: 0,
                    tail: 0,
                    free_head: 0,
                    free_cells: 0,
                });
                self.next_block += 1;
                sweeper.now += BLOCK_CYCLES;
                self.result.stalls.busy(BLOCK_CYCLES);
            } else {
                ReclamationUnit::step_cell(
                    sweeper,
                    heap,
                    mem,
                    &mut self.unit.translator,
                    &mut self.unit.trace,
                    &mut self.result,
                );
            }
            progress = true;
        }
        // All blocks swept: wait out the slowest lane, then finish.
        if !self.finalized {
            self.finalize(heap);
        }
        if now >= self.result.end {
            Progress::Done
        } else if progress {
            Progress::Advanced
        } else {
            Progress::Stalled
        }
    }

    // Contract-honest: every sweeper lane is self-clocked, so the
    // earliest lane clock is exactly the next cycle any state changes;
    // after finalization the only remaining event is the slowest lane's
    // end (when `step` reports done).
    fn next_event_at(&self) -> Option<Cycle> {
        self.earliest_pending()
            .map(|i| self.sweepers[i].now)
            .or(self.finalized.then_some(self.result.end))
    }

    fn stall_reason(&self, _now: Cycle) -> StallReason {
        if self.finalized {
            StallReason::Idle
        } else {
            StallReason::MemLatency
        }
    }

    fn ledger(&self) -> Option<StallAccounting> {
        Some(self.result.stalls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_heap::verify::{check_free_lists, software_mark, software_sweep};
    use tracegc_heap::{HeapConfig, ObjRef};

    fn marked_heap(n: usize) -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 128 << 20,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..n)
            .map(|i| h.alloc((i % 3) as u32, (i % 8) as u32, false).unwrap())
            .collect();
        let live = n / 2;
        for i in 0..live.saturating_sub(1) {
            if h.nrefs(objs[i]) > 0 {
                h.set_ref(objs[i], 0, Some(objs[i + 1]));
            }
        }
        h.set_roots(&objs[..live]);
        software_mark(&mut h);
        h
    }

    #[test]
    fn hw_sweep_matches_software_oracle() {
        let n = 3000;
        // Reference outcome from the software oracle.
        let mut href = marked_heap(n);
        let expected = software_sweep(&mut href);

        let mut heap = marked_heap(n);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = ReclamationUnit::new(GcUnitConfig::default(), &heap);
        let result = unit.run_sweep(&mut heap, &mut mem, 0);

        assert_eq!(result.cells_freed, expected.freed_cells);
        assert_eq!(result.live_objects, expected.live_objects);
        check_free_lists(&heap).unwrap();
        assert!(heap.marked_set().is_empty());
        // Block metadata agrees with the oracle heap.
        for (a, b) in heap.blocks().iter().zip(href.blocks()) {
            assert_eq!(a.free_cells, b.free_cells);
            assert_eq!(a.free_head, b.free_head);
        }
    }

    #[test]
    fn more_sweepers_are_faster_until_contention() {
        let time_with = |sweepers: usize| {
            let mut heap = marked_heap(6000);
            let mut mem = MemSystem::ddr3(Default::default());
            let cfg = GcUnitConfig {
                sweepers,
                ..GcUnitConfig::default()
            };
            let mut unit = ReclamationUnit::new(cfg, &heap);
            unit.run_sweep(&mut heap, &mut mem, 0).cycles()
        };
        let one = time_with(1);
        let two = time_with(2);
        let four = time_with(4);
        assert!(two < one, "2 sweepers ({two}) should beat 1 ({one})");
        assert!(
            four <= two,
            "4 sweepers ({four}) should not lose to 2 ({two})"
        );
        // Scaling must be sublinear by 4 (contention).
        assert!(
            four * 4 > one,
            "scaling should be sublinear: {one} vs {four}"
        );
    }

    #[test]
    fn sweep_preserves_live_objects() {
        let mut heap = marked_heap(2000);
        let live_before = heap.reachable_from_roots();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = ReclamationUnit::new(GcUnitConfig::default(), &heap);
        unit.run_sweep(&mut heap, &mut mem, 0);
        assert_eq!(heap.reachable_from_roots(), live_before);
    }

    #[test]
    fn allocation_works_after_hw_sweep() {
        let mut heap = marked_heap(2000);
        let blocks_before = heap.blocks().len();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = ReclamationUnit::new(GcUnitConfig::default(), &heap);
        unit.run_sweep(&mut heap, &mut mem, 0);
        for _ in 0..500 {
            heap.alloc(1, 3, false).unwrap();
        }
        assert_eq!(heap.blocks().len(), blocks_before, "swept cells reused");
    }

    #[test]
    fn line_buffers_amortize_small_cells() {
        // Small cells share lines: the sweeper must issue far fewer reads
        // than 2 per cell.
        let mut heap = marked_heap(4000);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = ReclamationUnit::new(GcUnitConfig::default(), &heap);
        let result = unit.run_sweep(&mut heap, &mut mem, 0);
        assert!(
            result.line_reads < result.cells_scanned,
            "line reuse missing: {} reads for {} cells",
            result.line_reads,
            result.cells_scanned
        );
    }

    #[test]
    fn empty_heap_sweep_is_trivial() {
        let mut heap = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = ReclamationUnit::new(GcUnitConfig::default(), &heap);
        let result = unit.run_sweep(&mut heap, &mut mem, 0);
        assert_eq!(result.cells_scanned, 0);
        assert_eq!(result.cells_freed, 0);
    }

    #[test]
    fn sweep_stalls_sum_to_lane_cycles() {
        for sweepers in [1usize, 2, 4] {
            let mut heap = marked_heap(3000);
            let mut mem = MemSystem::ddr3(Default::default());
            let cfg = GcUnitConfig {
                sweepers,
                ..GcUnitConfig::default()
            };
            let mut unit = ReclamationUnit::new(cfg, &heap);
            let result = unit.run_sweep(&mut heap, &mut mem, 0);
            assert_eq!(result.lanes, sweepers as u64);
            assert_eq!(
                result.stalls.total(),
                result.cycles() * result.lanes,
                "busy + stalls must cover all {sweepers} lanes exactly"
            );
            assert!(result.stalls.busy_cycles() > 0);
            if sweepers > 1 {
                // Sibling lanes never finish on exactly the same cycle at
                // this scale, so some idle tail must be attributed.
                assert!(result.stalls.stalled(StallReason::Idle) > 0);
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let run = || {
            let mut heap = marked_heap(1500);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = ReclamationUnit::new(GcUnitConfig::default(), &heap);
            let r = unit.run_sweep(&mut heap, &mut mem, 0);
            (r.end, r.cells_freed, r.line_reads)
        };
        assert_eq!(run(), run());
    }
}
