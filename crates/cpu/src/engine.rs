//! The software collector's phases as scheduled engines.
//!
//! [`CpuMarkEngine`] and [`CpuSweepEngine`] wrap the in-order core's
//! mark and sweep loops as [`tracegc_sim::sched::Engine`]s over the
//! shared [`SocCtx`], so the CPU baseline can share a clock and a
//! memory system with the accelerator engines (e.g. the dual-run
//! experiments, or a CPU collector racing a hardware sweeper). Each
//! step performs one unit of work — one root scan, one object visit,
//! one cell classification — on the core's *own* clock; the engine
//! stalls whenever the core clock is ahead of the shared one, so the
//! scheduled form replays the historical inline loops cycle-for-cycle
//! (proven by `tests/engine_equivalence.rs`).
//!
//! Both engines self-account into the core's per-phase ledger, so the
//! scheduler's `note_busy`/`note_stall` charges stay the default
//! no-ops and `stalls.total() == cycles` holds exactly as before.

use tracegc_heap::layout::{
    bidi, conv, decode_cell_start, encode_free_cell_start, CellStart, Header, LayoutKind, WORD,
};
use tracegc_heap::{BlockInfo, Heap, ObjRef, SocCtx};
use tracegc_mem::MemSystem;
use tracegc_sim::sched::{Engine, Progress};
use tracegc_sim::{Cycle, StallAccounting, StallReason};

use crate::collector::{Cpu, PhaseResult};

/// Mark-phase control state: read the root count, scan each root slot,
/// then drain the software mark stack one object per step.
#[derive(Debug)]
enum MarkState {
    Start,
    Roots { i: u64, nroots: u64 },
    Drain,
}

/// The core's mark loop as a scheduled engine over `heaps[heap_idx]`.
///
/// Construction resets the core's per-phase ledger and snapshots its
/// clock as the phase start; [`into_result`](CpuMarkEngine::into_result)
/// yields the finished [`PhaseResult`] after the scheduler reports done.
#[derive(Debug)]
pub struct CpuMarkEngine<'a> {
    cpu: &'a mut Cpu,
    heap_idx: usize,
    state: MarkState,
    stack: Vec<ObjRef>,
    sp: u64,
    start: Cycle,
    result: PhaseResult,
    done: bool,
}

impl<'a> CpuMarkEngine<'a> {
    /// A mark phase on `cpu` over `heaps[heap_idx]`, starting at the
    /// core's current cycle.
    pub fn new(cpu: &'a mut Cpu, heap_idx: usize) -> Self {
        cpu.stalls = StallAccounting::default();
        let start = cpu.now;
        Self {
            cpu,
            heap_idx,
            state: MarkState::Start,
            stack: Vec::new(),
            sp: 0,
            start,
            result: PhaseResult::default(),
            done: false,
        }
    }

    /// The completed phase's result (after the scheduler reports done).
    pub fn into_result(self) -> PhaseResult {
        self.result
    }

    /// Visits one popped object: mark test, mark store, reference trace.
    fn visit(&mut self, heap: &mut Heap, mem: &mut MemSystem, obj: ObjRef) {
        let cpu = &mut *self.cpu;
        cpu.instr(cpu.cfg.instr_per_object);

        // Load the header; the mark-test branch *depends* on it, so
        // the in-order core stalls until the data arrives.
        let t = cpu.access(heap, mem, obj.addr(), false);
        cpu.wait(t);
        let pa = heap.va_to_pa(obj.addr());
        let old = Header::from_raw(heap.phys.read_u64(pa));
        if old.is_marked() {
            return;
        }
        // Store the mark (write-back absorbs it; no stall).
        heap.phys.write_u64(pa, old.with_mark().raw());
        cpu.access(heap, mem, obj.addr(), true);
        cpu.instr(1);
        self.result.work_items += 1;

        self.result.refs_traced +=
            cpu.walk_refs(heap, mem, obj, old.nrefs(), |cpu, heap, mem, raw| {
                cpu.push(heap, mem, &mut self.stack, &mut self.sp, ObjRef::new(raw));
            });
    }
}

impl<'a, 'c> Engine<SocCtx<'c>> for CpuMarkEngine<'a> {
    fn name(&self) -> &'static str {
        "cpu-mark"
    }

    fn step(&mut self, now: Cycle, ctx: &mut SocCtx<'c>) -> Progress {
        if self.done {
            return Progress::Done;
        }
        // The core clock runs ahead of the shared one within a step;
        // stall until the scheduler catches up so shared-memory
        // interleaving with other engines stays time-ordered.
        if self.cpu.now > now {
            return Progress::Stalled;
        }
        let SocCtx { mem, heaps, .. } = ctx;
        let heap = &mut *heaps[self.heap_idx];
        match self.state {
            MarkState::Start => {
                // The runtime scanned the roots into the hwgc space; the
                // software collector reads the count from there.
                let hwgc_base = heap.spaces().hwgc_base;
                let t = self.cpu.access(heap, mem, hwgc_base, false);
                self.cpu.wait(t);
                let nroots = heap.read_va(hwgc_base);
                self.state = MarkState::Roots { i: 0, nroots };
                Progress::Advanced
            }
            MarkState::Roots { i, nroots } if i < nroots => {
                let hwgc_base = heap.spaces().hwgc_base;
                let slot = hwgc_base + (1 + i) * WORD;
                let t = self.cpu.access(heap, mem, slot, false);
                self.cpu.wait(t);
                let raw = heap.read_va(slot);
                if raw != 0 {
                    self.cpu
                        .push(heap, mem, &mut self.stack, &mut self.sp, ObjRef::new(raw));
                }
                self.state = MarkState::Roots { i: i + 1, nroots };
                Progress::Advanced
            }
            MarkState::Roots { .. } => {
                self.state = MarkState::Drain;
                Progress::Advanced
            }
            MarkState::Drain => {
                let popped = {
                    let cpu = &mut *self.cpu;
                    cpu.pop(heap, mem, &mut self.stack, &mut self.sp)
                };
                match popped {
                    Some(obj) => {
                        self.visit(heap, mem, obj);
                        Progress::Advanced
                    }
                    None => {
                        self.result.cycles = self.cpu.now - self.start;
                        self.result.stalls = self.cpu.stalls;
                        self.done = true;
                        Progress::Done
                    }
                }
            }
        }
    }

    // Contract-honest: the engine stalls exactly while the self-clocked
    // core is ahead of the shared clock and acts the moment it catches
    // up, so `cpu.now` is both never late and never stale.
    fn next_event_at(&self) -> Option<Cycle> {
        Some(self.cpu.now)
    }

    fn stall_reason(&self, _now: Cycle) -> StallReason {
        // Only consulted when the core clock is ahead; the wait is the
        // tail of a memory access the core already charged itself.
        StallReason::MemLatency
    }

    fn ledger(&self) -> Option<StallAccounting> {
        Some(self.cpu.stalls)
    }
}

/// The core's sweep loop as a scheduled engine over `heaps[heap_idx]`:
/// one cell classification per step (block bookkeeping and the final
/// LOS/free-list finalization are untimed, exactly as in the historical
/// inline loop).
#[derive(Debug)]
pub struct CpuSweepEngine<'a> {
    cpu: &'a mut Cpu,
    heap_idx: usize,
    /// Block table snapshot, captured from the heap on the first step.
    blocks: Option<Vec<BlockInfo>>,
    bidx: usize,
    /// Cells remaining in the current block (visited high-to-low).
    remaining: u64,
    free_head: u64,
    free_cells: u64,
    start: Cycle,
    result: PhaseResult,
    done: bool,
}

impl<'a> CpuSweepEngine<'a> {
    /// A sweep phase on `cpu` over `heaps[heap_idx]`, starting at the
    /// core's current cycle.
    pub fn new(cpu: &'a mut Cpu, heap_idx: usize) -> Self {
        cpu.stalls = StallAccounting::default();
        let start = cpu.now;
        Self {
            cpu,
            heap_idx,
            blocks: None,
            bidx: 0,
            remaining: 0,
            free_head: 0,
            free_cells: 0,
            start,
            result: PhaseResult::default(),
            done: false,
        }
    }

    /// The completed phase's result (after the scheduler reports done).
    pub fn into_result(self) -> PhaseResult {
        self.result
    }

    /// Closes finished blocks (untimed bookkeeping) and positions
    /// `remaining` at the next block with cells, if any.
    fn advance_block(&mut self, heap: &mut Heap) {
        let blocks = self.blocks.as_ref().expect("captured");
        while self.bidx < blocks.len() && self.remaining == 0 {
            heap.set_block_free_list(self.bidx, self.free_head, self.free_cells);
            self.free_head = 0;
            self.free_cells = 0;
            self.bidx += 1;
            if self.bidx < blocks.len() {
                self.remaining = blocks[self.bidx].ncells;
            }
        }
    }
}

impl<'a, 'c> Engine<SocCtx<'c>> for CpuSweepEngine<'a> {
    fn name(&self) -> &'static str {
        "cpu-sweep"
    }

    fn step(&mut self, now: Cycle, ctx: &mut SocCtx<'c>) -> Progress {
        if self.done {
            return Progress::Done;
        }
        if self.cpu.now > now {
            return Progress::Stalled;
        }
        let SocCtx { mem, heaps, .. } = ctx;
        let heap = &mut *heaps[self.heap_idx];
        if self.blocks.is_none() {
            let blocks = heap.blocks().to_vec();
            self.remaining = blocks.first().map_or(0, |b| b.ncells);
            self.blocks = Some(blocks);
            self.advance_block(heap);
        }
        let blocks = self.blocks.as_ref().expect("captured");
        if self.bidx >= blocks.len() {
            // LOS marks are cleared by the runtime (untimed here,
            // matching the paper's split of responsibilities).
            for los in heap.los_objects().to_vec() {
                let h = heap.header(los.obj).without_mark();
                heap.write_va(los.obj.addr(), h.raw());
            }
            heap.finish_sweep();
            self.result.cycles = self.cpu.now - self.start;
            self.result.stalls = self.cpu.stalls;
            self.done = true;
            return Progress::Done;
        }

        let block = blocks[self.bidx];
        let cpu = &mut *self.cpu;
        cpu.instr(cpu.cfg.instr_per_cell);
        self.remaining -= 1;
        let cell = block.base_va + self.remaining * block.cell_bytes;
        // Load the cell-start word; the classification branch depends
        // on it.
        let t = cpu.access(heap, mem, cell, false);
        cpu.wait(t);
        match decode_cell_start(heap.read_va(cell)) {
            CellStart::Free { .. } => {
                heap.write_va(cell, encode_free_cell_start(self.free_head));
                cpu.access(heap, mem, cell, true);
                cpu.instr(1);
                self.free_head = cell;
                self.free_cells += 1;
            }
            CellStart::Live { nrefs, .. } => {
                let header_va = match heap.layout() {
                    LayoutKind::Bidirectional => bidi::header_of_cell(cell, nrefs),
                    LayoutKind::Conventional => conv::header_of_cell(cell),
                };
                let t = cpu.access(heap, mem, header_va, false);
                cpu.wait(t);
                let header = Header::from_raw(heap.read_va(header_va));
                if header.is_marked() {
                    heap.write_va(header_va, header.without_mark().raw());
                    cpu.access(heap, mem, header_va, true);
                    cpu.instr(1);
                } else {
                    heap.write_va(cell, encode_free_cell_start(self.free_head));
                    cpu.access(heap, mem, cell, true);
                    cpu.instr(1);
                    self.free_head = cell;
                    self.free_cells += 1;
                    self.result.work_items += 1;
                }
            }
        }
        if self.remaining == 0 {
            self.advance_block(heap);
        }
        Progress::Advanced
    }

    fn next_event_at(&self) -> Option<Cycle> {
        Some(self.cpu.now)
    }

    fn stall_reason(&self, _now: Cycle) -> StallReason {
        StallReason::MemLatency
    }

    fn ledger(&self) -> Option<StallAccounting> {
        Some(self.cpu.stalls)
    }
}
