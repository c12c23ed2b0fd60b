//! The timed software collector running on the in-order core model.

use std::collections::VecDeque;

use tracegc_heap::layout::{
    bidi, conv, decode_cell_start, encode_free_cell_start, CellStart, Header, LayoutKind,
    HEADER_MARK_BIT, WORD,
};
use tracegc_heap::space::{MARK_STACK_BASE, MARK_STACK_BYTES};
use tracegc_heap::{BlockInfo, Heap, ObjRef};
use tracegc_mem::cache::L2Backing;
use tracegc_mem::{Cache, CacheConfig, MemSystem, Source};
use tracegc_sim::{Cycle, StallAccounting, StallReason};
use tracegc_vmem::{Requester, TlbConfig, Translator};

/// Core and software-loop parameters for the CPU collector.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// L1 D-cache geometry (Table I: 16 KiB).
    pub l1d: CacheConfig,
    /// L2 geometry (Table I: 256 KiB, 8-way).
    pub l2: CacheConfig,
    /// TLB/PTW sizing for the core.
    pub tlb: TlbConfig,
    /// Non-memory instructions per object visited in the mark loop
    /// (dequeue, mark test, branch, bookkeeping).
    pub instr_per_object: u64,
    /// Non-memory instructions per reference traced (null check, push
    /// pointer arithmetic).
    pub instr_per_ref: u64,
    /// Non-memory instructions per cell examined in the sweep loop.
    pub instr_per_cell: u64,
    /// Outstanding reference loads the core can overlap in the trace
    /// loop. 1 = the in-order Rocket (load-to-use stall on every ref);
    /// larger values approximate an out-of-order BOOM-like core, which
    /// the paper found "outperformed Rocket by only around 12%" (§VI-A).
    pub ooo_window: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            l1d: CacheConfig::rocket_l1d(),
            l2: CacheConfig::rocket_l2(),
            tlb: TlbConfig::default(),
            instr_per_object: 10,
            instr_per_ref: 4,
            instr_per_cell: 6,
            ooo_window: 1,
        }
    }
}

/// Result of one timed GC phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseResult {
    /// Cycles the phase took.
    pub cycles: Cycle,
    /// Objects newly marked (mark) or cells freed (sweep).
    pub work_items: u64,
    /// References examined (mark only).
    pub refs_traced: u64,
    /// Cycle attribution for the phase: `stalls.total() == cycles`.
    pub stalls: StallAccounting,
}

/// The Rocket-like in-order core running the software collector.
///
/// # Examples
///
/// ```
/// use tracegc_cpu::{Cpu, CpuConfig};
/// use tracegc_heap::{Heap, HeapConfig};
/// use tracegc_mem::MemSystem;
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let a = heap.alloc(1, 0, false).unwrap();
/// let b = heap.alloc(0, 0, false).unwrap();
/// heap.set_ref(a, 0, Some(b));
/// heap.set_roots(&[a]);
///
/// let mut mem = MemSystem::ddr3(Default::default());
/// let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
/// let mark = cpu.run_mark(&mut heap, &mut mem);
/// assert_eq!(mark.work_items, 2);
/// ```
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    l1d: Cache,
    l2: Cache,
    translator: Translator,
    now: Cycle,
    /// Per-phase cycle ledger (reset at each phase start).
    stalls: StallAccounting,
}

impl Cpu {
    /// Builds a core bound to `heap`'s address space, with cold caches.
    pub fn new(cfg: CpuConfig, heap: &mut Heap) -> Self {
        heap.ensure_mapped_region(MARK_STACK_BASE, MARK_STACK_BYTES);
        Self {
            cfg,
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            translator: Translator::new(heap.address_space(), cfg.tlb),
            now: 0,
            stalls: StallAccounting::default(),
        }
    }

    /// Current core cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the core clock (e.g. to account for mutator execution
    /// between GC phases).
    pub fn advance_to(&mut self, cycle: Cycle) {
        self.now = self.now.max(cycle);
    }

    /// L1 D-cache statistics.
    pub fn l1_stats(&self) -> &tracegc_mem::CacheStats {
        self.l1d.stats()
    }

    /// A timed data access: translate, then L1 → L2 → DRAM. Returns the
    /// cycle the data is available.
    fn access(&mut self, heap: &Heap, mem: &mut MemSystem, va: u64, write: bool) -> Cycle {
        let (pa, t) = self
            .translator
            .translate(Requester::Cpu, va, self.now, mem, &heap.phys)
            .unwrap_or_else(|e| panic!("CPU access fault: {e}"));
        let mut backing = L2Backing {
            l2: &mut self.l2,
            mem,
            source: Source::Cpu,
        };
        self.l1d.access(pa, write, t, Source::Cpu, &mut backing)
    }

    /// Issue `n` single-cycle instructions.
    #[inline]
    fn instr(&mut self, n: u64) {
        self.now += n;
        self.stalls.busy(n);
    }

    /// Stalls the core until `t` (a load-use dependency), attributing the
    /// wait to a TLB miss when `walked`, memory latency otherwise.
    fn wait_tagged(&mut self, t: Cycle, walked: bool) {
        let span = t.saturating_sub(self.now);
        if span > 0 {
            let reason = if walked {
                StallReason::TlbMiss
            } else {
                StallReason::MemLatency
            };
            self.stalls.stall(reason, span);
            self.now = t;
        }
    }

    /// [`Cpu::wait_tagged`] for the most recent [`Cpu::access`], which
    /// walked when its translation did.
    fn wait(&mut self, t: Cycle) {
        self.wait_tagged(t, self.translator.last_walk().is_some());
    }

    /// Runs the mark phase: a breadth-limited DFS with a software mark
    /// stack, exactly the traversal of §III-A, with every memory touch
    /// timed through the cache hierarchy.
    pub fn run_mark(&mut self, heap: &mut Heap, mem: &mut MemSystem) -> PhaseResult {
        self.phase(|cpu, result| {
            let mut stack: Vec<ObjRef> = Vec::new();
            // The runtime scanned the roots into the hwgc space; the
            // software collector reads the count from there.
            let hwgc_base = heap.spaces().hwgc_base;
            let t = cpu.access(heap, mem, hwgc_base, false);
            cpu.wait(t);
            let nroots = heap.read_va(hwgc_base);
            for i in 0..nroots {
                let slot = hwgc_base + (1 + i) * WORD;
                let t = cpu.access(heap, mem, slot, false);
                cpu.wait(t);
                let raw = heap.read_va(slot);
                if raw != 0 {
                    cpu.push(heap, mem, &mut stack, ObjRef::new(raw));
                }
            }
            while let Some(obj) = cpu.pop(heap, mem, &mut stack) {
                cpu.visit(heap, mem, &mut stack, obj, result);
            }
        })
    }

    /// Runs one timed phase: resets the per-phase ledger, runs `body` on
    /// the core and closes the result with the phase's cycles and ledger.
    fn phase(&mut self, body: impl FnOnce(&mut Self, &mut PhaseResult)) -> PhaseResult {
        self.stalls = StallAccounting::default();
        let start = self.now;
        let mut result = PhaseResult::default();
        body(self, &mut result);
        result.cycles = self.now - start;
        result.stalls = self.stalls;
        result
    }

    /// Visits one popped object: mark test, mark store, reference trace.
    fn visit(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        stack: &mut Vec<ObjRef>,
        obj: ObjRef,
        result: &mut PhaseResult,
    ) {
        self.instr(self.cfg.instr_per_object);
        // Load the header; the mark-test branch *depends* on it, so
        // the in-order core stalls until the data arrives.
        let t = self.access(heap, mem, obj.addr(), false);
        self.wait(t);
        let pa = heap.va_to_pa(obj.addr());
        let old = Header::from_raw(heap.phys.read_u64(pa));
        if old.is_marked() {
            return;
        }
        // Store the mark (write-back absorbs it; no stall).
        heap.phys.write_u64(pa, old.with_mark().raw());
        self.access(heap, mem, obj.addr(), true);
        self.instr(1);
        result.work_items += 1;
        result.refs_traced += self.walk_refs(heap, mem, obj, old.nrefs(), |cpu, heap, mem, raw| {
            cpu.push(heap, mem, stack, ObjRef::new(raw));
        });
    }

    /// Pushes `obj` onto the software mark stack. `stack` mirrors the
    /// simulated stack at [`MARK_STACK_BASE`]; its length is the stack
    /// pointer.
    fn push(&mut self, heap: &mut Heap, mem: &mut MemSystem, stack: &mut Vec<ObjRef>, obj: ObjRef) {
        let sp = stack.len() as u64;
        assert!(sp * WORD < MARK_STACK_BYTES, "software mark stack overflow");
        let va = MARK_STACK_BASE + sp * WORD;
        heap.write_va(va, obj.addr());
        // Stack stores are fire-and-forget on a write-back cache.
        self.access(heap, mem, va, true);
        self.instr(1);
        stack.push(obj);
    }

    /// Pops the top of the software mark stack; the load stalls the core.
    fn pop(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        stack: &mut Vec<ObjRef>,
    ) -> Option<ObjRef> {
        let obj = stack.pop()?;
        let va = MARK_STACK_BASE + stack.len() as u64 * WORD;
        let t = self.access(heap, mem, va, false);
        self.wait(t);
        debug_assert_eq!(heap.read_va(va), obj.addr());
        Some(obj)
    }

    /// Resumes a mark phase from a faulted traversal unit's architected
    /// state: `pending` is the drained queue contents (the traversal
    /// unit's `drain_architected_state`), and the mark bitmap is
    /// whatever the unit left in the heap.
    ///
    /// The drained words are *untrusted* — the set may contain the very
    /// word a fault corrupted — so each entry is software-sanitized
    /// (null, alignment, bounds) before being dereferenced; survivors
    /// that fail the checks are silently dropped, which is sound because
    /// the unit never enqueues an invalid reference from an uncorrupted
    /// read.
    ///
    /// Unlike [`Cpu::run_mark`], the seeded entries are traced
    /// *unconditionally*: the unit marks objects before tracing them, so
    /// a drained entry may be marked-but-untraced and a mark-test skip
    /// would hide its children forever. Children discovered during the
    /// resume are marked in place and pushed only when newly marked, so
    /// marking stays monotonic and the loop provably terminates.
    pub fn resume_mark_from(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        pending: &[u64],
    ) -> PhaseResult {
        self.phase(|cpu, result| {
            let mut stack: Vec<ObjRef> = Vec::new();
            for &va in pending {
                // Null/alignment test plus the bounds compare.
                cpu.instr(2);
                if va == 0 || !va.is_multiple_of(WORD) || !heap.spaces().in_traced_space(va) {
                    continue;
                }
                // Seed: mark (idempotent — the unit may already have) and
                // stack for an unconditional trace.
                if !cpu.mark_in_place(heap, mem, va) {
                    result.work_items += 1;
                }
                cpu.push(heap, mem, &mut stack, ObjRef::new(va));
            }
            while let Some(obj) = cpu.pop(heap, mem, &mut stack) {
                cpu.trace_marked(heap, mem, &mut stack, obj, result);
            }
        })
    }

    /// Traces every reference of an already-marked `obj`, marking each
    /// child in place and pushing only the newly marked — the resume
    /// loop's body. It shares [`Cpu::walk_refs`] with the normal mark
    /// loop's [`Cpu::visit`], so the timing of the reference loads is the
    /// same.
    fn trace_marked(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        stack: &mut Vec<ObjRef>,
        obj: ObjRef,
        result: &mut PhaseResult,
    ) {
        self.instr(self.cfg.instr_per_object);
        let t = self.access(heap, mem, obj.addr(), false);
        self.wait(t);
        let nrefs = Header::from_raw(heap.read_va(obj.addr())).nrefs();
        result.refs_traced += self.walk_refs(heap, mem, obj, nrefs, |cpu, heap, mem, raw| {
            if !cpu.mark_in_place(heap, mem, raw) {
                result.work_items += 1;
                cpu.push(heap, mem, stack, ObjRef::new(raw));
            }
        });
    }

    /// Sets the mark bit of the object at `va` with an atomic fetch-or
    /// (the header load stalls the core; the store is posted) and
    /// returns whether it was already set.
    fn mark_in_place(&mut self, heap: &mut Heap, mem: &mut MemSystem, va: u64) -> bool {
        let t = self.access(heap, mem, va, false);
        self.wait(t);
        let pa = heap.va_to_pa(va);
        let old = Header::from_raw(heap.phys.fetch_or_u64(pa, HEADER_MARK_BIT));
        self.access(heap, mem, va, true);
        self.instr(1);
        old.is_marked()
    }

    /// Loads the `nrefs` reference slots of `obj` with the mark loop's
    /// timing and hands each non-null reference to `child`, in slot
    /// order; returns the number of slots loaded.
    ///
    /// Bidirectional objects keep their slots contiguously below the
    /// header. An in-order core (`ooo_window` = 1) stalls on every
    /// load-use pair; an out-of-order core overlaps up to `ooo_window`
    /// outstanding slot loads. Conventional objects cost a TIB-pointer
    /// load, then an offset-table load and a scattered field load per
    /// reference — the two extra accesses of §IV-A.
    fn walk_refs(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        obj: ObjRef,
        nrefs: u32,
        mut child: impl FnMut(&mut Self, &mut Heap, &mut MemSystem, u64),
    ) -> u64 {
        match heap.layout() {
            LayoutKind::Bidirectional => {
                let window = self.cfg.ooo_window.max(1);
                let mut pending: VecDeque<(Cycle, u64, bool)> = VecDeque::with_capacity(window);
                for i in 0..nrefs {
                    self.instr(self.cfg.instr_per_ref);
                    let slot = bidi::ref_slot(obj, i);
                    let t = self.access(heap, mem, slot, false);
                    let raw = heap.read_va(slot);
                    pending.push_back((t, raw, self.translator.last_walk().is_some()));
                    if pending.len() >= window {
                        let (t, raw, walked) = pending.pop_front().expect("non-empty");
                        self.wait_tagged(t, walked);
                        if raw != 0 {
                            child(self, heap, mem, raw);
                        }
                    }
                }
                while let Some((t, raw, walked)) = pending.pop_front() {
                    self.wait_tagged(t, walked);
                    if raw != 0 {
                        child(self, heap, mem, raw);
                    }
                }
            }
            LayoutKind::Conventional => {
                let tib_slot = conv::tib_slot(obj);
                let t = self.access(heap, mem, tib_slot, false);
                self.wait(t);
                let tib = heap.read_va(tib_slot);
                for i in 0..nrefs {
                    self.instr(self.cfg.instr_per_ref);
                    let off_va = tib + (1 + i as u64) * WORD;
                    let t = self.access(heap, mem, off_va, false);
                    self.wait(t);
                    let offset = heap.read_va(off_va) as u32;
                    let slot = conv::field_slot(obj, offset);
                    let t = self.access(heap, mem, slot, false);
                    self.wait(t);
                    let raw = heap.read_va(slot);
                    if raw != 0 {
                        child(self, heap, mem, raw);
                    }
                }
            }
        }
        u64::from(nrefs)
    }

    /// Runs the sweep phase: a linear scan over every mark-sweep block,
    /// rebuilding free lists and clearing surviving marks — the software
    /// equivalent of the reclamation unit (§V-D). Block bookkeeping and
    /// the final LOS and allocator updates are untimed.
    pub fn run_sweep(&mut self, heap: &mut Heap, mem: &mut MemSystem) -> PhaseResult {
        let result = self.phase(|cpu, result| {
            for bidx in 0..heap.blocks().len() {
                let block = heap.blocks()[bidx];
                let (free_head, free_cells) = cpu.sweep_block(heap, mem, block, result);
                heap.set_block_free_list(bidx, free_head, free_cells);
            }
        });
        // LOS marks are cleared by the runtime (untimed here, matching the
        // paper's split of responsibilities).
        for i in 0..heap.los_objects().len() {
            let obj = heap.los_objects()[i].obj;
            let h = heap.header(obj).without_mark();
            heap.write_va(obj.addr(), h.raw());
        }
        heap.finish_sweep();
        result
    }

    /// Sweeps `block`'s cells, clearing surviving marks and threading
    /// every free cell onto a new free list; returns its head and length.
    fn sweep_block(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        block: BlockInfo,
        result: &mut PhaseResult,
    ) -> (u64, u64) {
        let mut free_head = 0;
        let mut free_cells = 0;
        // High to low, so the rebuilt free list runs in address order.
        for i in (0..block.ncells).rev() {
            self.instr(self.cfg.instr_per_cell);
            let cell = block.base_va + i * block.cell_bytes;
            // Load the cell-start word; the classification branch depends
            // on it.
            let t = self.access(heap, mem, cell, false);
            self.wait(t);
            let free = match decode_cell_start(heap.read_va(cell)) {
                CellStart::Free { .. } => true,
                CellStart::Live { nrefs, .. } => {
                    let header_va = match heap.layout() {
                        LayoutKind::Bidirectional => bidi::header_of_cell(cell, nrefs),
                        LayoutKind::Conventional => conv::header_of_cell(cell),
                    };
                    let t = self.access(heap, mem, header_va, false);
                    self.wait(t);
                    let header = Header::from_raw(heap.read_va(header_va));
                    if header.is_marked() {
                        heap.write_va(header_va, header.without_mark().raw());
                        self.access(heap, mem, header_va, true);
                        self.instr(1);
                        false
                    } else {
                        result.work_items += 1;
                        true
                    }
                }
            };
            if free {
                heap.write_va(cell, encode_free_cell_start(free_head));
                self.access(heap, mem, cell, true);
                self.instr(1);
                free_head = cell;
                free_cells += 1;
            }
        }
        (free_head, free_cells)
    }

    /// Runs a complete stop-the-world GC (mark then sweep); returns the
    /// two phase results.
    pub fn run_gc(&mut self, heap: &mut Heap, mem: &mut MemSystem) -> (PhaseResult, PhaseResult) {
        let mark = self.run_mark(heap, mem);
        let sweep = self.run_sweep(heap, mem);
        (mark, sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_heap::layout::LayoutKind;
    use tracegc_heap::verify::{check_free_lists, check_marks_match_reachability};
    use tracegc_heap::HeapConfig;

    fn build_graph(layout: LayoutKind) -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 128 << 20,
            layout,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..500)
            .map(|i| h.alloc(2 + (i % 3) as u32, (i % 5) as u32, false).unwrap())
            .collect();
        for i in 0..300usize {
            h.set_ref(objs[i], 0, Some(objs[(i + 1) % 300]));
            h.set_ref(objs[i], 1, Some(objs[(i * 17) % 300]));
        }
        for i in 300..499usize {
            h.set_ref(objs[i], 0, Some(objs[i + 1])); // garbage chain
        }
        h.set_roots(&[objs[0], objs[150]]);
        h
    }

    #[test]
    fn timed_mark_matches_reachability_oracle() {
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        let result = cpu.run_mark(&mut heap, &mut mem);
        check_marks_match_reachability(&heap).unwrap();
        assert_eq!(result.work_items, 300);
        assert!(result.cycles > 0);
    }

    #[test]
    fn timed_sweep_matches_software_oracle() {
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        cpu.run_mark(&mut heap, &mut mem);
        let live_before = heap.reachable_from_roots();
        let sweep = cpu.run_sweep(&mut heap, &mut mem);
        assert_eq!(sweep.work_items, 200, "dead objects freed");
        check_free_lists(&heap).unwrap();
        // Marks cleared, live objects untouched.
        assert!(heap.marked_set().is_empty());
        assert_eq!(heap.reachable_from_roots(), live_before);
    }

    #[test]
    fn conventional_layout_is_slower_to_mark() {
        let run = |layout| {
            let mut heap = build_graph(layout);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
            cpu.run_mark(&mut heap, &mut mem).cycles
        };
        let bidi = run(LayoutKind::Bidirectional);
        let conv = run(LayoutKind::Conventional);
        assert!(
            conv > bidi,
            "conventional ({conv}) should cost more than bidirectional ({bidi})"
        );
    }

    #[test]
    fn second_gc_marks_the_same_set() {
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        let (m1, _s1) = cpu.run_gc(&mut heap, &mut mem);
        let (m2, _s2) = cpu.run_gc(&mut heap, &mut mem);
        assert_eq!(m1.work_items, m2.work_items);
        check_free_lists(&heap).unwrap();
    }

    #[test]
    fn faster_memory_shortens_the_pause() {
        let run = |mem: &mut MemSystem| {
            let mut heap = build_graph(LayoutKind::Bidirectional);
            let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
            cpu.run_mark(&mut heap, mem).cycles
        };
        let mut ddr = MemSystem::ddr3(Default::default());
        let mut pipe = MemSystem::pipe(Default::default());
        let t_ddr = run(&mut ddr);
        let t_pipe = run(&mut pipe);
        assert!(t_pipe < t_ddr);
    }

    #[test]
    fn mark_traces_every_reference_of_live_objects() {
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let expected: u64 = heap
            .reachable_from_roots()
            .iter()
            .map(|&o| heap.nrefs(o) as u64)
            .sum();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        let result = cpu.run_mark(&mut heap, &mut mem);
        assert_eq!(result.refs_traced, expected);
    }

    #[test]
    fn stall_accounting_sums_to_phase_cycles() {
        for layout in [LayoutKind::Bidirectional, LayoutKind::Conventional] {
            let mut heap = build_graph(layout);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
            let (mark, sweep) = cpu.run_gc(&mut heap, &mut mem);
            assert_eq!(
                mark.stalls.total(),
                mark.cycles,
                "mark attribution must cover every cycle ({layout:?})"
            );
            assert_eq!(
                sweep.stalls.total(),
                sweep.cycles,
                "sweep attribution must cover every cycle ({layout:?})"
            );
            assert!(mark.stalls.busy_cycles() > 0);
            assert!(mark.stalls.total_stalled() > 0, "cold caches must stall");
        }
    }

    #[test]
    fn resume_from_roots_completes_the_mark() {
        for layout in [LayoutKind::Bidirectional, LayoutKind::Conventional] {
            let mut heap = build_graph(layout);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
            let pending: Vec<u64> = heap.roots().iter().map(|r| r.addr()).collect();
            let result = cpu.resume_mark_from(&mut heap, &mut mem, &pending);
            check_marks_match_reachability(&heap).unwrap();
            assert_eq!(result.work_items, 300, "{layout:?}");
            assert_eq!(result.stalls.total(), result.cycles, "{layout:?}");
        }
    }

    #[test]
    fn resume_retraces_marked_but_untraced_seeds() {
        // The hardware marks objects *before* tracing them, so the
        // drained state can contain already-marked entries whose
        // children were never visited. A mark-test skip would lose them.
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        let roots: Vec<ObjRef> = heap.roots().to_vec();
        for &r in &roots {
            assert!(!heap.mark(r), "roots start unmarked");
        }
        let pending: Vec<u64> = roots.iter().map(|r| r.addr()).collect();
        let result = cpu.resume_mark_from(&mut heap, &mut mem, &pending);
        check_marks_match_reachability(&heap).unwrap();
        // The seeds were already marked, so only their descendants count
        // as new work.
        assert_eq!(result.work_items, 300 - roots.len() as u64);
    }

    #[test]
    fn resume_sanitizes_untrusted_pending_words() {
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        // Null, misaligned, and out-of-bounds words — exactly what a
        // corrupting fault can leave in the drained state.
        let junk = [0u64, 0x1003, 1u64 << 40, !7u64];
        let result = cpu.resume_mark_from(&mut heap, &mut mem, &junk);
        assert_eq!(result.work_items, 0);
        assert!(heap.marked_set().is_empty());
    }

    #[test]
    fn resume_tolerates_duplicate_pending_entries() {
        let mut heap = build_graph(LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        let mut pending: Vec<u64> = heap.roots().iter().map(|r| r.addr()).collect();
        let dup = pending.clone();
        pending.extend(dup);
        let result = cpu.resume_mark_from(&mut heap, &mut mem, &pending);
        check_marks_match_reachability(&heap).unwrap();
        assert_eq!(result.work_items, 300);
    }

    #[test]
    fn empty_root_set_is_a_noop_gc() {
        let mut heap = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let _garbage = heap.alloc(1, 1, false).unwrap();
        heap.set_roots(&[]);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
        let (mark, sweep) = cpu.run_gc(&mut heap, &mut mem);
        assert_eq!(mark.work_items, 0);
        assert_eq!(sweep.work_items, 1);
        check_free_lists(&heap).unwrap();
    }
}
