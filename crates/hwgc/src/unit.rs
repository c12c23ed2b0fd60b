//! The complete GC unit: traversal + reclamation behind the MMIO
//! protocol — what the JikesRVM `libhwgc.so` / Linux-driver stack talks
//! to (§V-E, Fig. 10).

use tracegc_heap::Heap;
use tracegc_mem::MemSystem;
use tracegc_sim::{Cycle, SimError, TraceEvent};

use crate::config::GcUnitConfig;
use crate::mmio::{MmioRegs, Reg};
use crate::reclaim::{ReclaimResult, ReclamationUnit};
use crate::traversal::{TraversalResult, TraversalUnit};

/// The outcome of one hardware collection.
#[derive(Debug, Clone)]
pub struct GcReport {
    /// Mark-phase result.
    pub mark: TraversalResult,
    /// Sweep-phase result.
    pub sweep: ReclaimResult,
}

impl GcReport {
    /// Total pause cycles (mark + sweep).
    pub fn total_cycles(&self) -> Cycle {
        self.mark.cycles() + self.sweep.cycles()
    }
}

/// The accelerator as the runtime sees it: a memory-mapped device that
/// traverses and reclaims the heap autonomously.
#[derive(Debug)]
pub struct GcUnit {
    cfg: GcUnitConfig,
    regs: MmioRegs,
    traversal: TraversalUnit,
    reclaim: ReclamationUnit,
}

impl GcUnit {
    /// Builds the unit for `heap`, programming the register file the way
    /// the Linux driver does at initialization.
    pub fn new(cfg: GcUnitConfig, heap: &mut Heap) -> Self {
        let traversal = TraversalUnit::new(cfg, heap);
        let reclaim = ReclamationUnit::new(cfg, heap);
        let mut regs = MmioRegs::new();
        regs.write(Reg::PageTableRoot, heap.address_space().root());
        regs.write(Reg::RootsPtr, heap.spaces().hwgc_base);
        regs.write(Reg::SpillBase, traversal.spill_base());
        regs.write(Reg::SpillSize, cfg.spill_bytes);
        Self {
            cfg,
            regs,
            traversal,
            reclaim,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &GcUnitConfig {
        &self.cfg
    }

    /// The MMIO register file (what the driver reads and writes).
    pub fn regs(&self) -> &MmioRegs {
        &self.regs
    }

    /// The traversal unit (for detailed statistics).
    pub fn traversal(&self) -> &TraversalUnit {
        &self.traversal
    }

    /// The traversal unit, mutably (the driver attaches fault injectors
    /// to it, and its trap-recovery path reads the trap register and
    /// drains architected state).
    pub fn traversal_mut(&mut self) -> &mut TraversalUnit {
        &mut self.traversal
    }

    /// Drains both sub-units' event rings (populated when the config's
    /// `trace` flag is set) into one cycle-ordered vector.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = Vec::new();
        if let Some(t) = self.traversal.take_trace() {
            events.extend(t.into_vec());
        }
        if let Some(t) = self.reclaim.take_trace() {
            events.extend(t.into_vec());
        }
        events.sort_by_key(|e| e.cycle);
        events
    }

    /// Runs a complete stop-the-world collection starting at cycle
    /// `start`, following the MMIO protocol: command → running → done.
    ///
    /// # Errors
    ///
    /// A trap during the mark surfaces as a [`SimError`] and leaves the
    /// traversal unit frozen (architected state recoverable via
    /// [`GcUnit::traversal_mut`]); the sweep is not started — the
    /// driver must finish the mark in software before it may sweep.
    pub fn try_run_gc_at(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        start: Cycle,
    ) -> Result<GcReport, SimError> {
        self.regs.write(Reg::Command, MmioRegs::CMD_START_GC);
        self.regs.begin();
        let mark = self.traversal.try_run_mark(heap, mem, start)?;
        let sweep = self.reclaim.run_sweep(heap, mem, mark.end);
        self.regs.complete(mark.objects_marked, sweep.cells_freed);
        Ok(GcReport { mark, sweep })
    }

    /// The driver's recovery tail after a trapped mark: once software
    /// has completed the mark from the drained architected state
    /// (`marked_total` objects now carry marks), the reclamation unit
    /// sweeps as usual and the register file reports completion.
    pub fn sweep_after_fallback(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemSystem,
        start: Cycle,
        marked_total: u64,
    ) -> ReclaimResult {
        let sweep = self.reclaim.run_sweep(heap, mem, start);
        self.regs.complete(marked_total, sweep.cells_freed);
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_heap::verify::{check_free_lists, check_marks_match_reachability};
    use tracegc_heap::{HeapConfig, ObjRef};

    fn workload() -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 128 << 20,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..1000)
            .map(|i| h.alloc(2, (i % 4) as u32, false).unwrap())
            .collect();
        for i in 0..600usize {
            h.set_ref(objs[i], 0, Some(objs[(i + 1) % 600]));
            h.set_ref(objs[i], 1, Some(objs[(i * 7) % 600]));
        }
        h.set_roots(&[objs[0]]);
        h
    }

    #[test]
    fn full_gc_marks_and_sweeps_correctly() {
        let mut heap = workload();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = GcUnit::new(GcUnitConfig::default(), &mut heap);
        let report = unit.try_run_gc_at(&mut heap, &mut mem, 0).unwrap();
        assert_eq!(report.mark.objects_marked, 600);
        assert_eq!(report.sweep.cells_freed, 400);
        check_free_lists(&heap).unwrap();
        assert!(heap.marked_set().is_empty());
        assert!(report.total_cycles() > 0);
    }

    #[test]
    fn mmio_protocol_is_followed() {
        let mut heap = workload();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = GcUnit::new(GcUnitConfig::default(), &mut heap);
        assert_eq!(unit.regs().read(Reg::Status), MmioRegs::STATUS_IDLE);
        // The driver programs all four configuration registers.
        let regs = unit.regs();
        assert_eq!(regs.read(Reg::PageTableRoot), heap.address_space().root());
        assert_eq!(regs.read(Reg::RootsPtr), heap.spaces().hwgc_base);
        let spill_base = unit.traversal().spill_base();
        assert_ne!(spill_base, 0, "the spill region is allocated");
        assert_eq!(regs.read(Reg::SpillBase), spill_base);
        assert_eq!(
            regs.read(Reg::SpillSize),
            GcUnitConfig::default().spill_bytes
        );
        unit.try_run_gc_at(&mut heap, &mut mem, 0).unwrap();
        assert_eq!(unit.regs().read(Reg::Status), MmioRegs::STATUS_DONE);
        assert_eq!(unit.regs().read(Reg::MarkedCount), 600);
        assert_eq!(unit.regs().read(Reg::FreedCount), 400);
    }

    #[test]
    fn sweep_follows_mark_in_time() {
        let mut heap = workload();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = GcUnit::new(GcUnitConfig::default(), &mut heap);
        let report = unit.try_run_gc_at(&mut heap, &mut mem, 1000).unwrap();
        assert_eq!(report.mark.start, 1000);
        assert_eq!(report.sweep.start, report.mark.end);
        assert!(report.sweep.end >= report.sweep.start);
    }

    #[test]
    fn consecutive_collections_work() {
        let mut heap = workload();
        let mut mem = MemSystem::ddr3(Default::default());
        // A mark-bit cache large enough to still hold the root when the
        // first collection ends.
        let cfg = GcUnitConfig {
            markbit_cache: 256,
            ..GcUnitConfig::default()
        };
        let mut unit = GcUnit::new(cfg, &mut heap);
        let r1 = unit.try_run_gc_at(&mut heap, &mut mem, 0).unwrap();
        assert_eq!(r1.mark.objects_marked, 600);
        // Second GC by the same unit over the same live set: marks the
        // same objects, frees nothing new, and reports only its own pass.
        let r2 = unit
            .try_run_gc_at(&mut heap, &mut mem, r1.sweep.end)
            .unwrap();
        assert_eq!(r2.mark.objects_marked, 600);
        assert_eq!(r2.sweep.cells_freed, 0);
        let mark_ops = |m: &TraversalResult| m.objects_marked + m.already_marked + m.filtered;
        assert_eq!(mark_ops(&r2.mark), mark_ops(&r1.mark));
        assert_eq!(r2.mark.refs_enqueued, r1.mark.refs_enqueued);
        assert_eq!(r2.mark.markq.enqueued, r1.mark.markq.enqueued);
        assert!(r2.mark.port_busy_cycles <= r2.mark.cycles());
        assert!(r2.mark.translator.walks <= r1.mark.translator.walks);
        // A third by a fresh unit does the same.
        let mut unit3 = GcUnit::new(GcUnitConfig::default(), &mut heap);
        let r3 = unit3
            .try_run_gc_at(&mut heap, &mut mem, r2.sweep.end)
            .unwrap();
        assert_eq!(r3.mark.objects_marked, 600);
        assert_eq!(r3.sweep.cells_freed, 0);
        // The sweep cleared every mark, so the heap no longer looks
        // mid-collection: the mark/reachability oracle must *fail* on
        // the live set (reachable objects exist but carry no marks).
        assert!(heap.marked_set().is_empty(), "sweep must clear all marks");
        assert!(
            check_marks_match_reachability(&heap).is_err(),
            "live objects should be unmarked after sweep"
        );
        check_free_lists(&heap).unwrap();
    }
}
