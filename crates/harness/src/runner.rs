//! The shared experiment runner: paired CPU/unit GC runs over identical
//! heap states.
//!
//! Methodology: the CPU collector and the GC unit must be measured on
//! *identical* heap snapshots. [`DualRun`] therefore maintains two
//! deterministically identical copies of the workload (same seed, same
//! churn sequence — possible because both sweeps provably rebuild
//! identical free lists), runs the software collector on one and the
//! accelerator on the other with fresh memory systems, and
//! cross-checks that both marked the same number of objects and freed
//! the same number of cells.

use tracegc_cpu::{Cpu, CpuConfig};
use tracegc_heap::verify::check_marks_match_reachability;
use tracegc_heap::{Heap, LayoutKind};
use tracegc_hwgc::{GcUnit, GcUnitConfig, Trap, TraversalUnit};
use tracegc_mem::ddr3::Ddr3Config;
use tracegc_mem::pipe::PipeConfig;
use tracegc_mem::{MemSystem, Source};
use tracegc_sim::{
    Cycle, FaultConfig, FaultPlan, FaultSite, FaultStats, SimError, StallAccounting, TraceEvent,
};
use tracegc_workloads::generate::{churn, generate_heap, WorkloadHeap};
use tracegc_workloads::spec::BenchSpec;

/// Which memory system backs a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemKind {
    /// DDR3 with an explicit configuration.
    Ddr3(Ddr3Config),
    /// The latency–bandwidth pipe of Fig. 17.
    Pipe(PipeConfig),
}

impl MemKind {
    /// Table I's DDR3-2000 with FR-FCFS and 16/8 outstanding.
    pub fn ddr3_default() -> Self {
        MemKind::Ddr3(Ddr3Config::default())
    }

    /// The 1-cycle / 8 GB/s pipe of Fig. 17.
    pub fn pipe_8gbps() -> Self {
        MemKind::Pipe(PipeConfig::default())
    }

    /// Builds a fresh memory system.
    pub fn fresh(self) -> MemSystem {
        match self {
            MemKind::Ddr3(cfg) => MemSystem::ddr3(cfg),
            MemKind::Pipe(cfg) => MemSystem::pipe(cfg),
        }
    }
}

/// A snapshot of memory-controller statistics after one phase.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Total requests.
    pub total_requests: u64,
    /// Requests per source, indexed by [`Source::index`].
    pub requests_by_source: [u64; Source::ALL.len()],
    /// Mean cycles between request presentations (Fig. 17b).
    pub mean_issue_interval: f64,
    /// DRAM activates (None for the pipe model).
    pub activates: Option<u64>,
    /// Bandwidth time series in GB/s per 50 µs window (Fig. 16).
    pub series_gbps: Vec<f64>,
}

impl MemSnapshot {
    /// Captures the state of a memory system.
    pub fn capture(mem: &MemSystem) -> Self {
        let stats = mem.stats();
        Self {
            total_bytes: stats.total_bytes,
            total_requests: stats.total_requests,
            requests_by_source: stats.requests_by_source,
            mean_issue_interval: stats.mean_issue_interval(),
            activates: mem.ddr3_stats().map(|d| d.activates),
            series_gbps: mem.meter().series_gbps(),
        }
    }

    /// Requests issued by `source`.
    pub fn requests(&self, source: Source) -> u64 {
        self.requests_by_source[source.index()]
    }

    /// Average bandwidth over `cycles`, in GB/s at 1 GHz.
    pub fn avg_gbps(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total_bytes as f64 / cycles as f64
        }
    }
}

/// One paired GC pause: the same heap state collected by both agents.
#[derive(Debug, Clone)]
pub struct PauseResult {
    /// CPU mark-phase cycles.
    pub cpu_mark_cycles: Cycle,
    /// CPU sweep-phase cycles.
    pub cpu_sweep_cycles: Cycle,
    /// Unit mark-phase cycles.
    pub unit_mark_cycles: Cycle,
    /// Unit sweep-phase cycles.
    pub unit_sweep_cycles: Cycle,
    /// Objects marked (identical on both sides, checked).
    pub objects_marked: u64,
    /// Cells freed (identical on both sides, checked).
    pub cells_freed: u64,
    /// Memory statistics of the CPU run.
    pub cpu_mem: MemSnapshot,
    /// Memory statistics of the unit run.
    pub unit_mem: MemSnapshot,
    /// Mark-queue/spill statistics of the unit run.
    pub unit_markq: tracegc_hwgc::MarkQueueStats,
    /// Refs the unit's marker filtered via the mark-bit cache.
    pub unit_filtered: u64,
    /// Cycles the unit's TileLink port issued a request during mark.
    pub unit_port_busy: u64,
    /// Mark operations that found the object already marked.
    pub unit_already_marked: u64,
    /// CPU mark-phase cycle attribution (`total() == cpu_mark_cycles`).
    pub cpu_mark_stalls: StallAccounting,
    /// CPU sweep-phase cycle attribution.
    pub cpu_sweep_stalls: StallAccounting,
    /// Unit mark-phase cycle attribution (`total() == unit_mark_cycles`).
    pub unit_mark_stalls: StallAccounting,
    /// Unit sweep-phase cycle attribution, summed over all sweeper lanes
    /// (`total() == unit_sweep_cycles * unit_sweep_lanes`).
    pub unit_sweep_stalls: StallAccounting,
    /// Sweeper lanes the unit's sweep accounting covers.
    pub unit_sweep_lanes: u64,
    /// The unit's drained event ring (empty unless the unit config's
    /// `trace` flag was set).
    pub unit_trace: Vec<TraceEvent>,
}

impl PauseResult {
    /// Mark-phase speedup of the unit over the CPU.
    pub fn mark_speedup(&self) -> f64 {
        self.cpu_mark_cycles as f64 / self.unit_mark_cycles.max(1) as f64
    }

    /// Sweep-phase speedup of the unit over the CPU.
    pub fn sweep_speedup(&self) -> f64 {
        self.cpu_sweep_cycles as f64 / self.unit_sweep_cycles.max(1) as f64
    }

    /// Whole-GC speedup.
    pub fn total_speedup(&self) -> f64 {
        (self.cpu_mark_cycles + self.cpu_sweep_cycles) as f64
            / (self.unit_mark_cycles + self.unit_sweep_cycles).max(1) as f64
    }
}

/// Two deterministically identical copies of a workload, one collected
/// by the CPU model and one by the accelerator.
#[derive(Debug)]
pub struct DualRun {
    spec: BenchSpec,
    layout: LayoutKind,
    unit_cfg: GcUnitConfig,
    cpu_side: WorkloadHeap,
    unit_side: WorkloadHeap,
}

impl DualRun {
    /// Generates both copies of the workload.
    pub fn new(spec: &BenchSpec, layout: LayoutKind, unit_cfg: GcUnitConfig) -> Self {
        Self {
            spec: *spec,
            layout,
            unit_cfg,
            cpu_side: generate_heap(spec, layout),
            unit_side: generate_heap(spec, layout),
        }
    }

    /// The benchmark specification.
    pub fn spec(&self) -> &BenchSpec {
        &self.spec
    }

    /// The object layout both copies were generated with.
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Access to the unit-side heap (for experiments that need extra
    /// unit-only instrumentation).
    pub fn unit_heap_mut(&mut self) -> &mut WorkloadHeap {
        &mut self.unit_side
    }

    /// Runs one paired GC pause on fresh memory systems and fresh
    /// agents (cold caches/TLBs, as after a context switch to GC).
    ///
    /// # Panics
    ///
    /// Panics if the two agents diverge (different mark counts or freed
    /// cells) — that would be a correctness bug, not a measurement.
    pub fn run_pause(&mut self, mem_kind: MemKind) -> PauseResult {
        // CPU side.
        let mut cpu_mem = mem_kind.fresh();
        let mut cpu = Cpu::new(CpuConfig::default(), &mut self.cpu_side.heap);
        let cpu_mark = cpu.run_mark(&mut self.cpu_side.heap, &mut cpu_mem);
        let cpu_sweep = cpu.run_sweep(&mut self.cpu_side.heap, &mut cpu_mem);
        let cpu_snapshot = MemSnapshot::capture(&cpu_mem);

        // Unit side.
        let mut unit_mem = mem_kind.fresh();
        let mut unit = GcUnit::new(self.unit_cfg, &mut self.unit_side.heap);
        let report = unit.run_gc(&mut self.unit_side.heap, &mut unit_mem);
        let unit_snapshot = MemSnapshot::capture(&unit_mem);
        let unit_trace = unit.take_trace();

        assert_eq!(
            cpu_mark.work_items, report.mark.objects_marked,
            "CPU and unit marked different object counts"
        );
        assert_eq!(
            cpu_sweep.work_items, report.sweep.cells_freed,
            "CPU and unit freed different cell counts"
        );

        PauseResult {
            cpu_mark_cycles: cpu_mark.cycles,
            cpu_sweep_cycles: cpu_sweep.cycles,
            unit_mark_cycles: report.mark.cycles(),
            unit_sweep_cycles: report.sweep.cycles(),
            objects_marked: report.mark.objects_marked,
            cells_freed: report.sweep.cells_freed,
            cpu_mem: cpu_snapshot,
            unit_mem: unit_snapshot,
            unit_markq: report.mark.markq,
            unit_filtered: report.mark.filtered,
            unit_port_busy: report.mark.port_busy_cycles,
            unit_already_marked: report.mark.already_marked,
            cpu_mark_stalls: cpu_mark.stalls,
            cpu_sweep_stalls: cpu_sweep.stalls,
            unit_mark_stalls: report.mark.stalls,
            unit_sweep_stalls: report.sweep.stalls,
            unit_sweep_lanes: report.sweep.lanes,
            unit_trace,
        }
    }

    /// Applies identical mutator churn to both copies (call between
    /// pauses).
    pub fn churn(&mut self, fraction: f64) {
        let a = churn(&mut self.cpu_side, fraction);
        let b = churn(&mut self.unit_side, fraction);
        assert_eq!(a, b, "churn diverged between the two copies");
    }

    /// Runs `pauses` GC pauses with `churn_fraction` mutation between
    /// them, returning every pause's measurements.
    pub fn run_pauses(
        &mut self,
        mem_kind: MemKind,
        pauses: usize,
        churn_fraction: f64,
    ) -> Vec<PauseResult> {
        let mut out = Vec::with_capacity(pauses);
        for i in 0..pauses {
            out.push(self.run_pause(mem_kind));
            if i + 1 < pauses {
                self.churn(churn_fraction);
            }
        }
        out
    }
}

/// How the driver recovered from a trapped mark: the architected state
/// drained from the frozen traversal unit and the cost of finishing the
/// mark in software.
#[derive(Debug, Clone, Copy)]
pub struct FallbackInfo {
    /// The trap that froze the unit.
    pub trap: Trap,
    /// Pending reference words drained from the unit's queues.
    pub drained: usize,
    /// Cycles the CPU's software-fallback mark took.
    pub cycles: Cycle,
}

/// Result of a unit-only collection (for experiments that need access
/// to the unit's internal statistics).
#[derive(Debug)]
pub struct UnitRun {
    /// The collection report.
    pub report: tracegc_hwgc::GcReport,
    /// Memory statistics.
    pub snapshot: MemSnapshot,
    /// The unit itself (access counts, cache stats).
    pub unit: GcUnit,
    /// The workload after collection.
    pub workload: WorkloadHeap,
    /// Merged fault-injector counters over all sites (all-zero for
    /// clean runs).
    pub fault_stats: FaultStats,
    /// `Some` when the mark trapped and the CPU finished it in software
    /// before the unit swept.
    pub fallback: Option<FallbackInfo>,
}

/// Runs a single accelerator-only collection on a fresh workload.
pub fn run_unit_gc(
    spec: &BenchSpec,
    layout: LayoutKind,
    cfg: GcUnitConfig,
    mem_kind: MemKind,
) -> UnitRun {
    run_unit_gc_faulted(spec, layout, cfg, mem_kind, false, None)
}

/// Like [`run_unit_gc`], optionally mapping the heap with 2 MiB
/// superpages (the §VII `ablE` ablation) and injecting faults from
/// `fault`.
///
/// The degradation protocol mirrors what the driver would do: a trapped
/// mark leaves the unit frozen; the driver drains its architected state,
/// finishes the mark with the software collector on recovered memory,
/// and only then lets the unit sweep.
///
/// # Panics
///
/// Panics if the mark errors *without* latching a trap — injected
/// faults always trap, so that would be a simulator bug, not an
/// injected fault.
pub fn run_unit_gc_faulted(
    spec: &BenchSpec,
    layout: LayoutKind,
    cfg: GcUnitConfig,
    mem_kind: MemKind,
    superpages: bool,
    fault: Option<FaultConfig>,
) -> UnitRun {
    let mut workload = tracegc_workloads::generate::generate_heap_opts(spec, layout, superpages);
    let mut mem = mem_kind.fresh();
    let mut unit = GcUnit::new(cfg, &mut workload.heap);

    let plan = fault.filter(|f| f.is_active()).map(FaultPlan::new);
    if let Some(plan) = &plan {
        mem.set_fault_injector(plan.injector(FaultSite::Mem));
        unit.install_fault_plan(plan);
    }

    let mut fault_stats = FaultStats::default();
    let mut fallback = None;
    let report = match unit.try_run_gc_at(&mut workload.heap, &mut mem, 0) {
        Ok(report) => report,
        Err(e) => {
            let trap = unit
                .traversal()
                .trap()
                .unwrap_or_else(|| panic!("mark failed without a trap: {e}"));
            let mark = unit.traversal().result_at(0, trap.at);
            let (info, _) = fall_back_to_software(
                trap,
                unit.traversal_mut(),
                &mut workload.heap,
                &mut mem,
                &mut fault_stats,
            );
            check_marks_match_reachability(&workload.heap)
                .expect("software fallback must complete the mark exactly");
            let marked_total = workload.heap.marked_set().len() as u64;
            let sweep = unit.sweep_after_fallback(
                &mut workload.heap,
                &mut mem,
                trap.at + info.cycles,
                marked_total,
            );
            fallback = Some(info);
            tracegc_hwgc::GcReport { mark, sweep }
        }
    };
    merge_fault_stats(&mut fault_stats, &mut mem, unit.traversal());

    UnitRun {
        report,
        snapshot: MemSnapshot::capture(&mem),
        unit,
        workload,
        fault_stats,
        fallback,
    }
}

/// The driver's trap-recovery protocol, shared by every faulted run:
/// drains the frozen unit's architected state (the mark bitmap is
/// already in the heap; pending reference words come out of the
/// queues), clears any unrecoverable fault the trap left latched in
/// the memory system, detaches its injector (folding the counters into
/// `stats`) so recovery runs on recovered memory, and finishes the mark
/// with the software collector from the trap cycle. Returns the
/// fallback record and the collector's cycle attribution.
fn fall_back_to_software(
    trap: Trap,
    unit: &mut TraversalUnit,
    heap: &mut Heap,
    mem: &mut MemSystem,
    stats: &mut FaultStats,
) -> (FallbackInfo, StallAccounting) {
    let pending = unit.drain_architected_state(heap);
    let _ = mem.take_fault();
    if let Some(inj) = mem.take_fault_injector() {
        stats.merge(inj.stats());
    }
    let mut cpu = Cpu::new(CpuConfig::default(), heap);
    cpu.advance_to(trap.at);
    let fb = cpu.resume_mark_from(heap, mem, &pending);
    let info = FallbackInfo {
        trap,
        drained: pending.len(),
        cycles: fb.cycles,
    };
    (info, fb.stalls)
}

/// Folds the injector counters still attached after a run — the memory
/// system's (unless a fallback already detached it), the marker
/// datapath's and the page-table walker's — into `stats`.
fn merge_fault_stats(stats: &mut FaultStats, mem: &mut MemSystem, unit: &TraversalUnit) {
    if let Some(inj) = mem.take_fault_injector() {
        stats.merge(inj.stats());
    }
    if let Some(s) = unit.fault_stats() {
        stats.merge(s);
    }
    if let Some(s) = unit.ptw_fault_stats() {
        stats.merge(s);
    }
}

/// How one fault-injected mark-only run ended.
#[derive(Debug, Clone)]
pub enum MarkOutcome {
    /// The unit completed the mark despite (or without) injected
    /// faults — retries and ECC correction absorbed everything.
    Clean,
    /// The unit trapped and the software fallback completed the mark.
    Fallback(FallbackInfo),
    /// The mark errored without a recoverable trap.
    Failed(SimError),
}

/// Result of [`run_faulted_mark`]: one mark pass under fault injection,
/// degraded to software where necessary.
#[derive(Debug)]
pub struct FaultedMarkRun {
    /// How the run ended.
    pub outcome: MarkOutcome,
    /// Cycles the hardware spent (full mark when clean, up to the trap
    /// otherwise).
    pub unit_cycles: Cycle,
    /// Cycles the software fallback spent (0 when clean).
    pub fallback_cycles: Cycle,
    /// Objects carrying a mark when the pass finished.
    pub objects_marked: u64,
    /// Merged fault-injector counters over all sites.
    pub stats: FaultStats,
    /// Unit-side cycle attribution (the full mark when clean, up to the
    /// freeze when trapped).
    pub unit_stalls: StallAccounting,
    /// Software-fallback cycle attribution (all-zero when clean).
    pub fallback_stalls: StallAccounting,
}

impl FaultedMarkRun {
    /// Total mark cycles, hardware plus fallback.
    pub fn total_cycles(&self) -> Cycle {
        self.unit_cycles + self.fallback_cycles
    }
}

/// Runs one traversal-only pass under fault injection and, if the unit
/// traps, completes the mark with the software fallback. Every run
/// that does not fail is differentially checked: the final mark set
/// must match reachability exactly, whichever path produced it.
pub fn run_faulted_mark(
    spec: &BenchSpec,
    layout: LayoutKind,
    cfg: GcUnitConfig,
    mem_kind: MemKind,
    fault: FaultConfig,
) -> FaultedMarkRun {
    faulted_mark(
        &mut generate_heap(spec, layout).heap,
        cfg,
        mem_kind,
        Some(fault),
    )
}

/// Like [`run_faulted_mark`], over a *streamed* workload (the fleet's
/// tenant heaps), with the configured per-request budget
/// (`cfg.mark_budget`) / throttle (`cfg.min_issue_interval`) and
/// optional fault injection; any trap — including
/// [`TrapKind::RequestTimeout`](tracegc_hwgc::TrapKind::RequestTimeout)
/// — degrades to the software fallback.
pub fn run_faulted_mark_stream(
    spec: &tracegc_workloads::StreamSpec,
    layout: LayoutKind,
    cfg: GcUnitConfig,
    mem_kind: MemKind,
    fault: Option<FaultConfig>,
) -> FaultedMarkRun {
    let heap = &mut tracegc_workloads::generate_streamed(spec, layout).heap;
    faulted_mark(heap, cfg, mem_kind, fault)
}

/// The mark driver behind [`run_faulted_mark`] and
/// [`run_faulted_mark_stream`], over an already generated `heap`.
fn faulted_mark(
    heap: &mut Heap,
    cfg: GcUnitConfig,
    mem_kind: MemKind,
    fault: Option<FaultConfig>,
) -> FaultedMarkRun {
    let mut mem = mem_kind.fresh();
    let mut unit = TraversalUnit::new(cfg, heap);

    let plan = fault.filter(|f| f.is_active()).map(FaultPlan::new);
    if let Some(plan) = &plan {
        mem.set_fault_injector(plan.injector(FaultSite::Mem));
        unit.install_fault_plan(plan);
    }

    let mut stats = FaultStats::default();
    let mut fallback_stalls = StallAccounting::default();
    let (outcome, unit_cycles, fallback_cycles) = match unit.try_run_mark(heap, &mut mem, 0) {
        Ok(res) => (MarkOutcome::Clean, res.cycles(), 0),
        Err(e) => match unit.trap() {
            Some(trap) => {
                let (info, stalls) =
                    fall_back_to_software(trap, &mut unit, heap, &mut mem, &mut stats);
                fallback_stalls = stalls;
                (MarkOutcome::Fallback(info), trap.at, info.cycles)
            }
            None => (MarkOutcome::Failed(e), 0, 0),
        },
    };
    merge_fault_stats(&mut stats, &mut mem, &unit);

    if !matches!(outcome, MarkOutcome::Failed(_)) {
        check_marks_match_reachability(heap)
            .expect("fault-injected mark must agree with reachability");
    }

    FaultedMarkRun {
        outcome,
        unit_cycles,
        fallback_cycles,
        objects_marked: heap.marked_set().len() as u64,
        stats,
        unit_stalls: *unit.stalls(),
        fallback_stalls,
    }
}

/// Result of a CPU-only collection.
#[derive(Debug)]
pub struct CpuRun {
    /// Mark-phase result.
    pub mark: tracegc_cpu::PhaseResult,
    /// Sweep-phase result.
    pub sweep: tracegc_cpu::PhaseResult,
    /// Memory statistics.
    pub snapshot: MemSnapshot,
    /// The workload after collection.
    pub workload: WorkloadHeap,
}

/// Runs a single software-collector-only collection on a fresh workload.
pub fn run_cpu_gc(spec: &BenchSpec, layout: LayoutKind, mem_kind: MemKind) -> CpuRun {
    let mut workload = generate_heap(spec, layout);
    let mut mem = mem_kind.fresh();
    let mut cpu = Cpu::new(CpuConfig::default(), &mut workload.heap);
    let mark = cpu.run_mark(&mut workload.heap, &mut mem);
    let sweep = cpu.run_sweep(&mut workload.heap, &mut mem);
    CpuRun {
        mark,
        sweep,
        snapshot: MemSnapshot::capture(&mem),
        workload,
    }
}

/// Result of a unit collection over a *streamed* workload — heaps too
/// large to keep an all-objects vector for, so the run carries the
/// generator's bookkeeping instead of the workload itself.
#[derive(Debug)]
pub struct StreamRun {
    /// The collection report.
    pub report: tracegc_hwgc::GcReport,
    /// Memory statistics.
    pub snapshot: MemSnapshot,
    /// Objects reachable from the roots at generation time.
    pub live_objects: u64,
    /// Generation bookkeeping (allocations, recycling sweeps, peak
    /// generator footprint).
    pub gen_stats: tracegc_workloads::GenStats,
    /// Host bytes actually backing the simulated physical memory after
    /// the collection (sparse chunks that were ever written).
    pub resident_bytes: u64,
    /// Simulated physical memory size in bytes.
    pub phys_bytes: u64,
}

/// Runs a single accelerator-only collection on a freshly streamed
/// workload, asserting the unit marks exactly the generation-time live
/// set (every streamed shape keeps all LOS objects reachable, so the
/// LOS-always-live sweep convention cannot skew the count).
pub fn run_unit_gc_stream(
    spec: &tracegc_workloads::StreamSpec,
    layout: LayoutKind,
    cfg: GcUnitConfig,
    mem_kind: MemKind,
) -> StreamRun {
    let mut streamed = tracegc_workloads::generate_streamed(spec, layout);
    let mut mem = mem_kind.fresh();
    let mut unit = GcUnit::new(cfg, &mut streamed.heap);
    let report = unit.run_gc(&mut streamed.heap, &mut mem);
    assert_eq!(
        report.mark.objects_marked, streamed.live_objects as u64,
        "unit marked a different live set than the streamed generator built ({})",
        spec.name
    );
    StreamRun {
        report,
        snapshot: MemSnapshot::capture(&mem),
        live_objects: streamed.live_objects as u64,
        gen_stats: streamed.stats,
        resident_bytes: streamed.heap.phys.resident_bytes(),
        phys_bytes: streamed.heap.phys.size_bytes(),
    }
}

/// Geometric mean of a slice (1.0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_workloads::spec::by_name;

    fn quick_spec() -> BenchSpec {
        by_name("avrora").unwrap().scaled(0.01)
    }

    #[test]
    fn paired_pause_agrees_and_unit_wins_mark() {
        let mut run = DualRun::new(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
        );
        let p = run.run_pause(MemKind::ddr3_default());
        assert!(p.objects_marked > 0);
        assert!(p.mark_speedup() > 1.0, "speedup {}", p.mark_speedup());
    }

    #[test]
    fn multi_pause_with_churn_stays_consistent() {
        let mut run = DualRun::new(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
        );
        let pauses = run.run_pauses(MemKind::ddr3_default(), 3, 0.15);
        assert_eq!(pauses.len(), 3);
        // Later pauses should find garbage created by churn.
        assert!(pauses[1].cells_freed > 0 || pauses[2].cells_freed > 0);
    }

    #[test]
    fn pipe_memory_works_too() {
        let mut run = DualRun::new(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
        );
        let p = run.run_pause(MemKind::pipe_8gbps());
        assert!(p.unit_mem.activates.is_none());
        assert!(p.mark_speedup() > 1.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn faulted_unit_gc_degrades_to_software_and_still_sweeps() {
        let fault = FaultConfig {
            seed: 7,
            corrupt_ref_rate: 0.05,
            ..Default::default()
        };
        let run = run_unit_gc_faulted(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
            MemKind::ddr3_default(),
            false,
            Some(fault),
        );
        let fb = run.fallback.expect("a 5% corruption rate must trap");
        assert!(fb.cycles > 0, "fallback must cost cycles");
        assert!(run.fault_stats.corrupted_refs > 0);
        // The clean reference run frees the same cells: degradation
        // changes timing, never the collected set.
        let clean = run_unit_gc(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
            MemKind::ddr3_default(),
        );
        assert_eq!(run.report.sweep.cells_freed, clean.report.sweep.cells_freed);
        assert!(
            run.workload.heap.marked_set().is_empty(),
            "sweep clears marks"
        );
        tracegc_heap::verify::check_free_lists(&run.workload.heap).unwrap();
    }

    #[test]
    fn clean_unit_gc_reports_zero_fault_stats() {
        let run = run_unit_gc(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
            MemKind::ddr3_default(),
        );
        assert_eq!(run.fault_stats, FaultStats::default());
        assert!(run.fallback.is_none());
    }

    #[test]
    fn faulted_mark_outcomes_are_differentially_checked() {
        // Zero rates: clean, no injector attached.
        let clean = run_faulted_mark(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
            MemKind::ddr3_default(),
            FaultConfig::zero_rates(1),
        );
        assert!(matches!(clean.outcome, MarkOutcome::Clean));
        assert_eq!(clean.fallback_cycles, 0);
        assert_eq!(clean.stats, FaultStats::default());

        // An aggressive rate: must trap and fall back; the oracle
        // inside run_faulted_mark already pinned mark == reachability.
        let faulted = run_faulted_mark(
            &quick_spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
            MemKind::ddr3_default(),
            FaultConfig {
                seed: 13,
                corrupt_ref_rate: 0.05,
                ..Default::default()
            },
        );
        assert!(matches!(faulted.outcome, MarkOutcome::Fallback(_)));
        assert!(faulted.fallback_cycles > 0);
        assert_eq!(faulted.objects_marked, clean.objects_marked);
        assert!(faulted.total_cycles() >= faulted.unit_cycles);
    }
}
