//! Multi-process collection (§VII "Supporting multiple applications").
//!
//! "Our current design only supports one process at a time, but the same
//! unit could perform GC for multiple processes simultaneously, by
//! tagging references by process and supporting multiple page tables."
//!
//! The model: one physical unit whose datapath is time-multiplexed
//! across per-process *contexts*. Each context carries its own page
//! table, TLBs and queues (the tag bits of the paper's design select
//! among them); the single TileLink port and the memory system are
//! shared, so concurrent collections overlap their memory latencies
//! while sharing issue bandwidth.

use tracegc_heap::{Heap, SocCtx};
use tracegc_mem::MemSystem;
use tracegc_sim::sched::{Engine, Policy, Scheduler};
use tracegc_sim::{Cycle, SimError};

use crate::engine::MarkEngine;
use crate::trap::Trap;
use crate::traversal::{TraversalResult, TraversalUnit};

/// One process's collection context: its heap and its view of the unit
/// (page table, TLBs, queues — what the paper's per-process tags select).
#[derive(Debug)]
pub struct ProcessContext {
    /// The per-process traversal state.
    pub unit: TraversalUnit,
    /// The process's heap.
    pub heap: Heap,
}

/// Outcome of a multi-process mark.
#[derive(Debug, Clone)]
pub struct MultiProcessReport {
    /// Per-process traversal results (same order as the contexts).
    pub per_process: Vec<TraversalResult>,
    /// Cycle the last process finished.
    pub end: Cycle,
}

impl MultiProcessReport {
    /// Total wall-clock cycles of the combined collection.
    pub fn total_cycles(&self, start: Cycle) -> Cycle {
        self.end - start
    }
}

/// Marks every process's heap on one shared unit, round-robining the
/// datapath cycle by cycle. Returns per-process results.
///
/// A thin driver: each context becomes a
/// [`MarkEngine`] and the
/// [`Scheduler`]'s round-robin policy reproduces the historical
/// tag-selected datapath multiplexing exactly (same `now % n` service
/// slot, same full-idle-round skip-ahead), while additionally charging
/// per-process stall ledgers: the served context's bottleneck on its
/// slot, [`PortBusy`](tracegc_sim::StallReason::PortBusy) on cycles the
/// datapath served someone else. With one process this degenerates to
/// [`TraversalUnit::run_mark`] cycle- and ledger-exactly (proven in
/// `tests/engine_equivalence.rs`).
///
/// # Panics
///
/// Panics on an empty context list, on a fault in any context, or — via
/// the scheduler's no-progress watchdog — with a per-engine
/// stall-reason and ledger dump if no context can ever advance. Use
/// [`try_run_multiprocess_mark`] to degrade gracefully.
pub fn run_multiprocess_mark(
    procs: &mut [ProcessContext],
    mem: &mut MemSystem,
    start: Cycle,
) -> MultiProcessReport {
    try_run_multiprocess_mark(procs, mem, start).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`run_multiprocess_mark`]: the first trap in any
/// context (contexts are polled in order) surfaces as a [`SimError`],
/// with that context's unit frozen in its architected state.
pub fn try_run_multiprocess_mark(
    procs: &mut [ProcessContext],
    mem: &mut MemSystem,
    start: Cycle,
) -> Result<MultiProcessReport, SimError> {
    assert!(!procs.is_empty(), "need at least one process");
    for p in procs.iter_mut() {
        p.unit.begin(&p.heap, start);
    }
    let ends = {
        let mut heaps = Vec::with_capacity(procs.len());
        let mut engines = Vec::with_capacity(procs.len());
        for (i, p) in procs.iter_mut().enumerate() {
            let ProcessContext { unit, heap } = p;
            heaps.push(&mut *heap);
            engines.push(MarkEngine::new(unit, i));
        }
        let mut ctx = SocCtx::new(mem, heaps);
        let mut dyns: Vec<&mut dyn Engine<SocCtx>> = engines
            .iter_mut()
            .map(|e| e as &mut dyn Engine<SocCtx>)
            .collect();
        Scheduler::new(Policy::RoundRobin)
            .try_run(&mut dyns, &mut ctx, start)?
            .ends
    };
    // A trap freezes its unit but ends the schedule normally; surface
    // the first one, plus any fault the memory system latched on the
    // final access of the pass.
    if let Some(e) = mem.take_fault() {
        return Err(Trap::from_sim_error(&e).into());
    }
    if let Some(t) = procs.iter().find_map(|p| p.unit.trap()) {
        return Err(t.into());
    }
    let per_process = procs
        .iter()
        .zip(&ends)
        .map(|(p, &end)| p.unit.result_at(start, end))
        .collect();
    Ok(MultiProcessReport {
        per_process,
        end: *ends.iter().max().expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcUnitConfig;
    use tracegc_heap::verify::check_marks_match_reachability;
    use tracegc_heap::{HeapConfig, ObjRef};
    use tracegc_mem::MemSystem;

    fn build_heap(n: usize, seed: u64) -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..n)
            .map(|i| h.alloc(2, (i % 3) as u32, false).unwrap())
            .collect();
        let live = n / 2;
        for i in 0..live {
            if 2 * i + 1 < live {
                h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
            }
            h.set_ref(
                objs[i],
                1,
                Some(objs[((i as u64 * 17 + seed) % live as u64) as usize]),
            );
        }
        h.set_roots(&[objs[0]]);
        h
    }

    fn context(n: usize, seed: u64) -> ProcessContext {
        let mut heap = build_heap(n, seed);
        let unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        ProcessContext { unit, heap }
    }

    #[test]
    fn every_process_marks_its_own_heap_correctly() {
        let mut procs = vec![context(1500, 1), context(1000, 2), context(500, 3)];
        let mut mem = MemSystem::ddr3(Default::default());
        let report = run_multiprocess_mark(&mut procs, &mut mem, 0);
        assert_eq!(report.per_process.len(), 3);
        for p in &procs {
            check_marks_match_reachability(&p.heap).unwrap();
        }
        // Every process marked a non-trivial set.
        for r in &report.per_process {
            assert!(r.objects_marked > 0);
        }
    }

    #[test]
    fn sharing_overlaps_latency_but_shares_bandwidth() {
        // Two identical processes on one unit finish in less than twice
        // the solo time (latency overlap), but later than solo (the
        // datapath is time-multiplexed).
        let solo = {
            let mut procs = vec![context(2000, 9)];
            let mut mem = MemSystem::ddr3(Default::default());
            run_multiprocess_mark(&mut procs, &mut mem, 0).end
        };
        let duo = {
            let mut procs = vec![context(2000, 9), context(2000, 9)];
            let mut mem = MemSystem::ddr3(Default::default());
            run_multiprocess_mark(&mut procs, &mut mem, 0).end
        };
        assert!(duo > solo, "sharing cannot be free: {duo} vs {solo}");
        assert!(
            duo <= solo * 2 + solo / 10,
            "time-multiplexing should cost at most ~serial: {duo} vs 2x{solo}"
        );
    }

    #[test]
    fn single_process_matches_plain_run_mark() {
        let marked_multi = {
            let mut procs = vec![context(1200, 4)];
            let mut mem = MemSystem::ddr3(Default::default());
            let r = run_multiprocess_mark(&mut procs, &mut mem, 0);
            r.per_process[0].objects_marked
        };
        let marked_plain = {
            let mut heap = build_heap(1200, 4);
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            let mut mem = MemSystem::ddr3(Default::default());
            unit.run_mark(&mut heap, &mut mem, 0).objects_marked
        };
        assert_eq!(marked_multi, marked_plain);
    }

    #[test]
    fn heterogeneous_process_sizes_finish_independently() {
        let mut procs = vec![context(3000, 5), context(300, 6)];
        let mut mem = MemSystem::ddr3(Default::default());
        let report = run_multiprocess_mark(&mut procs, &mut mem, 0);
        // The small process must finish well before the big one.
        assert!(report.per_process[1].end < report.per_process[0].end);
    }
}
