//! Multi-process collection (§VII "Supporting multiple applications").
//!
//! "Our current design only supports one process at a time, but the same
//! unit could perform GC for multiple processes simultaneously, by
//! tagging references by process and supporting multiple page tables."
//!
//! The model: per-process *contexts* on one memory system. Each context
//! carries its own page table, TLBs and queues (the tag bits of the
//! paper's design select among them). The scheduler [`Policy`] chooses
//! the datapath: [`Policy::RoundRobin`] time-multiplexes one shared
//! datapath and its single TileLink port across the contexts, so
//! concurrent collections overlap their memory latencies while sharing
//! issue bandwidth; [`Policy::Lockstep`] gives every context a datapath
//! of its own (N replicated units), so they share only the memory
//! system.

use tracegc_heap::{Heap, SocCtx};
use tracegc_mem::MemSystem;
use tracegc_sim::sched::{Engine, Policy, Scheduler};
use tracegc_sim::{Cycle, SimError};

use crate::engine::MarkEngine;
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

/// Marks every process's heap on one memory system under `policy`.
/// Returns per-process results.
///
/// A thin driver: each context becomes a [`MarkEngine`] on one
/// [`Scheduler`]. Under [`Policy::RoundRobin`] one shared datapath
/// serves one context per cycle, charging per-process stall ledgers:
/// the served context's bottleneck on its slot,
/// [`PortBusy`](tracegc_sim::StallReason::PortBusy) on cycles the
/// datapath served someone else. Under [`Policy::Lockstep`] every
/// context has a datapath of its own and is stepped every cycle. With
/// one process either policy degenerates to
/// [`TraversalUnit::try_run_mark`] cycle- and ledger-exactly (proven
/// here and in `tests/engine_equivalence.rs`).
///
/// # Errors
///
/// The first trap in any context (contexts are polled in order)
/// surfaces as a [`SimError`], with that context's unit frozen in its
/// architected state. A fault the memory system latched on the pass's
/// final access is folded into the first context's trap register (the
/// first cause wins). A context set that can never advance trips the
/// scheduler's no-progress watchdog as [`SimError::Deadlock`], with a
/// per-engine stall-reason and ledger dump.
///
/// # Panics
///
/// Panics on an empty context list.
pub fn try_run_multiprocess_mark(
    procs: &mut [ProcessContext],
    mem: &mut MemSystem,
    policy: Policy,
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
        Scheduler::new(policy)
            .try_run(&mut dyns, &mut ctx, start)?
            .ends
    };
    let per_process = procs
        .iter_mut()
        .zip(&ends)
        .map(|(p, &end)| p.unit.finish_pass(mem, start, end))
        .collect::<Result<_, _>>()?;
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
        let report =
            try_run_multiprocess_mark(&mut procs, &mut mem, Policy::RoundRobin, 0).unwrap();
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
            try_run_multiprocess_mark(&mut procs, &mut mem, Policy::RoundRobin, 0)
                .unwrap()
                .end
        };
        let duo = {
            let mut procs = vec![context(2000, 9), context(2000, 9)];
            let mut mem = MemSystem::ddr3(Default::default());
            try_run_multiprocess_mark(&mut procs, &mut mem, Policy::RoundRobin, 0)
                .unwrap()
                .end
        };
        assert!(duo > solo, "sharing cannot be free: {duo} vs {solo}");
        assert!(
            duo <= solo * 2 + solo / 10,
            "time-multiplexing should cost at most ~serial: {duo} vs 2x{solo}"
        );
    }

    #[test]
    fn single_process_matches_plain_run_mark() {
        let plain = {
            let mut heap = build_heap(1200, 4);
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            let mut mem = MemSystem::ddr3(Default::default());
            unit.try_run_mark(&mut heap, &mut mem, 0).unwrap()
        };
        // One context is served every cycle under either datapath model.
        for policy in [Policy::RoundRobin, Policy::Lockstep] {
            let mut procs = vec![context(1200, 4)];
            let mut mem = MemSystem::ddr3(Default::default());
            let r = try_run_multiprocess_mark(&mut procs, &mut mem, policy.clone(), 0).unwrap();
            assert_eq!(r.end, plain.end, "{policy:?}");
            assert_eq!(
                format!("{:?}", r.per_process[0]),
                format!("{plain:?}"),
                "{policy:?}"
            );
        }
    }

    /// The lockstep reference built by hand: one [`MarkEngine`] per
    /// context on one [`Scheduler`] over one memory system, each result
    /// read at that engine's completion cycle.
    fn hand_built_lockstep(
        procs: &mut [ProcessContext],
        mem: &mut MemSystem,
    ) -> (Cycle, Vec<TraversalResult>) {
        for p in procs.iter_mut() {
            p.unit.begin(&p.heap, 0);
        }
        let (heaps, mut engines): (Vec<&mut Heap>, Vec<MarkEngine>) = procs
            .iter_mut()
            .enumerate()
            .map(|(i, p)| (&mut p.heap, MarkEngine::new(&mut p.unit, i)))
            .unzip();
        let mut ctx = SocCtx::new(mem, heaps);
        let mut dyns: Vec<&mut dyn Engine<SocCtx>> = engines
            .iter_mut()
            .map(|e| e as &mut dyn Engine<SocCtx>)
            .collect();
        let report = Scheduler::new(Policy::Lockstep)
            .try_run(&mut dyns, &mut ctx, 0)
            .unwrap();
        let per_unit = procs
            .iter()
            .zip(&report.ends)
            .map(|(p, &end)| p.unit.result_at(0, end))
            .collect();
        (report.end, per_unit)
    }

    #[test]
    fn lockstep_matches_a_hand_built_engine_set() {
        for n in [2u64, 4] {
            // Distinct seeds and sizes, so the contexts finish apart.
            let contexts = || -> Vec<ProcessContext> {
                (0..n)
                    .map(|i| context(600 + 300 * i as usize, 10 * n + i))
                    .collect()
            };
            let mut procs = contexts();
            let mut mem = MemSystem::ddr3(Default::default());
            let report =
                try_run_multiprocess_mark(&mut procs, &mut mem, Policy::Lockstep, 0).unwrap();
            let (end, per_unit) =
                hand_built_lockstep(&mut contexts(), &mut MemSystem::ddr3(Default::default()));
            assert_eq!(report.end, end, "{n} contexts");
            for (i, (got, want)) in report.per_process.iter().zip(&per_unit).enumerate() {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{n} contexts, context {i}"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_process_sizes_finish_independently() {
        let mut procs = vec![context(3000, 5), context(300, 6)];
        let mut mem = MemSystem::ddr3(Default::default());
        let report =
            try_run_multiprocess_mark(&mut procs, &mut mem, Policy::RoundRobin, 0).unwrap();
        // The small process must finish well before the big one.
        assert!(report.per_process[1].end < report.per_process[0].end);
    }
}
