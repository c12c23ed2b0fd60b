//! Concurrent collection: the traversal unit marks while the mutator
//! keeps running (§IV-D).
//!
//! "Our design can be integrated into a concurrent GC without modifying
//! the CPU": the mutator's *write barrier* publishes every overwritten
//! reference into the root-communication region, and the traversal unit
//! feeds those references into its mark queue. This is
//! snapshot-at-the-beginning (SATB) marking: everything reachable when
//! the collection starts stays marked even if the mutator hides it
//! mid-trace (the Fig. 3 race), and objects allocated during the
//! collection are allocated marked ("black").
//!
//! The paper did not implement concurrent collection in its RTL
//! prototype; this module realizes the design it describes, driving the
//! cycle-stepped [`TraversalUnit`] interleaved with a modelled mutator,
//! and verifies the SATB safety invariant in its tests.

use tracegc_heap::{Heap, ObjRef, SocCtx};
use tracegc_mem::MemSystem;
use tracegc_sim::sched::{Policy, Scheduler};
use tracegc_sim::{Cycle, SimError};

use crate::engine::{MarkEngine, MutatorEngine};
use crate::trap::Trap;
use crate::traversal::{TraversalResult, TraversalUnit};

/// Mutator behaviour while the collector runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutatorConfig {
    /// Average cycles between two mutator heap operations.
    pub cycles_per_op: Cycle,
    /// Probability an operation overwrites a reference (vs reading).
    pub write_fraction: f64,
    /// Probability a write installs a *new* object (allocation) instead
    /// of redirecting to an existing one.
    pub alloc_fraction: f64,
    /// Seed for the mutator's choices.
    pub seed: u64,
}

impl Default for MutatorConfig {
    fn default() -> Self {
        Self {
            cycles_per_op: 40,
            write_fraction: 0.2,
            alloc_fraction: 0.3,
            seed: 7,
        }
    }
}

/// Outcome of a concurrent mark phase.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// The unit-side traversal result.
    pub traversal: TraversalResult,
    /// Mutator heap operations executed while marking ran.
    pub mutator_ops: u64,
    /// Write barriers taken (references published to the unit).
    pub write_barriers: u64,
    /// Objects allocated (black) during the collection.
    pub allocated_during_gc: u64,
    /// Total barrier cycles charged to the mutator.
    pub mutator_barrier_cycles: Cycle,
}

/// Runs a SATB concurrent mark: the unit steps cycle by cycle while the
/// mutator mutates the same heap, write-barriering every overwritten
/// reference into the unit.
///
/// Returns when the unit has drained (including all barrier-injected
/// references). On success, every object reachable at the *start* of
/// the collection and every object allocated during it carries a mark
/// bit — the SATB guarantee (verified in tests).
///
/// # Errors
///
/// A trap during the mark surfaces as a [`SimError`] with the unit
/// frozen in its architected state (recoverable via
/// [`TraversalUnit::drain_architected_state`]); a unit deadlock (a bug,
/// not a workload property) as [`SimError::Deadlock`].
pub fn try_run_concurrent_mark(
    unit: &mut TraversalUnit,
    heap: &mut Heap,
    mem: &mut MemSystem,
    mutator_cfg: MutatorConfig,
    start: Cycle,
) -> Result<ConcurrentReport, SimError> {
    // The mutator works over the objects live at collection start.
    let working_set: Vec<ObjRef> = heap.reachable_from_roots().into_iter().collect();
    unit.begin(heap, start);
    // The mutator is scheduled *before* the collector so barrier
    // references published at cycle `t` enter the mark queue at `t`;
    // as a background engine it paces the clock (via its next-op time)
    // without gating completion. Lockstep steps both every cycle; the
    // concurrent fingerprint in `tests/engine_equivalence.rs` pins the
    // interleaving.
    let mut mutator = MutatorEngine::new(mutator_cfg, 0, working_set, start);
    let end = {
        let mut mark = MarkEngine::new(unit, 0);
        let mut ctx = SocCtx::single(mem, heap);
        let report = Scheduler::new(Policy::Lockstep).try_run(
            &mut [&mut mutator, &mut mark],
            &mut ctx,
            start,
        )?;
        report.end
    };
    // A trap freezes the unit but ends the schedule normally (the
    // frozen engine reports done); surface it, plus any fault the
    // memory system latched on the final access.
    if let Some(e) = mem.take_fault() {
        return Err(Trap::from_sim_error(&e).into());
    }
    if let Some(t) = unit.trap() {
        return Err(t.into());
    }

    let stats = mutator.barrier_stats();
    Ok(ConcurrentReport {
        traversal: unit.result_at(start, end),
        mutator_ops: mutator.ops(),
        write_barriers: stats.writes,
        allocated_during_gc: mutator.allocated(),
        mutator_barrier_cycles: stats.cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcUnitConfig;
    use tracegc_heap::HeapConfig;

    fn build_heap(n: usize) -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 128 << 20,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..n)
            .map(|i| h.alloc(3, (i % 4) as u32, false).unwrap())
            .collect();
        let live = n * 2 / 3;
        for i in 0..live {
            if 2 * i + 1 < live {
                h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
            }
            if 2 * i + 2 < live {
                h.set_ref(objs[i], 1, Some(objs[2 * i + 2]));
            }
            h.set_ref(objs[i], 2, Some(objs[(i * 13 + 5) % live]));
        }
        h.set_roots(&[objs[0]]);
        h
    }

    #[test]
    fn satb_marks_everything_live_at_start() {
        let mut heap = build_heap(3000);
        let live_at_start = heap.reachable_from_roots();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        let report =
            try_run_concurrent_mark(&mut unit, &mut heap, &mut mem, MutatorConfig::default(), 0)
                .unwrap();
        assert!(report.mutator_ops > 0, "mutator should have run");
        // The SATB guarantee: nothing live at the snapshot is lost,
        // even though the mutator overwrote references mid-trace.
        let marked = heap.marked_set();
        for obj in &live_at_start {
            assert!(marked.contains(obj), "lost object {obj}");
        }
    }

    #[test]
    fn objects_allocated_during_gc_are_marked() {
        let mut heap = build_heap(1500);
        let before: std::collections::BTreeSet<_> = heap.iter_objects().into_iter().collect();
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        let report = try_run_concurrent_mark(
            &mut unit,
            &mut heap,
            &mut mem,
            MutatorConfig {
                write_fraction: 0.5,
                alloc_fraction: 0.8,
                ..MutatorConfig::default()
            },
            0,
        )
        .unwrap();
        assert!(report.allocated_during_gc > 0);
        let marked = heap.marked_set();
        for obj in heap.iter_objects() {
            if !before.contains(&obj) {
                assert!(marked.contains(&obj), "new object {obj} unmarked");
            }
        }
    }

    #[test]
    fn no_mutation_degenerates_to_stop_the_world() {
        let run_stw = || {
            let mut heap = build_heap(1200);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            unit.try_run_mark(&mut heap, &mut mem, 0)
                .unwrap()
                .objects_marked
        };
        let run_conc = || {
            let mut heap = build_heap(1200);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            try_run_concurrent_mark(
                &mut unit,
                &mut heap,
                &mut mem,
                MutatorConfig {
                    write_fraction: 0.0,
                    alloc_fraction: 0.0,
                    ..MutatorConfig::default()
                },
                0,
            )
            .unwrap()
            .traversal
            .objects_marked
        };
        assert_eq!(run_stw(), run_conc());
    }

    #[test]
    fn concurrent_marking_is_deterministic() {
        let run = || {
            let mut heap = build_heap(1500);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            let r = try_run_concurrent_mark(
                &mut unit,
                &mut heap,
                &mut mem,
                MutatorConfig::default(),
                0,
            )
            .unwrap();
            (r.traversal.end, r.mutator_ops, r.write_barriers)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn write_heavy_mutators_cost_more_barrier_cycles() {
        let run = |write_fraction| {
            let mut heap = build_heap(1500);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
            try_run_concurrent_mark(
                &mut unit,
                &mut heap,
                &mut mem,
                MutatorConfig {
                    write_fraction,
                    ..MutatorConfig::default()
                },
                0,
            )
            .unwrap()
            .mutator_barrier_cycles
        };
        assert!(run(0.5) > run(0.05));
    }
}
