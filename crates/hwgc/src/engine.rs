//! Scheduled-engine adapters for the accelerator: the traversal unit as
//! a [`MarkEngine`] and the concurrent-mutator model as a
//! [`MutatorEngine`].
//!
//! Both implement [`tracegc_sim::sched::Engine`] over the concrete
//! [`SocCtx`], so any mix of them (plus the reclamation unit's
//! [`SweepEngine`](crate::reclaim::SweepEngine)) can share one clock
//! and one memory system under a
//! [`Scheduler`](tracegc_sim::sched::Scheduler). Every `try_run_*`
//! driver in this crate is a thin driver over these adapters;
//! `tests/engine_equivalence.rs` pins their cycle counts and stall
//! ledgers to golden fingerprints.

use tracegc_heap::layout::HEADER_MARK_BIT;
use tracegc_heap::{ObjRef, SocCtx};
use tracegc_sim::rng::{Rng, StdRng};
use tracegc_sim::sched::{Engine, Progress};
use tracegc_sim::{Cycle, StallAccounting, StallReason};

use crate::barrier::{BarrierModel, BarrierStats};
use crate::concurrent::MutatorConfig;
use crate::traversal::TraversalUnit;

/// The traversal unit as a scheduled engine over `heaps[heap_idx]`.
///
/// The caller must have called [`TraversalUnit::begin`] for the pass
/// before scheduling. The engine drains the heap's [`SocCtx`] mailbox
/// into the unit's injection queue at the top of every step, so a
/// mutator engine scheduled *earlier in the same cycle* has its
/// write-barrier references observed in that same cycle.
///
/// Scheduler charges are routed into the unit's own per-pass ledger
/// ([`TraversalUnit::charge_busy`] / [`TraversalUnit::charge_stall`]),
/// keeping `busy + Σ stalls == pass cycles` for any scheduling policy.
///
/// The memory system's fault latch is shared by every engine on the
/// [`SocCtx`]: the first unit stepped after a fault is latched takes
/// it as its trap, whichever unit's request faulted. A unit sleeping
/// under fast-forward therefore reports a latched fault, like a
/// non-empty mailbox, through [`Engine::has_input`], so it is stepped
/// in the same service round as under lockstep. The multi-unit pacing
/// wall in `tests/engine_equivalence.rs` checks fast-forward against
/// lockstep, not which unit a fault is charged to.
#[derive(Debug)]
pub struct MarkEngine<'a> {
    unit: &'a mut TraversalUnit,
    heap_idx: usize,
    /// Wake-up hint covering the memory system's fault latch: the unit
    /// polls the latch at the top of each step, so a fault latched by
    /// an access *during* this step becomes a trap exactly one cycle
    /// later — an imminent state change the unit's own `next_event`
    /// cannot see. Without this hint the fast-forward scheduler could
    /// hop past the trap cycle and observe it late.
    fault_wake: Option<Cycle>,
}

impl<'a> MarkEngine<'a> {
    /// Wraps `unit` (already `begin`-ed) marking `heaps[heap_idx]`.
    pub fn new(unit: &'a mut TraversalUnit, heap_idx: usize) -> Self {
        Self {
            unit,
            heap_idx,
            fault_wake: None,
        }
    }

    /// The wrapped unit's heap index within the [`SocCtx`].
    pub fn heap_idx(&self) -> usize {
        self.heap_idx
    }
}

impl<'a, 'c> Engine<SocCtx<'c>> for MarkEngine<'a> {
    fn name(&self) -> &'static str {
        "traversal"
    }

    fn label(&self) -> String {
        format!("traversal[heap {}]", self.heap_idx)
    }

    fn step(&mut self, now: Cycle, ctx: &mut SocCtx<'c>) -> Progress {
        let SocCtx {
            mem,
            heaps,
            mailboxes,
        } = ctx;
        for va in mailboxes[self.heap_idx].drain(..) {
            self.unit.inject_reference(va);
        }
        let progress = self.unit.step(now, &mut *heaps[self.heap_idx], mem);
        self.fault_wake = mem.pending_fault().map(|_| now + 1);
        if self.unit.is_complete() {
            Progress::Done
        } else if progress {
            Progress::Advanced
        } else {
            Progress::Stalled
        }
    }

    fn next_event_at(&self) -> Option<Cycle> {
        match (self.unit.next_event_at(), self.fault_wake) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Barrier references waiting in the heap's mailbox, or a fault
    /// latched by any engine's request: both are consumed at the top of
    /// the next step.
    fn has_input(&self, ctx: &SocCtx<'c>) -> bool {
        !ctx.mailboxes[self.heap_idx].is_empty() || ctx.mem.pending_fault().is_some()
    }

    fn stall_reason(&self, now: Cycle) -> StallReason {
        self.unit.stall_reason(now)
    }

    fn note_busy(&mut self, n: u64) {
        self.unit.charge_busy(n);
    }

    fn note_stall(&mut self, now: Cycle, reason: StallReason, span: u64) {
        self.unit.charge_stall(now, reason, span);
    }

    fn ledger(&self) -> Option<StallAccounting> {
        Some(*self.unit.stalls())
    }
}

/// The SATB concurrent-mutator model as a background engine (§IV-D).
///
/// Executes heap operations at the configured rate over the working set
/// live at collection start: reads, reference overwrites (each
/// write-barriered, publishing the old value into the heap's mailbox for
/// the collector engine to mark) and black allocations. Always reports
/// [`Progress::Stalled`] — the mutator paces the clock via
/// `next_event_at` but never gates completion
/// ([`Engine::is_background`]).
///
/// Schedule it *before* the heap's [`MarkEngine`] so barrier references
/// published at cycle `t` enter the unit's mark queue at `t`.
#[derive(Debug)]
pub struct MutatorEngine {
    cfg: MutatorConfig,
    heap_idx: usize,
    rng: StdRng,
    barriers: BarrierModel,
    working_set: Vec<ObjRef>,
    next_op: Cycle,
    ops: u64,
    allocated: u64,
}

impl MutatorEngine {
    /// A mutator over `heaps[heap_idx]`, mutating `working_set` (the
    /// objects live at collection start) from cycle `start`.
    pub fn new(
        cfg: MutatorConfig,
        heap_idx: usize,
        working_set: Vec<ObjRef>,
        start: Cycle,
    ) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            barriers: BarrierModel::new(Default::default()),
            next_op: start + cfg.cycles_per_op,
            cfg,
            heap_idx,
            working_set,
            ops: 0,
            allocated: 0,
        }
    }

    /// Heap operations executed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Objects allocated (black) so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Write-barrier statistics so far.
    pub fn barrier_stats(&self) -> BarrierStats {
        self.barriers.stats()
    }
}

impl<'c> Engine<SocCtx<'c>> for MutatorEngine {
    fn name(&self) -> &'static str {
        "mutator"
    }

    fn label(&self) -> String {
        format!("mutator[heap {}]", self.heap_idx)
    }

    fn step(&mut self, now: Cycle, ctx: &mut SocCtx<'c>) -> Progress {
        let SocCtx {
            heaps, mailboxes, ..
        } = ctx;
        let heap = &mut *heaps[self.heap_idx];
        if self.working_set.is_empty() {
            // Nothing to mutate: keep the op clock ticking anyway so
            // the reported next event stays honest (strictly future)
            // instead of going stale and pinning the scheduler to a
            // one-cycle crawl.
            while self.next_op <= now {
                self.next_op += self.cfg.cycles_per_op.max(1);
            }
            return Progress::Stalled;
        }
        while self.next_op <= now && !self.working_set.is_empty() {
            self.ops += 1;
            self.next_op += self.cfg.cycles_per_op;
            let victim = self.working_set[self.rng.random_range(0..self.working_set.len())];
            let slots = heap.nrefs(victim);
            if slots == 0 {
                continue;
            }
            let slot = self.rng.random_range(0..slots);
            if self.rng.random::<f64>() < self.cfg.write_fraction {
                // Overwrite: the write barrier publishes the old value
                // so the collector cannot lose it (Fig. 3).
                let old = heap.get_ref(victim, slot);
                if let Some(old) = self.barriers.write_barrier(old) {
                    mailboxes[self.heap_idx].push(old.addr());
                }
                let target = if self.rng.random::<f64>() < self.cfg.alloc_fraction {
                    // Allocate black: new objects are marked at birth.
                    match heap.alloc(
                        self.rng.random_range(0..3),
                        self.rng.random_range(0..4),
                        false,
                    ) {
                        Ok(obj) => {
                            let pa = heap.va_to_pa(obj.addr());
                            heap.phys.fetch_or_u64(pa, HEADER_MARK_BIT);
                            self.allocated += 1;
                            self.working_set.push(obj);
                            Some(obj)
                        }
                        Err(_) => None,
                    }
                } else {
                    Some(self.working_set[self.rng.random_range(0..self.working_set.len())])
                };
                heap.set_ref(victim, slot, target);
            } else {
                // Read: loads the reference (a read barrier would check
                // relocation here; marking-only concurrent GC needs none).
                let _ = heap.get_ref(victim, slot);
            }
        }
        Progress::Stalled
    }

    fn next_event_at(&self) -> Option<Cycle> {
        Some(self.next_op)
    }

    fn is_background(&self) -> bool {
        true
    }
}
