//! Concurrent-GC barrier models (§IV-D).
//!
//! The paper proposes barriers that "hijack" the coherence protocol so
//! neither the fast nor the slow path redirects the instruction stream:
//!
//! * **Write barrier** — an overwritten reference is written into the
//!   same memory region used to communicate roots; the traversal unit
//!   picks it up from there. Cost: one extra store (usually an L1 hit).
//! * **Read barrier** — one virtual-address bit is flipped and loaded.
//!   Unrelocated pages map to a shared zero page, so the load returns 0
//!   and `new = old + 0` (fast path, an extra L1-hit load plus an add).
//!   Pages being relocated map to the Reclamation Unit's physical range;
//!   the first access to each cache line pays a coherence acquire from
//!   the unit, which answers with per-object deltas; later accesses hit
//!   in the local cache (Fig. 9).
//!
//! These were not implemented in the paper's RTL prototype either — they
//! are the design §IV-D argues for — so this module is a functional +
//! cost model, exercised by the `ablD` ablation and the
//! `concurrent_barriers` example.

use std::collections::{HashMap, HashSet};

use tracegc_heap::ObjRef;
use tracegc_sim::Cycle;
use tracegc_vmem::PAGE_SIZE;

/// Cycle costs of the barrier fast/slow paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCosts {
    /// Fast path: the zero-page load hits in the L1 plus one add.
    pub read_fast: Cycle,
    /// Slow path: a coherence acquire of the delta line from the
    /// reclamation unit across the interconnect.
    pub read_slow_acquire: Cycle,
    /// Subsequent slow-path hits on an already-acquired line.
    pub read_slow_hit: Cycle,
    /// Write barrier: one store into the root-communication region.
    pub write: Cycle,
    /// A trap-based read barrier for comparison (pipeline flush +
    /// handler), the cost the coherence trick avoids.
    pub trap: Cycle,
}

impl Default for BarrierCosts {
    fn default() -> Self {
        Self {
            read_fast: 3,
            read_slow_acquire: 120,
            read_slow_hit: 3,
            write: 2,
            trap: 400,
        }
    }
}

/// Barrier activity statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Read barriers taking the fast (unrelocated) path.
    pub read_fast: u64,
    /// Read barriers that paid a line acquire.
    pub read_slow_acquire: u64,
    /// Read barriers hitting an already-acquired delta line.
    pub read_slow_hit: u64,
    /// Write barriers executed.
    pub writes: u64,
    /// Total barrier cycles charged.
    pub cycles: Cycle,
}

/// The relocation state the read barrier consults: which pages are being
/// relocated and where each of their objects moved.
#[derive(Debug, Default)]
pub struct ForwardingState {
    /// Pages under relocation (VA page numbers).
    relocated_pages: HashSet<u64>,
    /// old header VA → new header VA.
    forwarding: HashMap<u64, u64>,
    /// Delta cache lines already acquired by the CPU.
    acquired_lines: HashSet<u64>,
}

impl ForwardingState {
    /// Creates an empty state (no relocation in progress).
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins relocating the page containing `page_va`; `moves` maps old
    /// object addresses to new ones.
    ///
    /// # Panics
    ///
    /// Panics if a moved object is not on the page.
    pub fn relocate_page(&mut self, page_va: u64, moves: &[(ObjRef, ObjRef)]) {
        let page = page_va / PAGE_SIZE;
        self.relocated_pages.insert(page);
        for &(old, new) in moves {
            assert_eq!(old.addr() / PAGE_SIZE, page, "object not on the page");
            self.forwarding.insert(old.addr(), new.addr());
        }
        // New relocation invalidates previously acquired delta lines for
        // this page.
        self.acquired_lines.retain(|&line| line / PAGE_SIZE != page);
    }

    /// Finishes relocating a page (all references fixed up).
    pub fn finish_page(&mut self, page_va: u64) {
        let page = page_va / PAGE_SIZE;
        self.relocated_pages.remove(&page);
        self.forwarding.retain(|&old, _| old / PAGE_SIZE != page);
        self.acquired_lines.retain(|&line| line / PAGE_SIZE != page);
    }

    /// Whether the page containing `va` is currently being relocated.
    pub fn is_relocating(&self, va: u64) -> bool {
        self.relocated_pages.contains(&(va / PAGE_SIZE))
    }
}

/// The barrier execution model a mutator thread uses.
#[derive(Debug)]
pub struct BarrierModel {
    costs: BarrierCosts,
    stats: BarrierStats,
}

impl BarrierModel {
    /// Creates the model with the given cost table.
    pub fn new(costs: BarrierCosts) -> Self {
        Self {
            costs,
            stats: BarrierStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BarrierStats {
        self.stats
    }

    /// Executes the read barrier of Fig. 9 on a loaded reference:
    /// returns the possibly forwarded reference and charges the
    /// appropriate path cost.
    pub fn read_barrier(&mut self, fwd: &mut ForwardingState, loaded: ObjRef) -> ObjRef {
        let va = loaded.addr();
        if !fwd.is_relocating(va) {
            // Zero-page fast path: delta load returns 0.
            self.stats.read_fast += 1;
            self.stats.cycles += self.costs.read_fast;
            return loaded;
        }
        // Slow path: the delta line must be owned locally.
        let line = (va ^ (1 << 63)) & !63; // the flipped-MSB shadow line
        if fwd.acquired_lines.insert(line) {
            self.stats.read_slow_acquire += 1;
            self.stats.cycles += self.costs.read_slow_acquire;
        } else {
            self.stats.read_slow_hit += 1;
            self.stats.cycles += self.costs.read_slow_hit;
        }
        let new = fwd.forwarding.get(&va).copied().unwrap_or(va);
        ObjRef::new(new)
    }

    /// Executes the write barrier: the overwritten reference is
    /// published to the traversal unit's root region; returns it so the
    /// caller can enqueue it for marking.
    pub fn write_barrier(&mut self, overwritten: Option<ObjRef>) -> Option<ObjRef> {
        self.stats.writes += 1;
        self.stats.cycles += self.costs.write;
        overwritten
    }

    /// Cost the same workload would pay with a trap-based read barrier
    /// (for the §IV-D comparison).
    pub fn trap_equivalent_cycles(&self) -> Cycle {
        self.stats.read_fast * self.costs.read_fast
            + (self.stats.read_slow_acquire + self.stats.read_slow_hit) * self.costs.trap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(addr: u64) -> ObjRef {
        ObjRef::new(addr)
    }

    #[test]
    fn fast_path_when_nothing_relocates() {
        let mut fwd = ForwardingState::new();
        let mut b = BarrierModel::new(BarrierCosts::default());
        let r = obj(0x4000_0010);
        assert_eq!(b.read_barrier(&mut fwd, r), r);
        assert_eq!(b.stats().read_fast, 1);
        assert_eq!(b.stats().read_slow_acquire, 0);
    }

    #[test]
    fn relocated_object_is_forwarded() {
        let mut fwd = ForwardingState::new();
        let old = obj(0x4000_0010);
        let new = obj(0x5000_0010);
        fwd.relocate_page(0x4000_0000, &[(old, new)]);
        let mut b = BarrierModel::new(BarrierCosts::default());
        assert_eq!(b.read_barrier(&mut fwd, old), new);
        assert_eq!(b.stats().read_slow_acquire, 1);
    }

    #[test]
    fn second_access_to_line_is_cheap() {
        let mut fwd = ForwardingState::new();
        let a = obj(0x4000_0010);
        let b_ = obj(0x4000_0018); // same 64-byte line
        fwd.relocate_page(
            0x4000_0000,
            &[(a, obj(0x5000_0010)), (b_, obj(0x5000_0018))],
        );
        let mut b = BarrierModel::new(BarrierCosts::default());
        b.read_barrier(&mut fwd, a);
        b.read_barrier(&mut fwd, b_);
        assert_eq!(b.stats().read_slow_acquire, 1);
        assert_eq!(b.stats().read_slow_hit, 1);
    }

    #[test]
    fn finish_page_restores_fast_path() {
        let mut fwd = ForwardingState::new();
        let old = obj(0x4000_0010);
        fwd.relocate_page(0x4000_0000, &[(old, obj(0x5000_0010))]);
        fwd.finish_page(0x4000_0000);
        assert!(!fwd.is_relocating(old.addr()));
        let mut b = BarrierModel::new(BarrierCosts::default());
        assert_eq!(b.read_barrier(&mut fwd, old), old);
        assert_eq!(b.stats().read_fast, 1);
    }

    #[test]
    fn unforwarded_object_on_relocating_page_keeps_address() {
        let mut fwd = ForwardingState::new();
        let moved = obj(0x4000_0010);
        let stayed = obj(0x4000_0100); // same page, delta 0
        fwd.relocate_page(0x4000_0000, &[(moved, obj(0x5000_0010))]);
        let mut b = BarrierModel::new(BarrierCosts::default());
        assert_eq!(b.read_barrier(&mut fwd, stayed), stayed);
    }

    #[test]
    fn coherence_trick_beats_traps() {
        let mut fwd = ForwardingState::new();
        let old = obj(0x4000_0010);
        fwd.relocate_page(0x4000_0000, &[(old, obj(0x5000_0010))]);
        let mut b = BarrierModel::new(BarrierCosts::default());
        for _ in 0..100 {
            b.read_barrier(&mut fwd, old);
        }
        assert!(b.stats().cycles < b.trap_equivalent_cycles());
    }

    #[test]
    fn write_barrier_returns_the_overwritten_ref() {
        let mut b = BarrierModel::new(BarrierCosts::default());
        let r = obj(0x4000_0010);
        assert_eq!(b.write_barrier(Some(r)), Some(r));
        assert_eq!(b.write_barrier(None), None);
        assert_eq!(b.stats().writes, 2);
    }
}
