//! The concrete SoC context handed to scheduled engines: one shared
//! memory system plus the heaps under collection.
//!
//! `tracegc-sim`'s [`Scheduler`](tracegc_sim::sched::Scheduler) is
//! generic over the context type passed to every
//! [`Engine::step`](tracegc_sim::sched::Engine::step); [`SocCtx`] is the
//! instantiation every hardware engine in this workspace uses. The
//! fields are public so an engine can split the borrow — its own heap
//! mutably alongside the shared memory controller — without fighting the
//! borrow checker:
//!
//! ```ignore
//! let SocCtx { mem, heaps, .. } = ctx;
//! self.unit.step(now, &mut *heaps[self.heap_idx], mem)
//! ```

use tracegc_mem::MemSystem;

use crate::Heap;

/// Shared state for one scheduled SoC run: the single memory controller
/// every engine contends on, the heaps (one per process/unit), and a
/// per-heap reference mailbox for engine-to-engine communication (a
/// mutator engine publishes write-barrier references here; the heap's
/// collector engine drains them into its mark queue at the same cycle).
#[derive(Debug)]
pub struct SocCtx<'a> {
    /// The shared memory system (single DDR3 controller in the paper).
    pub mem: &'a mut MemSystem,
    /// The heaps being collected, indexed by engine `heap_idx`.
    pub heaps: Vec<&'a mut Heap>,
    /// Per-heap mailboxes of barrier-published references (virtual
    /// addresses), drained by that heap's collector engine.
    pub mailboxes: Vec<Vec<u64>>,
}

impl<'a> SocCtx<'a> {
    /// A context over `heaps` sharing `mem`.
    pub fn new(mem: &'a mut MemSystem, heaps: Vec<&'a mut Heap>) -> Self {
        let mailboxes = heaps.iter().map(|_| Vec::new()).collect();
        Self {
            mem,
            heaps,
            mailboxes,
        }
    }

    /// The common single-heap case.
    pub fn single(mem: &'a mut MemSystem, heap: &'a mut Heap) -> Self {
        Self::new(mem, vec![heap])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeapConfig;

    #[test]
    fn single_builds_one_heap_one_mailbox() {
        let mut heap = Heap::new(HeapConfig::default());
        let mut mem = MemSystem::ddr3(Default::default());
        let ctx = SocCtx::single(&mut mem, &mut heap);
        assert_eq!(ctx.heaps.len(), 1);
        assert_eq!(ctx.mailboxes.len(), 1);
        assert!(ctx.mailboxes[0].is_empty());
    }

    #[test]
    fn mailboxes_match_heap_count() {
        let mut a = Heap::new(HeapConfig::default());
        let mut b = Heap::new(HeapConfig::default());
        let mut mem = MemSystem::ddr3(Default::default());
        let ctx = SocCtx::new(&mut mem, vec![&mut a, &mut b]);
        assert_eq!(ctx.heaps.len(), 2);
        assert_eq!(ctx.mailboxes.len(), 2);
    }
}
