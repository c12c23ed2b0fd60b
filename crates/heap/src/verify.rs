//! Functional GC oracles and heap consistency checks.
//!
//! These are the referees of the differential-testing strategy in
//! DESIGN.md §5: the timed CPU collector and the traversal/reclamation
//! units must produce exactly the results of [`software_mark`] and
//! [`software_sweep`], and [`check_free_lists`] must hold after every
//! sweep regardless of the agent that performed it.

use std::collections::BTreeSet;

use crate::heap::Heap;
use crate::layout::{
    bidi, conv, decode_cell_start, encode_free_cell_start, CellStart, LayoutKind, ObjRef,
};

/// Outcome of a sweep over the mark-sweep space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Cells turned from dead objects into free-list entries.
    pub freed_cells: u64,
    /// Objects that survived (marked; their mark bits were cleared).
    pub live_objects: u64,
    /// Cells that were already free.
    pub already_free: u64,
}

/// Marks every object reachable from the roots, functionally (no timing).
/// Returns the number of objects it marked; [`Heap::marked_set`] lists
/// them.
pub fn software_mark(heap: &mut Heap) -> u64 {
    let mut marked = 0u64;
    let mut stack: Vec<ObjRef> = heap.roots().to_vec();
    while let Some(obj) = stack.pop() {
        if heap.mark(obj) {
            continue; // already marked
        }
        marked += 1;
        stack.extend(heap.refs_of(obj));
    }
    marked
}

/// The functional sweep oracle: rebuilds every block's free list exactly
/// as the reclamation unit's block sweepers do (§V-D), clears surviving
/// mark bits, and updates the heap's allocator metadata.
pub fn software_sweep(heap: &mut Heap) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();
    let layout = heap.layout();
    let blocks = heap.blocks().to_vec();
    for (bidx, block) in blocks.iter().enumerate() {
        let mut free_head = 0u64;
        let mut free_cells = 0u64;
        // Build the list back-to-front so it ends up in address order.
        for i in (0..block.ncells).rev() {
            let cell = block.base_va + i * block.cell_bytes;
            match decode_cell_start(heap.read_va(cell)) {
                CellStart::Free { .. } => {
                    outcome.already_free += 1;
                    heap.write_va(cell, encode_free_cell_start(free_head));
                    free_head = cell;
                    free_cells += 1;
                }
                CellStart::Live { nrefs, .. } => {
                    let header_va = match layout {
                        LayoutKind::Bidirectional => bidi::header_of_cell(cell, nrefs),
                        LayoutKind::Conventional => conv::header_of_cell(cell),
                    };
                    let header = crate::layout::Header::from_raw(heap.read_va(header_va));
                    if header.is_marked() {
                        outcome.live_objects += 1;
                        heap.write_va(header_va, header.without_mark().raw());
                    } else {
                        outcome.freed_cells += 1;
                        heap.write_va(cell, encode_free_cell_start(free_head));
                        free_head = cell;
                        free_cells += 1;
                    }
                }
            }
        }
        heap.set_block_free_list(bidx, free_head, free_cells);
    }
    // LOS objects just get their mark bits cleared (the runtime, not the
    // unit, manages the LOS; §V-A).
    for los in heap.los_objects().to_vec() {
        let h = heap.header(los.obj).without_mark();
        heap.write_va(los.obj.addr(), h.raw());
        outcome.live_objects += 1;
    }
    heap.finish_sweep();
    outcome
}

/// Verifies that every block's in-memory free list is acyclic, stays
/// inside the block, visits exactly `free_cells` entries, and that every
/// free cell in the block is on the list.
///
/// # Errors
///
/// Returns a description of the first inconsistency found.
pub fn check_free_lists(heap: &Heap) -> Result<(), String> {
    let mut words = heap.page_reader();
    // One bit per cell of the block being checked.
    let mut visited: Vec<u64> = Vec::new();
    for (bidx, block) in heap.blocks().iter().enumerate() {
        let block_end = block.base_va + block.ncells * block.cell_bytes;
        visited.clear();
        visited.resize(block.ncells.div_ceil(64) as usize, 0);
        let on_list = |visited: &[u64], i: u64| visited[(i / 64) as usize] & (1 << (i % 64)) != 0;
        let mut entries = 0u64;
        let mut cursor = block.free_head;
        while cursor != 0 {
            if cursor < block.base_va || cursor >= block_end {
                return Err(format!(
                    "block {bidx}: free-list entry {cursor:#x} outside block"
                ));
            }
            if (cursor - block.base_va) % block.cell_bytes != 0 {
                return Err(format!(
                    "block {bidx}: free-list entry {cursor:#x} not cell-aligned"
                ));
            }
            let i = (cursor - block.base_va) / block.cell_bytes;
            if on_list(&visited, i) {
                return Err(format!(
                    "block {bidx}: free list has a cycle at {cursor:#x}"
                ));
            }
            visited[(i / 64) as usize] |= 1 << (i % 64);
            entries += 1;
            match decode_cell_start(words.read(cursor)) {
                CellStart::Free { next } => cursor = next,
                CellStart::Live { .. } => {
                    return Err(format!("block {bidx}: live cell {cursor:#x} on free list"))
                }
            }
        }
        if entries != block.free_cells {
            return Err(format!(
                "block {bidx}: free list has {entries} entries, metadata says {}",
                block.free_cells
            ));
        }
        // Every free cell must be on the list.
        for i in 0..block.ncells {
            let cell = block.base_va + i * block.cell_bytes;
            if let CellStart::Free { .. } = decode_cell_start(words.read(cell)) {
                if !on_list(&visited, i) {
                    return Err(format!(
                        "block {bidx}: free cell {cell:#x} missing from list"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Asserts that the marked set equals the reachability oracle — the
/// central differential check.
///
/// With S the reachable set and I the objects a linear scan meets, the
/// marked set is S ∩ I exactly when every scanned object's mark bit
/// equals its reachability; |S ∩ I| = |S| then gives S ⊆ I, so the
/// marked set is S. One traversal and one scan check both, and only a
/// divergence builds the two sets for the report.
///
/// # Errors
///
/// Returns a description of the first divergence.
///
/// # Panics
///
/// Panics as [`Heap::reachable_from_roots`] does on a reachable
/// reference that is unaligned or lies on an unmapped page.
pub fn check_marks_match_reachability(heap: &Heap) -> Result<(), String> {
    let reach = heap.reach();
    let (mut agree, mut met) = (true, 0u64);
    for (obj, header) in heap.objects_with_headers() {
        let reachable = reach.contains(obj);
        agree &= header.is_marked() == reachable;
        met += u64::from(reachable);
    }
    if agree && met == reach.count() {
        return Ok(());
    }
    divergence(&reach.objects().collect(), &heap.marked_set())
}

/// The report of a mark/reachability comparison between the two sets.
fn divergence(reachable: &BTreeSet<ObjRef>, marked: &BTreeSet<ObjRef>) -> Result<(), String> {
    if reachable == marked {
        return Ok(());
    }
    let missing: Vec<_> = reachable.difference(marked).take(3).collect();
    let extra: Vec<_> = marked.difference(reachable).take(3).collect();
    Err(format!(
        "mark/reachability divergence: {} reachable, {} marked; missing {:?}, extra {:?}",
        reachable.len(),
        marked.len(),
        missing,
        extra
    ))
}

/// The checks as first written, kept as the references the fast paths
/// are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn check_free_lists(heap: &Heap) -> Result<(), String> {
        for (bidx, block) in heap.blocks().iter().enumerate() {
            let block_end = block.base_va + block.ncells * block.cell_bytes;
            let mut visited = BTreeSet::new();
            let mut cursor = block.free_head;
            while cursor != 0 {
                if cursor < block.base_va || cursor >= block_end {
                    return Err(format!(
                        "block {bidx}: free-list entry {cursor:#x} outside block"
                    ));
                }
                if (cursor - block.base_va) % block.cell_bytes != 0 {
                    return Err(format!(
                        "block {bidx}: free-list entry {cursor:#x} not cell-aligned"
                    ));
                }
                if !visited.insert(cursor) {
                    return Err(format!(
                        "block {bidx}: free list has a cycle at {cursor:#x}"
                    ));
                }
                match decode_cell_start(heap.read_va(cursor)) {
                    CellStart::Free { next } => cursor = next,
                    CellStart::Live { .. } => {
                        return Err(format!("block {bidx}: live cell {cursor:#x} on free list"))
                    }
                }
            }
            if visited.len() as u64 != block.free_cells {
                return Err(format!(
                    "block {bidx}: free list has {} entries, metadata says {}",
                    visited.len(),
                    block.free_cells
                ));
            }
            for i in 0..block.ncells {
                let cell = block.base_va + i * block.cell_bytes;
                if let CellStart::Free { .. } = decode_cell_start(heap.read_va(cell)) {
                    if !visited.contains(&cell) {
                        return Err(format!(
                            "block {bidx}: free cell {cell:#x} missing from list"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn check_marks_match_reachability(heap: &Heap) -> Result<(), String> {
        divergence(&heap.reachable_by_set(), &heap.marked_set_reference())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;

    fn graph_heap() -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..100)
            .map(|i| h.alloc(2, (i % 3) as u32, false).unwrap())
            .collect();
        // A chain plus some cross edges; objects 50.. are garbage.
        for i in 0..49usize {
            h.set_ref(objs[i], 0, Some(objs[i + 1]));
            h.set_ref(objs[i], 1, Some(objs[(i * 13) % 50]));
        }
        for i in 50..99usize {
            h.set_ref(objs[i], 0, Some(objs[i + 1])); // garbage chain
        }
        h.set_roots(&[objs[0]]);
        h
    }

    #[test]
    fn software_mark_matches_oracle() {
        let mut h = graph_heap();
        let marked = software_mark(&mut h);
        assert_eq!(h.marked_set(), h.reachable_from_roots());
        check_marks_match_reachability(&h).unwrap();
        assert_eq!(marked, 50);
    }

    #[test]
    fn sweep_frees_exactly_the_garbage() {
        let mut h = graph_heap();
        software_mark(&mut h);
        let free_before = h.total_free_cells();
        let outcome = software_sweep(&mut h);
        assert_eq!(outcome.freed_cells, 50);
        assert_eq!(outcome.live_objects, 50);
        assert_eq!(h.total_free_cells(), free_before + 50);
        check_free_lists(&h).unwrap();
    }

    #[test]
    fn sweep_clears_mark_bits() {
        let mut h = graph_heap();
        software_mark(&mut h);
        software_sweep(&mut h);
        assert!(h.marked_set().is_empty());
    }

    #[test]
    fn allocation_reuses_swept_cells() {
        let mut h = graph_heap();
        let blocks_before = h.blocks().len();
        software_mark(&mut h);
        software_sweep(&mut h);
        // Allocate the same shapes again: no new blocks needed.
        for i in 0..50 {
            h.alloc(2, (i % 3) as u32, false).unwrap();
        }
        assert_eq!(h.blocks().len(), blocks_before);
        check_free_lists(&h).unwrap();
    }

    #[test]
    fn two_gc_cycles_are_stable() {
        let mut h = graph_heap();
        for _ in 0..2 {
            assert_eq!(software_mark(&mut h), 50);
            software_sweep(&mut h);
            check_free_lists(&h).unwrap();
        }
    }

    #[test]
    fn check_detects_divergence() {
        let mut h = graph_heap();
        software_mark(&mut h);
        // Corrupt: unmark one reachable object.
        let victim = *h.reachable_from_roots().iter().next().unwrap();
        let hdr = h.header(victim).without_mark();
        h.write_va(victim.addr(), hdr.raw());
        assert!(check_marks_match_reachability(&h).is_err());
    }

    #[test]
    fn check_free_lists_detects_bad_count() {
        let mut h = graph_heap();
        software_mark(&mut h);
        software_sweep(&mut h);
        h.set_block_free_list(0, h.blocks()[0].free_head, h.blocks()[0].free_cells + 1);
        assert!(check_free_lists(&h).is_err());
    }

    #[test]
    fn conventional_layout_gc_cycle() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            layout: LayoutKind::Conventional,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..60).map(|_| h.alloc(1, 2, false).unwrap()).collect();
        for i in 0..29usize {
            h.set_ref(objs[i], 0, Some(objs[i + 1]));
        }
        h.set_roots(&[objs[0]]);
        assert_eq!(software_mark(&mut h), 30);
        let outcome = software_sweep(&mut h);
        assert_eq!(outcome.freed_cells, 30);
        check_free_lists(&h).unwrap();
    }

    #[test]
    fn los_objects_survive_sweep_with_marks_cleared() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let big = h.alloc(1500, 0, true).unwrap();
        h.set_roots(&[big]);
        software_mark(&mut h);
        assert!(h.is_marked(big));
        software_sweep(&mut h);
        assert!(!h.is_marked(big));
        assert_eq!(h.los_objects().len(), 1);
    }
}
