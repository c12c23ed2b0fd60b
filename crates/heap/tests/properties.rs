//! Property-based tests for the heap substrate: layout encodings round-
//! trip, and for arbitrary object graphs the functional collector
//! matches the reachability oracle exactly. Randomized graphs come from
//! fixed seeds.

use tracegc_heap::layout::{
    decode_cell_start, encode_free_cell_start, encode_live_cell_start, CellStart, Header, MAX_NREFS,
};
use tracegc_heap::verify::{check_free_lists, software_mark, software_sweep};
use tracegc_heap::{Heap, HeapConfig, LayoutKind, ObjRef};
use tracegc_sim::rng::{Rng, StdRng};

fn case_rng(property: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x4EA9_0000 + property * 10_007 + case)
}

#[test]
fn header_roundtrip() {
    for case in 0..100 {
        let mut rng = case_rng(1, case);
        let nrefs = rng.random_range(0u32..MAX_NREFS + 1);
        let is_array = rng.random::<bool>();
        let marked = rng.random::<bool>();
        let mut h = Header::new_object(nrefs, is_array);
        if marked {
            h = h.with_mark();
        }
        let decoded = Header::from_raw(h.raw());
        assert_eq!(decoded.nrefs(), nrefs, "case {case}");
        assert_eq!(decoded.is_array(), is_array, "case {case}");
        assert_eq!(decoded.is_marked(), marked, "case {case}");
        assert!(decoded.is_live(), "case {case}");
    }
}

#[test]
fn mark_bit_never_disturbs_the_count() {
    for case in 0..100 {
        let mut rng = case_rng(2, case);
        let nrefs = rng.random_range(0u32..MAX_NREFS + 1);
        let is_array = rng.random::<bool>();
        let h = Header::new_object(nrefs, is_array);
        assert_eq!(h.with_mark().without_mark().raw(), h.raw(), "case {case}");
        assert_eq!(h.with_mark().nrefs(), nrefs, "case {case}");
    }
}

#[test]
fn cell_start_roundtrip_live() {
    for case in 0..100 {
        let mut rng = case_rng(3, case);
        let nrefs = rng.random_range(0u32..MAX_NREFS + 1);
        let is_array = rng.random::<bool>();
        let raw = encode_live_cell_start(nrefs, is_array);
        assert_eq!(
            decode_cell_start(raw),
            CellStart::Live { nrefs, is_array },
            "case {case}"
        );
    }
}

#[test]
fn cell_start_roundtrip_free() {
    for case in 0..100 {
        let mut rng = case_rng(4, case);
        let next = rng.random_range(0u64..1 << 40) & !7;
        let raw = encode_free_cell_start(next);
        assert_eq!(
            decode_cell_start(raw),
            CellStart::Free { next },
            "case {case}"
        );
    }
}

/// A random small object graph: per-object (nrefs, scalars), an edge
/// list and a non-empty root set.
struct GraphCase {
    shapes: Vec<(u32, u32)>,
    edges: Vec<(usize, u32, usize)>,
    roots: Vec<usize>,
}

fn random_graph(rng: &mut StdRng) -> GraphCase {
    let n = rng.random_range(2usize..60);
    let shapes: Vec<(u32, u32)> = (0..n)
        .map(|_| (rng.random_range(0u32..5), rng.random_range(0u32..6)))
        .collect();
    let edges: Vec<(usize, u32, usize)> = (0..rng.random_range(0usize..n * 3))
        .map(|_| {
            (
                rng.random_range(0usize..n),
                rng.random_range(0u32..5),
                rng.random_range(0usize..n),
            )
        })
        .collect();
    let roots: Vec<usize> = (0..rng.random_range(1usize..4))
        .map(|_| rng.random_range(0usize..n))
        .collect();
    GraphCase {
        shapes,
        edges,
        roots,
    }
}

fn build(layout: LayoutKind, g: &GraphCase) -> Heap {
    let mut heap = Heap::new(HeapConfig {
        phys_bytes: 32 << 20,
        layout,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = g
        .shapes
        .iter()
        .map(|&(r, s)| heap.alloc(r, s, false).expect("fits"))
        .collect();
    for &(from, slot, to) in &g.edges {
        if slot < g.shapes[from].0 {
            heap.set_ref(objs[from], slot, Some(objs[to]));
        }
    }
    let root_refs: Vec<ObjRef> = g.roots.iter().map(|&i| objs[i]).collect();
    heap.set_roots(&root_refs);
    heap
}

#[test]
fn mark_equals_reachability_for_random_graphs() {
    for case in 0..100 {
        let g = random_graph(&mut case_rng(5, case));
        let mut heap = build(LayoutKind::Bidirectional, &g);
        let expected = heap.reachable_from_roots();
        let marked = software_mark(&mut heap);
        assert_eq!(heap.marked_set(), expected, "case {case}");
        assert_eq!(marked, expected.len() as u64, "case {case}");
    }
}

#[test]
fn sweep_frees_exactly_the_unmarked() {
    for case in 0..100 {
        let g = random_graph(&mut case_rng(6, case));
        let mut heap = build(LayoutKind::Bidirectional, &g);
        let live = software_mark(&mut heap);
        let total = g.shapes.len() as u64;
        let outcome = software_sweep(&mut heap);
        assert_eq!(outcome.freed_cells, total - live, "case {case}");
        assert_eq!(outcome.live_objects, live, "case {case}");
        assert!(check_free_lists(&heap).is_ok(), "case {case}");
        // The live set is untouched.
        assert_eq!(
            heap.reachable_from_roots().len() as u64,
            live,
            "case {case}"
        );
    }
}

#[test]
fn both_layouts_agree_on_reachability() {
    for case in 0..100 {
        let g = random_graph(&mut case_rng(7, case));
        let bidi = build(LayoutKind::Bidirectional, &g);
        let conv = build(LayoutKind::Conventional, &g);
        assert_eq!(
            bidi.reachable_from_roots().len(),
            conv.reachable_from_roots().len(),
            "case {case}"
        );
    }
}

#[test]
fn allocation_after_sweep_reuses_freed_cells() {
    for case in 0..100 {
        let g = random_graph(&mut case_rng(8, case));
        let mut heap = build(LayoutKind::Bidirectional, &g);
        software_mark(&mut heap);
        software_sweep(&mut heap);
        let blocks = heap.blocks().len();
        let free = heap.total_free_cells();
        // Reallocate as many of the same shapes as there are free cells.
        let mut allocated = 0u64;
        for &(r, s) in g.shapes.iter().cycle().take(free as usize) {
            if heap.alloc(r, s, false).is_err() {
                break;
            }
            allocated += 1;
        }
        assert!(allocated > 0 || free == 0, "case {case}");
        // Reuse may create at most a handful of new blocks (size-class
        // mismatches), never one per allocation.
        assert!(heap.blocks().len() <= blocks + 14, "case {case}");
    }
}
