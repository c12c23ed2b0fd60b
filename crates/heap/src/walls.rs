//! Differential walls for the functional fast path: the shadow
//! translation against the page-table walk, run mapping against mapping
//! one page at a time, and the bitmap oracles and page-reader scans
//! against the set-based references they replaced.
//!
//! `cargo test` runs a trimmed seed pool; release builds run the full
//! pool (`cargo test --release -p tracegc-heap --lib walls`).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tracegc_sim::rng::{Rng, StdRng};
use tracegc_vmem::pagetable::MEGAPAGE_SIZE;
use tracegc_vmem::PAGE_SIZE;

use crate::heap::{Heap, HeapConfig};
use crate::layout::{decode_cell_start, CellStart, LayoutKind, ObjRef, WORD};
use crate::space::{SpaceMap, MARK_STACK_BASE, MARK_STACK_BYTES};
use crate::verify::{self, reference, software_mark, software_sweep};

/// Seeds per (layout, mapping) combination.
const SEEDS: u64 = if cfg!(debug_assertions) { 3 } else { 24 };

/// A seeded heap with small objects, LOS objects, garbage, swept free
/// cells between live ones, and fresh allocations into those cells.
fn seeded_heap(seed: u64, layout: LayoutKind, superpages: bool, spaces: SpaceMap) -> Heap {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut heap = Heap::new(HeapConfig {
        phys_bytes: 256 << 20,
        layout,
        superpages,
        spaces,
        ..HeapConfig::default()
    });
    let mut objs = Vec::new();
    let grow = |heap: &mut Heap, rng: &mut StdRng, objs: &mut Vec<ObjRef>, n: usize| {
        for _ in 0..n {
            let (nrefs, scalars) = if rng.random_range(0..64u32) == 0 {
                (rng.random_range(1100..1600), rng.random_range(0..4))
            } else {
                (rng.random_range(0..7), rng.random_range(0..9))
            };
            objs.push(
                heap.alloc(nrefs, scalars, rng.random_range(0..8u32) == 0)
                    .unwrap(),
            );
        }
        for &obj in objs.iter() {
            for slot in 0..heap.nrefs(obj).min(64) {
                if rng.random_range(0..10u32) < 4 {
                    let target = objs[rng.random_range(0..objs.len())];
                    heap.set_ref(obj, slot, Some(target));
                }
            }
        }
        let roots: Vec<ObjRef> = (0..rng.random_range(1..6usize))
            .map(|_| objs[rng.random_range(0..objs.len())])
            .collect();
        heap.set_roots(&roots);
    };
    let n = rng.random_range(300..900);
    grow(&mut heap, &mut rng, &mut objs, n);
    software_mark(&mut heap);
    software_sweep(&mut heap);
    objs.retain(|&o| heap.reachable_by_set().contains(&o));
    let n = rng.random_range(100..400);
    grow(&mut heap, &mut rng, &mut objs, n);
    heap
}

/// Every seeded heap: both layouts, 4 KiB and 2 MiB mappings, the
/// default space map and one whose mark-sweep space ends mid-superpage.
fn heaps() -> impl Iterator<Item = (String, Heap)> {
    let odd = SpaceMap {
        ms_size: (1 << 20) + (64 << 10),
        ..SpaceMap::default()
    };
    (0..SEEDS).flat_map(move |seed| {
        [LayoutKind::Bidirectional, LayoutKind::Conventional]
            .into_iter()
            .flat_map(move |layout| {
                [false, true].into_iter().map(move |superpages| {
                    let spaces = if seed % 3 == 2 {
                        odd
                    } else {
                        SpaceMap::default()
                    };
                    let name = format!("seed {seed} {layout:?} superpages={superpages}");
                    let heap = seeded_heap(0x5AD0_0000 + seed, layout, superpages, spaces);
                    (name, heap)
                })
            })
    })
}

/// What `f` returned, or the message it panicked with.
fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn shadow_translation_matches_the_walk() {
    for (name, mut heap) in heaps() {
        heap.ensure_mapped_region(MARK_STACK_BASE, MARK_STACK_BYTES);
        // Mapping the region again draws no frame and writes no chunk:
        // the shadow alone says which pages are mapped.
        let (frames, chunks) = (heap.frames_allocated(), heap.phys.allocated_chunks());
        heap.ensure_mapped_region(MARK_STACK_BASE, MARK_STACK_BYTES);
        assert_eq!(heap.frames_allocated(), frames, "{name}: frames drawn");
        assert_eq!(
            heap.phys.allocated_chunks(),
            chunks,
            "{name}: chunks written"
        );
        let s = *heap.spaces();
        // Every region the heap maps, out to the 2 MiB boundary a
        // superpage can reach past its end.
        let regions = [
            (s.ms_base, s.ms_size),
            (s.los_base, s.los_size),
            (s.immortal_base, s.immortal_size),
            (s.hwgc_base, s.hwgc_size),
            (MARK_STACK_BASE, MARK_STACK_BYTES),
        ]
        .map(|(base, size)| (base, (base + size).next_multiple_of(MEGAPAGE_SIZE)));
        let mut mapped = 0;
        for (base, end) in regions {
            for page in (base..end).step_by(PAGE_SIZE as usize) {
                for off in [0, WORD, PAGE_SIZE / 2, PAGE_SIZE - WORD] {
                    let va = page + off;
                    let walked = heap.address_space().translate(&heap.phys, va);
                    assert_eq!(heap.try_va_to_pa(va), walked, "{name}: {va:#x}");
                    mapped += usize::from(walked.is_some());
                }
            }
        }
        assert!(mapped > 0, "{name}: nothing mapped");
        assert!(heap.try_va_to_pa(MARK_STACK_BASE).is_some(), "{name}");
        // A mark-sweep space that ends mid-superpage leaves a mapped
        // tail past its end.
        let ms_end = s.ms_base + s.ms_size;
        if heap.config().superpages && !ms_end.is_multiple_of(MEGAPAGE_SIZE) {
            assert!(heap.try_va_to_pa(ms_end).is_some(), "{name}: tail");
        }
        // Outside every region both sides say unmapped.
        let outside = regions
            .iter()
            .flat_map(|&(base, end)| [base - WORD, end, end + 3 * PAGE_SIZE + 16]);
        for va in outside {
            let walked = heap.address_space().translate(&heap.phys, va);
            assert_eq!(walked, None, "{name}: {va:#x} walked");
            assert_eq!(heap.try_va_to_pa(va), None, "{name}: {va:#x}");
        }
    }
}

#[test]
fn unmapped_va_in_a_space_panics_with_the_walks_message() {
    let heap = Heap::new(HeapConfig::default());
    let va = heap.spaces().ms_base + 0x1238;
    let got = outcome(|| heap.va_to_pa(va));
    assert_eq!(got, Err(format!("unmapped virtual address {va:#x}")));
}

/// Seeded ranges for the run-mapping wall, in the order they are mapped:
/// the whole mark stack twice, then ranges in every space and in a fresh
/// scratch region, starting at any byte, some on either side of a 2 MiB
/// boundary, many over pages already mapped.
fn mapping_ranges(heap: &Heap, seed: u64) -> Vec<(u64, u64)> {
    const SPAN: u64 = MEGAPAGE_SIZE;
    let s = *heap.spaces();
    let regions = [
        (s.ms_base, s.ms_size),
        (s.los_base, s.los_size),
        (s.immortal_base, s.immortal_size),
        (s.hwgc_base, s.hwgc_size),
        (MARK_STACK_BASE + MARK_STACK_BYTES + 4 * SPAN, 8 * SPAN),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![(MARK_STACK_BASE, MARK_STACK_BYTES); 2];
    for _ in 0..16 {
        let (base, size) = regions[rng.random_range(0..regions.len())];
        let size = size.next_multiple_of(SPAN).min(8 * SPAN);
        let start = if rng.random::<bool>() {
            // Up to 8 pages before a 2 MiB boundary inside the region.
            let boundary = rng.random_range(1..size / SPAN + 1) * SPAN;
            boundary - rng.random_range(1..9) * PAGE_SIZE
                + rng.random_range(0..PAGE_SIZE / WORD) * WORD
        } else {
            rng.random_range(0..size / WORD) * WORD
        };
        let len = match rng.random_range(0..3u32) {
            0 => rng.random_range(1..2 * PAGE_SIZE),
            1 => rng.random_range(1..24) * PAGE_SIZE,
            _ => rng.random_range(1..3 * SPAN),
        };
        out.push((base + start, len.min(size - start)));
    }
    out
}

/// Mapping runs of pages draws the frames, writes the page tables and
/// fills the shadow exactly as mapping one page (or superpage) at a time
/// does, range by range.
#[test]
fn run_mapping_matches_the_per_page_reference() {
    for (k, (name, heap)) in heaps().enumerate() {
        let (mut fast, mut slow) = (heap.clone(), heap);
        for (i, (va, len)) in mapping_ranges(&fast, 0x4A90_0000 + k as u64)
            .into_iter()
            .enumerate()
        {
            let at = format!("{name}: range {i} at {va:#x}, {len} bytes");
            let frames = fast.frames_allocated();
            fast.ensure_mapped_region(va, len);
            slow.ensure_mapped_region_per_page(va, len);
            if i == 1 {
                assert_eq!(fast.frames_allocated(), frames, "{at}: remapped");
            }
            assert_eq!(fast.frames_allocated(), slow.frames_allocated(), "{at}");
            assert!(fast.same_shadow(&slow), "{at}: shadow");
            assert_eq!(
                fast.phys.allocated_chunks(),
                slow.phys.allocated_chunks(),
                "{at}"
            );
            for pa in (0..fast.phys.size_bytes()).step_by(PAGE_SIZE as usize) {
                assert_eq!(
                    fast.phys.page(pa),
                    slow.phys.page(pa),
                    "{at}: frame {pa:#x}"
                );
            }
        }
    }
}

/// A reachable object and an unreachable one, when the heap has them.
fn reachable_and_not(heap: &Heap) -> (Option<ObjRef>, Option<ObjRef>) {
    let live = heap.reachable_by_set();
    let objects = heap.iter_objects_reference();
    let dead = objects.iter().copied().find(|o| !live.contains(o));
    let live = objects
        .iter()
        .copied()
        .filter(|o| live.contains(o))
        .nth(live.len() / 2);
    (live, dead)
}

/// The head of the first non-empty free list.
fn free_cell(heap: &Heap) -> Option<u64> {
    heap.blocks()
        .iter()
        .find(|b| b.free_head != 0)
        .map(|b| b.free_head)
}

/// A reference slot VA of a reachable object with at least one slot.
fn reachable_slot(heap: &Heap) -> Option<u64> {
    let live = heap.reachable_by_set();
    live.iter()
        .find(|&&o| heap.nrefs(o) > 0)
        .map(|&o| heap.ref_slot_va(o, 0))
}

/// Single mutations of a marked heap, each applied to its own copy.
fn mark_mutations(heap: &Heap) -> Vec<(&'static str, Heap)> {
    let mut out = vec![("as marked", heap.clone())];
    let (live, dead) = reachable_and_not(heap);
    let mut with = |what, f: &dyn Fn(&mut Heap)| {
        let mut h = heap.clone();
        f(&mut h);
        out.push((what, h));
    };
    if let Some(obj) = live {
        with("reachable mark cleared", &|h| {
            let raw = h.header(obj).without_mark().raw();
            h.write_va(obj.addr(), raw);
        });
    }
    if let Some(obj) = dead {
        with("unreachable mark set", &|h| {
            h.mark(obj);
        });
    }
    if let Some(slot) = reachable_slot(heap) {
        if let Some(cell) = free_cell(heap) {
            with("reference to a free cell", &|h| h.write_va(slot, cell));
        }
        // The tail of a free list reads as a header with no references,
        // so the only difference is one reachable non-object.
        let tail = heap.blocks().iter().find_map(|b| {
            (0..b.ncells)
                .map(|i| b.base_va + i * b.cell_bytes)
                .find(|&c| decode_cell_start(heap.read_va(c)) == CellStart::Free { next: 0 })
        });
        if let Some(cell) = tail {
            with("reference to a free-list tail", &|h| h.write_va(slot, cell));
        }
        if let Some(obj) = live {
            with("reference mid-object", &|h| {
                h.write_va(slot, obj.addr() + WORD)
            });
            with("reference to a cell start", &|h| {
                let cell = match h.layout() {
                    LayoutKind::Bidirectional => {
                        crate::layout::bidi::cell_of_header(obj.addr(), h.nrefs(obj))
                    }
                    LayoutKind::Conventional => crate::layout::conv::cell_of_header(obj.addr()),
                };
                h.write_va(slot, cell);
            });
            with("unaligned reference", &|h| h.write_va(slot, obj.addr() + 4));
        }
        let root_region = heap.spaces().hwgc_base;
        with("reference outside the traced spaces", &|h| {
            h.write_va(slot, root_region)
        });
        with("reference to an unmapped page", &|h| {
            let end = h.spaces().los_base + h.spaces().los_size - WORD;
            h.write_va(slot, end);
        });
    }
    out
}

/// Single corruptions of a swept heap's free lists.
fn free_list_mutations(heap: &Heap) -> Vec<(&'static str, Heap)> {
    let mut out = vec![("as swept", heap.clone())];
    let Some((bidx, block)) = heap
        .blocks()
        .iter()
        .enumerate()
        .find(|(_, b)| b.free_cells >= 2)
        .map(|(i, b)| (i, *b))
    else {
        return out;
    };
    let head = block.free_head;
    let second = match decode_cell_start(heap.read_va(head)) {
        CellStart::Free { next } => next,
        CellStart::Live { .. } => unreachable!("free head is free"),
    };
    let live_cell = (0..block.ncells)
        .map(|i| block.base_va + i * block.cell_bytes)
        .find(|&c| matches!(decode_cell_start(heap.read_va(c)), CellStart::Live { .. }));
    let mut with = |what, f: &dyn Fn(&mut Heap)| {
        let mut h = heap.clone();
        f(&mut h);
        out.push((what, h));
    };
    with("cycle", &|h| h.write_va(second, head));
    with("entry outside the block", &|h| {
        h.write_va(head, block.base_va + block.ncells * block.cell_bytes)
    });
    with("entry not cell-aligned", &|h| {
        h.write_va(head, second + WORD)
    });
    if let Some(cell) = live_cell {
        with("live cell on the list", &|h| h.write_va(head, cell));
    }
    with("count one over", &|h| {
        h.set_block_free_list(bidx, head, block.free_cells + 1)
    });
    with("count one under", &|h| {
        h.set_block_free_list(bidx, head, block.free_cells - 1)
    });
    with("free cell missing from the list", &|h| {
        h.set_block_free_list(bidx, second, block.free_cells - 1)
    });
    out
}

#[test]
fn oracles_match_the_set_references() {
    let (mut cases, mut diverged) = (0, 0);
    for (name, heap) in heaps() {
        let (c, d) = compare_with_the_references(&name, &heap);
        cases += c;
        diverged += d;
    }
    assert!(
        cases > 0 && diverged > 0,
        "{cases} cases, {diverged} divergent"
    );
}

/// Runs every oracle and scan of `heap` against its reference: as built,
/// marked under single mutations, and swept under single free-list
/// corruptions. Returns the cases compared and how many mutations the
/// reference found divergent.
fn compare_with_the_references(name: &str, heap: &Heap) -> (usize, usize) {
    let mut cases = 0;
    let mut diverged = 0;
    assert_eq!(heap.iter_objects(), heap.iter_objects_reference(), "{name}");
    let mut marked = heap.clone();
    software_mark(&mut marked);
    for (what, h) in mark_mutations(&marked) {
        let reach = outcome(|| h.reachable_by_set());
        assert_eq!(
            outcome(|| h.reachable_from_roots()),
            reach,
            "{name}: {what}"
        );
        assert_eq!(
            outcome(|| h.reachable_count()),
            reach.clone().map(|r| r.len()),
            "{name}: {what}"
        );
        assert_eq!(
            outcome(|| h.marked_set()),
            outcome(|| h.marked_set_reference()),
            "{name}: {what}"
        );
        let check = outcome(|| reference::check_marks_match_reachability(&h));
        assert_eq!(
            outcome(|| verify::check_marks_match_reachability(&h)),
            check,
            "{name}: {what}"
        );
        if what != "as marked" {
            diverged += usize::from(!matches!(check, Ok(Ok(()))));
        }
        cases += 1;
    }
    let mut swept = marked;
    software_sweep(&mut swept);
    for (what, h) in free_list_mutations(&swept) {
        let want = reference::check_free_lists(&h);
        assert_eq!(verify::check_free_lists(&h), want, "{name}: {what}");
        assert_eq!(want.is_ok(), what == "as swept", "{name}: {what}: {want:?}");
        cases += 1;
    }
    (cases, diverged)
}

/// Heaps whose live cells of 48, 96, 192 and 384 bytes straddle 4 KiB
/// pages, so the page reader switches pages inside one object (in the
/// bidirectional layout, often between its cell start and its header).
#[test]
fn cells_straddling_pages_read_like_words() {
    for layout in [LayoutKind::Bidirectional, LayoutKind::Conventional] {
        for superpages in [false, true] {
            let name = format!("{layout:?} superpages={superpages}");
            let mut rng = StdRng::seed_from_u64(0x57AD_D1E5);
            let mut heap = Heap::new(HeapConfig {
                phys_bytes: 64 << 20,
                layout,
                superpages,
                ..HeapConfig::default()
            });
            let overhead = heap.cell_bytes_needed(0, 0) / WORD;
            let mut objs = Vec::new();
            for class in [48u64, 96, 192, 384] {
                let words = class / WORD - overhead;
                let n = 2 * (64 << 10) / class;
                for i in 0..n {
                    let nrefs = (words - i % 3) as u32;
                    let obj = heap.alloc(nrefs, (words - nrefs as u64) as u32, false);
                    objs.push(obj.unwrap());
                }
            }
            // Every class has a live cell whose first and last words lie
            // on different pages.
            let mut split = BTreeSet::new();
            for b in heap.blocks() {
                for cell in (0..b.ncells).map(|c| b.base_va + c * b.cell_bytes) {
                    let live = matches!(
                        decode_cell_start(heap.read_va(cell)),
                        CellStart::Live { .. }
                    );
                    if live && cell / PAGE_SIZE != (cell + b.cell_bytes - WORD) / PAGE_SIZE {
                        split.insert(b.cell_bytes);
                    }
                }
            }
            assert_eq!(split, [48, 96, 192, 384].into(), "{name}");
            for &obj in &objs {
                for slot in 0..heap.nrefs(obj) {
                    if rng.random_range(0..8u32) == 0 {
                        let target = objs[rng.random_range(0..objs.len())];
                        heap.set_ref(obj, slot, Some(target));
                    }
                }
            }
            heap.set_roots(&[objs[0], objs[objs.len() / 2]]);
            compare_with_the_references(&name, &heap);
        }
    }
}

/// The "marked non-object" case: every object's mark is right, but the
/// reachable set also holds one address that is not an object. Only the
/// count comparison in the bitmap check can tell.
#[test]
fn a_reachable_non_object_is_a_divergence() {
    for layout in [LayoutKind::Bidirectional, LayoutKind::Conventional] {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            layout,
            ..HeapConfig::default()
        });
        let a = h.alloc(2, 2, false).unwrap();
        let b = h.alloc(0, 2, false).unwrap();
        h.set_ref(a, 0, Some(b));
        h.set_roots(&[a]);
        software_mark(&mut h);
        // A zero scalar word reads as a header with no references.
        let scalar = match layout {
            LayoutKind::Bidirectional => crate::layout::bidi::scalar_slot(b, 0),
            LayoutKind::Conventional => crate::layout::conv::field_slot(b, 0),
        };
        assert_eq!(h.read_va(scalar), 0);
        let slot = h.ref_slot_va(a, 1);
        h.write_va(slot, scalar);
        let want = reference::check_marks_match_reachability(&h);
        assert!(want.is_err(), "{layout:?}");
        assert_eq!(
            verify::check_marks_match_reachability(&h),
            want,
            "{layout:?}"
        );
        let reachable: BTreeSet<ObjRef> = [a, b, ObjRef::new(scalar)].into();
        assert_eq!(h.reachable_from_roots(), reachable, "{layout:?}");
        assert_eq!(h.marked_set(), [a, b].into(), "{layout:?}");
    }
}
