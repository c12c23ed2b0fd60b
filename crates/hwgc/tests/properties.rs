//! Property-based tests for the accelerator: the mark queue's spill
//! machinery never loses or duplicates entries, compression round-trips,
//! and the traversal unit matches the reachability oracle on arbitrary
//! graphs under arbitrary (legal) configurations. Randomized cases come
//! from fixed seeds.

use tracegc_heap::verify::check_marks_match_reachability;
use tracegc_heap::{Heap, HeapConfig, ObjRef};
use tracegc_hwgc::{GcUnitConfig, MarkQueue, MarkQueueConfig, RefCodec, TraversalUnit};
use tracegc_mem::{MemSystem, PhysMem};
use tracegc_sim::rng::{Rng, StdRng};

fn case_rng(property: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x496C_0000 + property * 10_007 + case)
}

#[test]
fn compression_roundtrips() {
    for case in 0..100 {
        let mut rng = case_rng(1, case);
        let word_off = rng.random_range(0u64..(u32::MAX as u64) + 1);
        let base = 0x2000_0000u64;
        let codec = RefCodec::Compressed { base };
        let va = base + word_off * 8;
        assert_eq!(codec.decode(codec.encode(va)), va, "case {case}");
    }
}

#[test]
fn markq_preserves_the_multiset_under_arbitrary_interleavings() {
    for case in 0..100 {
        let mut rng = case_rng(2, case);
        let main = rng.random_range(1usize..32);
        let compress = rng.random::<bool>();
        let codec = if compress {
            RefCodec::Compressed { base: 0x4000_0000 }
        } else {
            RefCodec::Full
        };
        let mut q = MarkQueue::new(MarkQueueConfig {
            main_entries: main,
            side_entries: 32,
            throttle_level: 24,
            codec,
            spill_base: 0,
            spill_bytes: 1 << 20,
        });
        let mut mem = MemSystem::pipe(Default::default());
        let mut phys = PhysMem::new(2 << 20);
        let mut pushed: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for _ in 0..rng.random_range(1usize..300) {
            let is_push = rng.random::<bool>();
            let off = rng.random_range(1u64..1 << 20);
            let mut port = true;
            q.tick(now, &mut mem, &mut phys, None, &mut port);
            if is_push {
                let va = 0x4000_0000 + off * 8;
                if q.enqueue(va) {
                    pushed.push(va);
                }
            } else if let Some(v) = q.dequeue() {
                popped.push(v);
            }
            now += 7;
        }
        // Drain completely.
        let mut idle = 0;
        now += 1_000_000;
        while !q.is_empty() {
            let mut port = true;
            q.tick(now, &mut mem, &mut phys, None, &mut port);
            while let Some(v) = q.dequeue() {
                popped.push(v);
            }
            now += 50;
            idle += 1;
            assert!(idle < 50_000, "case {case}: queue failed to drain");
        }
        pushed.sort_unstable();
        popped.sort_unstable();
        assert_eq!(pushed, popped, "case {case}");
    }
}

/// Builds a heap from a random edge list.
fn build_random_heap(n: usize, edges: &[(usize, usize)], roots: &[usize]) -> Heap {
    let mut heap = Heap::new(HeapConfig {
        phys_bytes: 32 << 20,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| heap.alloc(3, (i % 3) as u32, false).expect("fits"))
        .collect();
    let mut used = vec![0u32; n];
    for &(from, to) in edges {
        if used[from] < 3 {
            heap.set_ref(objs[from], used[from], Some(objs[to]));
            used[from] += 1;
        }
    }
    let root_refs: Vec<ObjRef> = roots.iter().map(|&i| objs[i]).collect();
    heap.set_roots(&root_refs);
    heap
}

#[test]
fn unit_matches_oracle_on_random_graphs() {
    // Each case drives the full cycle-level unit, so fewer cases than
    // the structural properties.
    for case in 0..40 {
        let mut rng = case_rng(3, case);
        let n = rng.random_range(4usize..80);
        let edges: Vec<(usize, usize)> = (0..rng.random_range(0usize..200))
            .map(|_| (rng.random_range(0usize..n), rng.random_range(0usize..n)))
            .collect();
        let root = rng.random_range(0usize..n);
        let markq_entries = rng.random_range(16usize..256);
        let marker_slots = rng.random_range(1usize..24);
        let markbit = [0usize, 16, 64][rng.random_range(0usize..3)];
        let compress = rng.random::<bool>();

        let mut heap = build_random_heap(n, &edges, &[root]);
        let cfg = GcUnitConfig {
            markq_entries,
            markq_side: 16,
            marker_slots,
            markbit_cache: markbit,
            compress,
            ..GcUnitConfig::default()
        };
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(cfg, &mut heap);
        let result = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
        assert!(check_marks_match_reachability(&heap).is_ok(), "case {case}");
        assert_eq!(
            result.objects_marked as usize,
            heap.reachable_from_roots().len(),
            "case {case}"
        );
    }
}
