//! Cross-crate differential correctness: for every benchmark and both
//! object layouts, the software collector, the GC unit and the
//! reachability oracle must agree exactly — the central invariant of
//! DESIGN.md §5.

use tracegc::cpu::{Cpu, CpuConfig};
use tracegc::heap::verify::{check_free_lists, check_marks_match_reachability, software_sweep};
use tracegc::heap::{Heap, LayoutKind};
use tracegc::hwgc::{GcUnit, GcUnitConfig, TraversalUnit};
use tracegc::mem::MemSystem;
use tracegc::workloads::generate::generate_heap;
use tracegc::workloads::spec::DACAPO;

/// The invariant pass every completed collection must satisfy: free
/// lists are well-formed and the sweep cleared every mark bit.
fn post_gc_invariants(heap: &Heap) {
    check_free_lists(heap).unwrap();
    assert!(
        heap.marked_set().is_empty(),
        "sweep must clear every mark bit"
    );
}

#[test]
fn unit_marks_equal_oracle_on_every_benchmark() {
    for spec in DACAPO {
        let spec = spec.scaled(0.02);
        let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut w.heap);
        let result = unit.try_run_mark(&mut w.heap, &mut mem, 0).unwrap();
        check_marks_match_reachability(&w.heap).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            result.objects_marked as usize, w.live_objects,
            "{}",
            spec.name
        );
    }
}

#[test]
fn unit_marks_equal_oracle_conventional_layout() {
    for spec in DACAPO.iter().take(2) {
        let spec = spec.scaled(0.02);
        let mut w = generate_heap(&spec, LayoutKind::Conventional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut w.heap);
        unit.try_run_mark(&mut w.heap, &mut mem, 0).unwrap();
        check_marks_match_reachability(&w.heap).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

#[test]
fn cpu_and_unit_produce_identical_sweeps() {
    for spec in DACAPO.iter().take(3) {
        let spec = spec.scaled(0.02);

        // CPU pipeline on copy A.
        let mut a = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem_a = MemSystem::ddr3(Default::default());
        let mut cpu = Cpu::new(CpuConfig::default(), &mut a.heap);
        let (mark_a, sweep_a) = cpu.run_gc(&mut a.heap, &mut mem_a);

        // Unit pipeline on copy B.
        let mut b = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem_b = MemSystem::ddr3(Default::default());
        let mut unit = GcUnit::new(GcUnitConfig::default(), &mut b.heap);
        let report = unit.try_run_gc_at(&mut b.heap, &mut mem_b, 0).unwrap();

        assert_eq!(
            mark_a.work_items, report.mark.objects_marked,
            "{}",
            spec.name
        );
        assert_eq!(
            sweep_a.work_items, report.sweep.cells_freed,
            "{}",
            spec.name
        );
        post_gc_invariants(&a.heap);
        post_gc_invariants(&b.heap);
        // Block-level metadata must agree exactly.
        for (ba, bb) in a.heap.blocks().iter().zip(b.heap.blocks()) {
            assert_eq!(ba.free_cells, bb.free_cells, "{}", spec.name);
            assert_eq!(ba.free_head, bb.free_head, "{}", spec.name);
        }
    }
}

#[test]
fn unit_sweep_equals_software_sweep_oracle() {
    let spec = DACAPO[0].scaled(0.03);

    let mut oracle = generate_heap(&spec, LayoutKind::Bidirectional);
    tracegc::heap::verify::software_mark(&mut oracle.heap);
    let expected = software_sweep(&mut oracle.heap);

    let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
    let mut mem = MemSystem::ddr3(Default::default());
    let mut unit = GcUnit::new(GcUnitConfig::default(), &mut w.heap);
    let report = unit.try_run_gc_at(&mut w.heap, &mut mem, 0).unwrap();

    assert_eq!(report.sweep.cells_freed, expected.freed_cells);
    assert_eq!(report.sweep.live_objects, expected.live_objects);
}

#[test]
fn aggressive_unit_configs_stay_correct() {
    // Stress the spill/throttle/backpressure machinery with degenerate
    // configurations.
    let spec = DACAPO[2].scaled(0.02);
    let configs = [
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            compress: true,
            tracer_queue: 2,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            marker_slots: 1,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            markbit_cache: 256,
            sweepers: 8,
            ..GcUnitConfig::default()
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(cfg, &mut w.heap);
        unit.try_run_mark(&mut w.heap, &mut mem, 0).unwrap();
        check_marks_match_reachability(&w.heap).unwrap_or_else(|e| panic!("config {i}: {e}"));
    }
}

#[test]
fn fallback_completed_collections_satisfy_post_gc_invariants() {
    // One collection per injected fault class: each traps, degrades to
    // the software-fallback mark, sweeps, and must leave the heap in
    // the same verified state as a clean collection.
    use tracegc::runner::{run_unit_gc, MemKind};
    use tracegc::sim::FaultConfig;

    let spec = DACAPO[0].scaled(0.02);
    let classes: [(&str, FaultConfig); 4] = [
        (
            "corrupt-ref",
            FaultConfig {
                seed: 21,
                corrupt_ref_rate: 0.02,
                ..FaultConfig::default()
            },
        ),
        (
            "corrupt-header",
            FaultConfig {
                seed: 5,
                corrupt_header_rate: 0.02,
                ..FaultConfig::default()
            },
        ),
        (
            // PTE faults only fire on actual page-table walks, and the
            // small test heap keeps the TLB warm — a high per-walk rate
            // makes the handful of walks deterministic targets.
            "pte-fault",
            FaultConfig {
                seed: 9,
                pte_fault_rate: 0.5,
                ..FaultConfig::default()
            },
        ),
        (
            "mem-timeout",
            FaultConfig {
                seed: 2,
                drop_rate: 1.0,
                ..FaultConfig::default()
            },
        ),
    ];
    for (name, fault) in classes {
        let heap = &mut generate_heap(&spec, LayoutKind::Bidirectional).heap;
        let cfg = GcUnitConfig::default();
        let run = run_unit_gc(heap, cfg, MemKind::ddr3_default(), Some(fault));
        assert!(run.fallback.is_some(), "{name}: expected a fallback");
        post_gc_invariants(heap);
    }
}

#[test]
fn multi_gc_cycles_with_allocation_reuse() {
    let spec = DACAPO[1].scaled(0.02);
    let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
    let blocks_after_first: usize;
    {
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = GcUnit::new(GcUnitConfig::default(), &mut w.heap);
        unit.try_run_gc_at(&mut w.heap, &mut mem, 0).unwrap();
        blocks_after_first = w.heap.blocks().len();
    }
    for _ in 0..3 {
        tracegc::workloads::generate::churn(&mut w, 0.2);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = GcUnit::new(GcUnitConfig::default(), &mut w.heap);
        unit.try_run_gc_at(&mut w.heap, &mut mem, 0).unwrap();
        post_gc_invariants(&w.heap);
    }
    // Churn + sweep reuse should not balloon the block count much.
    assert!(
        w.heap.blocks().len() <= blocks_after_first + 4,
        "blocks grew from {blocks_after_first} to {}",
        w.heap.blocks().len()
    );
}
