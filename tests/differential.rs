//! Differential correctness: the hardware traversal/reclamation units
//! and the software collector must agree *exactly* — same marked-object
//! count, same marked-address fingerprint, same number of freed cells —
//! on randomized smoke-scale heaps across the whole benchmark suite.

use tracegc::heap::verify::{software_mark, software_sweep};
use tracegc::heap::{Heap, LayoutKind};
use tracegc::hwgc::{GcUnitConfig, ReclamationUnit, TraversalUnit};
use tracegc::mem::MemSystem;
use tracegc::workloads::generate::generate_heap;
use tracegc::workloads::spec::{BenchSpec, DACAPO};

/// Order-independent fingerprint of the marked addresses (FNV-1a over
/// the sorted address list), so two heaps can be compared without
/// shipping the whole set around in assertion messages.
fn marked_fingerprint(heap: &Heap) -> (u64, u64) {
    let marked = heap.marked_set();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for obj in &marked {
        for byte in obj.addr().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (marked.len() as u64, hash)
}

/// Marks and sweeps `spec`'s heap in hardware and in software, then
/// compares every observable outcome.
fn assert_hw_matches_sw(spec: &BenchSpec) {
    // Two identical heaps from the same seed.
    let mut hw = generate_heap(spec, LayoutKind::Bidirectional);
    let mut sw = generate_heap(spec, LayoutKind::Bidirectional);

    // Mark: cycle-level unit vs the functional software collector.
    let mut mem = MemSystem::ddr3(Default::default());
    let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut hw.heap);
    let mark = unit.try_run_mark(&mut hw.heap, &mut mem, 0).unwrap();
    let sw_marked = software_mark(&mut sw.heap);

    let (hw_count, hw_hash) = marked_fingerprint(&hw.heap);
    let (sw_count, sw_hash) = marked_fingerprint(&sw.heap);
    assert_eq!(
        hw_count, sw_count,
        "{}: unit marked {hw_count} objects, software marked {sw_count}",
        spec.name
    );
    assert_eq!(
        hw_hash, sw_hash,
        "{}: same count but different marked addresses",
        spec.name
    );
    assert_eq!(
        mark.objects_marked, sw_marked,
        "{}: unit's own counter disagrees with the software mark's",
        spec.name
    );

    // Sweep: the reclamation unit must free exactly what the software
    // sweep frees.
    let mut sweeper = ReclamationUnit::new(GcUnitConfig::default(), &hw.heap);
    let hw_sweep = sweeper.run_sweep(&mut hw.heap, &mut mem, 0);
    let sw_sweep = software_sweep(&mut sw.heap);
    assert_eq!(
        hw_sweep.cells_freed, sw_sweep.freed_cells,
        "{}: unit freed {} cells, software freed {}",
        spec.name, hw_sweep.cells_freed, sw_sweep.freed_cells
    );
    assert_eq!(
        hw.heap.total_free_cells(),
        sw.heap.total_free_cells(),
        "{}: free-list totals diverge after sweep",
        spec.name
    );
}

#[test]
fn every_benchmark_agrees_at_smoke_scale() {
    for spec in DACAPO {
        assert_hw_matches_sw(&spec.scaled(0.015));
    }
}

#[test]
fn randomized_seeds_agree() {
    // Re-seed one benchmark many times: the agreement must hold for
    // arbitrary object graphs, not just the six canned seeds.
    let base = DACAPO[0].scaled(0.015);
    for i in 0..10u64 {
        let mut spec = base;
        spec.seed = spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + 1);
        assert_hw_matches_sw(&spec);
    }
}

#[test]
fn agreement_survives_nondefault_unit_configs() {
    // Tiny mark queue (forces spilling), compression, no mark-bit
    // cache: correctness must not depend on the performance knobs.
    let spec = DACAPO[1].scaled(0.015);
    for cfg in [
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 8,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            compress: true,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            markbit_cache: 0,
            ..GcUnitConfig::default()
        },
    ] {
        let mut hw = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut sw = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(cfg, &mut hw.heap);
        unit.try_run_mark(&mut hw.heap, &mut mem, 0).unwrap();
        software_mark(&mut sw.heap);
        assert_eq!(
            marked_fingerprint(&hw.heap),
            marked_fingerprint(&sw.heap),
            "config {cfg:?}"
        );
    }
}
