//! Quickstart: build a heap, collect it with both the software collector
//! and the GC accelerator, and compare.
//!
//! ```text
//! cargo run --release -p tracegc --example quickstart
//! ```

use tracegc::cpu::{Cpu, CpuConfig};
use tracegc::heap::verify::{check_free_lists, check_marks_match_reachability};
use tracegc::heap::{Heap, HeapConfig, ObjRef};
use tracegc::hwgc::{GcUnit, GcUnitConfig};
use tracegc::mem::MemSystem;
use tracegc::sim::cycles_to_ms;

fn build_demo_heap() -> Heap {
    let mut heap = Heap::new(HeapConfig::default());
    // A binary tree of 50,000 live objects plus 30,000 garbage objects.
    let live: Vec<ObjRef> = (0..50_000)
        .map(|i| heap.alloc(2, (i % 4) as u32, false).expect("heap fits"))
        .collect();
    for i in 0..live.len() {
        if 2 * i + 1 < live.len() {
            heap.set_ref(live[i], 0, Some(live[2 * i + 1]));
        }
        if 2 * i + 2 < live.len() {
            heap.set_ref(live[i], 1, Some(live[2 * i + 2]));
        }
    }
    let garbage: Vec<ObjRef> = (0..30_000)
        .map(|i| heap.alloc(1, (i % 8) as u32, false).expect("heap fits"))
        .collect();
    for w in garbage.windows(2) {
        heap.set_ref(w[0], 0, Some(w[1]));
    }
    heap.set_roots(&[live[0]]);
    heap
}

fn main() {
    println!("tracegc quickstart: one GC pause, two collectors\n");

    // --- Software collector on the in-order Rocket-like core. ---
    let mut heap = build_demo_heap();
    let mut mem = MemSystem::ddr3(Default::default());
    let mut cpu = Cpu::new(CpuConfig::default(), &mut heap);
    let (mark, sweep) = cpu.run_gc(&mut heap, &mut mem);
    check_free_lists(&heap).expect("free lists consistent");
    println!(
        "Rocket CPU : mark {:>7.3} ms ({} objects), sweep {:>7.3} ms ({} cells freed)",
        cycles_to_ms(mark.cycles),
        mark.work_items,
        cycles_to_ms(sweep.cycles),
        sweep.work_items,
    );

    // --- The GC accelerator on an identical heap. ---
    let mut heap = build_demo_heap();
    let mut mem = MemSystem::ddr3(Default::default());
    let mut unit = GcUnit::new(GcUnitConfig::default(), &mut heap);

    // Verify the mark result against the reachability oracle before the
    // sweep clears the bits.
    let mark_report = {
        let mut heap2 = build_demo_heap();
        let mut mem2 = MemSystem::ddr3(Default::default());
        let mut unit2 = tracegc::hwgc::TraversalUnit::new(GcUnitConfig::default(), &mut heap2);
        let r = unit2
            .try_run_mark(&mut heap2, &mut mem2, 0)
            .expect("TraversalUnit::try_run_mark faulted on a clean heap");
        check_marks_match_reachability(&heap2).expect("unit marks == reachability oracle");
        r
    };

    let report = unit
        .try_run_gc_at(&mut heap, &mut mem, 0)
        .expect("GcUnit::try_run_gc_at faulted on a clean heap");
    check_free_lists(&heap).expect("free lists consistent");
    println!(
        "GC unit    : mark {:>7.3} ms ({} objects), sweep {:>7.3} ms ({} cells freed)",
        cycles_to_ms(report.mark.cycles()),
        report.mark.objects_marked,
        cycles_to_ms(report.sweep.cycles()),
        report.sweep.cells_freed,
    );

    assert_eq!(mark.work_items, report.mark.objects_marked);
    assert_eq!(sweep.work_items, report.sweep.cells_freed);

    println!(
        "\nSpeedup    : mark {:.2}x, sweep {:.2}x, total {:.2}x  (paper: 4.2x / 1.9x / 3.3x)",
        mark.cycles as f64 / report.mark.cycles() as f64,
        sweep.cycles as f64 / report.sweep.cycles() as f64,
        (mark.cycles + sweep.cycles) as f64 / report.total_cycles() as f64,
    );
    println!(
        "Unit stats : {} refs traced through the mark queue, {} spill writes, \
         oracle check passed ({} marks)",
        report.mark.refs_enqueued, report.mark.markq.spill_writes, mark_report.objects_marked,
    );
}
