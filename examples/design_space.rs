//! Walk the accelerator's design space the way §VI-B does: mark-queue
//! size, compression, mark-bit cache, sweeper count and cache topology —
//! and see the area cost of each choice next to its performance.
//!
//! ```text
//! cargo run --release -p tracegc --example design_space
//! ```

use tracegc::heap::LayoutKind;
use tracegc::hwgc::{CacheTopology, GcUnitConfig};
use tracegc::model::area::gc_unit_area;
use tracegc::runner::{run_unit_gc, MemKind};
use tracegc::sim::cycles_to_ms;
use tracegc::workloads::generate::generate_heap;
use tracegc::workloads::spec::by_name;

fn measure(label: &str, cfg: GcUnitConfig) {
    let spec = by_name("avrora").expect("avrora exists").scaled(0.15);
    let heap = &mut generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let run = run_unit_gc(heap, cfg, MemKind::ddr3_default(), None);
    let area = gc_unit_area(&cfg);
    println!(
        "{label:<26} mark {:>6.3} ms  sweep {:>6.3} ms  spills {:>5}  area {:>5.3} mm^2",
        cycles_to_ms(run.report.mark.cycles()),
        cycles_to_ms(run.report.sweep.cycles()),
        run.report.mark.markq.spill_writes + run.report.mark.markq.spill_reads,
        area.total(),
    );
}

fn main() {
    println!("GC-unit design space on avrora (DDR3, Table I)\n");
    let base = GcUnitConfig::default();

    measure("baseline (paper VI-A)", base);
    measure(
        "tiny mark queue (128)",
        GcUnitConfig {
            markq_entries: 128,
            ..base
        },
    );
    measure(
        "huge mark queue (16k)",
        GcUnitConfig {
            markq_entries: 16 * 1024,
            ..base
        },
    );
    measure(
        "compressed refs",
        GcUnitConfig {
            compress: true,
            ..base
        },
    );
    measure(
        "mark-bit cache (64)",
        GcUnitConfig {
            markbit_cache: 64,
            ..base
        },
    );
    measure(
        "4 sweepers",
        GcUnitConfig {
            sweepers: 4,
            ..base
        },
    );
    measure(
        "8 sweepers",
        GcUnitConfig {
            sweepers: 8,
            ..base
        },
    );
    measure(
        "shared cache (pre-V-C)",
        GcUnitConfig {
            topology: CacheTopology::Shared,
            ..base
        },
    );
    measure(
        "4 marker slots",
        GcUnitConfig {
            marker_slots: 4,
            ..base
        },
    );
    measure(
        "8-entry tracer queue",
        GcUnitConfig {
            tracer_queue: 8,
            ..base
        },
    );

    println!(
        "\nObservations to look for (paper §VI-B): the mark queue can shrink a lot \
         without hurting\nperformance (spilling absorbs overflow), compression halves \
         spill traffic, sweeper scaling\nsaturates, and the shared-cache topology is \
         crippled by PTW contention."
    );
}
