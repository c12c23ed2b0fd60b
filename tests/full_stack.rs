//! Full-stack behavioural checks: paper-shaped *performance* properties
//! that must hold across the whole simulator, not just functional
//! equality.

use tracegc::heap::LayoutKind;
use tracegc::hwgc::{GcUnitConfig, MarkQueueStats};
use tracegc::mem::Source;
use tracegc::runner::{run_unit_gc, DualRun, MemKind, UnitRun};
use tracegc::vmem::TlbConfig;
use tracegc::workloads::generate::generate_heap;
use tracegc::workloads::spec::by_name;

fn spec(name: &str) -> tracegc::workloads::spec::BenchSpec {
    by_name(name).expect("benchmark exists").scaled(0.03)
}

/// One clean unit-only collection of a fresh `name` heap.
fn unit_gc(name: &str, cfg: GcUnitConfig, mem_kind: MemKind) -> UnitRun {
    let heap = &mut generate_heap(&spec(name), LayoutKind::Bidirectional).heap;
    run_unit_gc(heap, cfg, mem_kind, None)
}

#[test]
fn unit_beats_cpu_on_both_phases_for_every_memory_system() {
    for mem_kind in [MemKind::ddr3_default(), MemKind::pipe_8gbps()] {
        let mut run = DualRun::new(
            &spec("avrora"),
            LayoutKind::Bidirectional,
            GcUnitConfig::default(),
        );
        let p = run.run_pause(mem_kind);
        assert!(p.mark_speedup() > 1.5, "mark speedup {}", p.mark_speedup());
        assert!(
            p.sweep_speedup() > 1.0,
            "sweep speedup {}",
            p.sweep_speedup()
        );
    }
}

#[test]
fn faster_memory_increases_the_units_advantage() {
    // Fig. 15 vs Fig. 17: the unit's mark speedup grows with memory
    // bandwidth because the CPU cannot exploit it.
    let mut ddr_run = DualRun::new(
        &spec("xalan"),
        LayoutKind::Bidirectional,
        GcUnitConfig::default(),
    );
    let ddr = ddr_run.run_pause(MemKind::ddr3_default());
    let mut pipe_run = DualRun::new(
        &spec("xalan"),
        LayoutKind::Bidirectional,
        GcUnitConfig::default(),
    );
    let pipe = pipe_run.run_pause(MemKind::pipe_8gbps());
    assert!(
        pipe.mark_speedup() > ddr.mark_speedup(),
        "pipe {} <= ddr {}",
        pipe.mark_speedup(),
        ddr.mark_speedup()
    );
}

#[test]
fn spilling_is_a_small_fraction_of_requests_at_baseline() {
    // Fig. 19's surprise: at the 1,024-entry baseline, spilling is ~2%
    // of memory requests.
    let run = unit_gc("avrora", GcUnitConfig::default(), MemKind::ddr3_default());
    let q: MarkQueueStats = run.report.mark.markq;
    let spill = q.spill_writes + q.spill_reads;
    let frac = spill as f64 / run.snapshot.total_requests.max(1) as f64;
    assert!(frac < 0.10, "spill fraction {frac}");
}

#[test]
fn compression_halves_spill_bytes_end_to_end() {
    let small_q = |compress| GcUnitConfig {
        markq_entries: 32,
        markq_side: 16,
        compress,
        ..GcUnitConfig::default()
    };
    let full = unit_gc("pmd", small_q(false), MemKind::ddr3_default())
        .report
        .mark
        .markq
        .spill_bytes_written;
    let compressed = unit_gc("pmd", small_q(true), MemKind::ddr3_default())
        .report
        .mark
        .markq
        .spill_bytes_written;
    assert!(full > 0);
    let ratio = compressed as f64 / full as f64;
    assert!((0.3..=0.7).contains(&ratio), "compression ratio {ratio}");
}

#[test]
fn marker_and_tracer_dominate_partitioned_memory_traffic() {
    // Fig. 18b.
    let run = unit_gc("xalan", GcUnitConfig::default(), MemKind::ddr3_default());
    let s = &run.snapshot;
    let work = s.requests(Source::Marker) + s.requests(Source::Tracer);
    let overhead = s.requests(Source::Ptw) + s.requests(Source::MarkQueue);
    assert!(
        work > overhead,
        "work {work} should dominate overhead {overhead}"
    );
}

#[test]
fn nonblocking_walker_helps_on_fast_memory() {
    // ablC: the paper's proposed future-work walker.
    let time = |walks| {
        unit_gc(
            "xalan",
            GcUnitConfig {
                tlb: TlbConfig {
                    concurrent_walks: walks,
                    ..TlbConfig::default()
                },
                ..GcUnitConfig::default()
            },
            MemKind::pipe_8gbps(),
        )
        .report
        .mark
        .cycles()
    };
    assert!(time(4) <= time(1));
}

#[test]
fn energy_model_reproduces_fig23_direction() {
    let model = tracegc::model::EnergyModel::default();
    // Run at figure scale: with tiny heaps the CPU's caches absorb most
    // traffic and the unit's per-request DRAM energy genuinely loses —
    // Fig. 23's claim is about benchmark-sized heaps.
    let mut run = DualRun::new(
        &by_name("sunflow").expect("sunflow exists").scaled(0.25),
        LayoutKind::Bidirectional,
        GcUnitConfig::default(),
    );
    let p = run.run_pause(MemKind::ddr3_default());
    let cpu = model.pause_energy(
        tracegc::model::Agent::RocketCore,
        p.cpu_mark_cycles + p.cpu_sweep_cycles,
        p.cpu_mem.total_bytes,
        p.cpu_mem.total_requests,
        p.cpu_mem.activates.unwrap_or(0),
    );
    let unit = model.pause_energy(
        tracegc::model::Agent::GcUnit,
        p.unit_mark_cycles + p.unit_sweep_cycles,
        p.unit_mem.total_bytes,
        p.unit_mem.total_requests,
        p.unit_mem.activates.unwrap_or(0),
    );
    // Fig. 23: higher DRAM power, lower total energy.
    assert!(unit.dram_power_mw > cpu.dram_power_mw);
    assert!(unit.total_mj() < cpu.total_mj());
}
