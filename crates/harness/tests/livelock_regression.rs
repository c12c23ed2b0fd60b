//! Regression test for a spill-engine deadlock: with compressed entries,
//! one spill chunk (16 entries) exceeded the tracer-throttle level (12),
//! so `outQ` could park at 12–15 entries — permanently throttling the
//! tracer — while the spill engine waited for a full chunk and the
//! marker's blocked deliveries spun. The fix spills partial chunks as
//! soon as the throttle asserts (the paper's "by prioritizing memory
//! requests from outQ, we avoid deadlock", §V-C).

use tracegc::heap::verify::check_marks_match_reachability;
use tracegc::heap::LayoutKind;
use tracegc::hwgc::{GcUnitConfig, TraversalUnit};
use tracegc::mem::MemSystem;
use tracegc::workloads::generate::generate_heap;
use tracegc::workloads::spec::DACAPO;

#[test]
fn degenerate_queue_configs_always_drain() {
    let spec = DACAPO[2].scaled(0.02);
    let configs = [
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            ..GcUnitConfig::default()
        },
        // The deadlocking configuration: compressed entries + side
        // queues of exactly one chunk + a 2-entry tracer queue.
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            compress: true,
            tracer_queue: 2,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 17, // odd side size, compressed
            compress: true,
            tracer_queue: 1,
            marker_slots: 2,
            ..GcUnitConfig::default()
        },
        GcUnitConfig {
            marker_slots: 1,
            tracer_queue: 1,
            ..GcUnitConfig::default()
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(cfg, &mut w.heap);
        let r = unit.try_run_mark(&mut w.heap, &mut mem, 0).unwrap();
        assert!(r.cycles() > 0, "config {i}");
        check_marks_match_reachability(&w.heap).unwrap_or_else(|e| panic!("config {i}: {e}"));
    }
}
