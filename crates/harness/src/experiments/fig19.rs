//! Fig. 19: mark-queue size trade-offs.
//!
//! "The mark queue is the largest SRAM of our unit and we assumed that
//! its size has a major impact on performance. [...] We were surprised
//! to find that the mark queue's impact on overall performance is
//! small" — spilling accounts for only ≈2% of memory requests at the
//! 1,024-entry baseline, and compression halves spill traffic.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc, MemKind};
use crate::table::{ms, Table};

/// Mark-queue capacities matching the paper's x-axis (total KB
/// including `inQ`/`outQ`).
const SIZES_KB: [u64; 4] = [2, 4, 18, 130];

#[derive(Clone, Copy)]
struct Variant {
    label: &'static str,
    tracer_queue: usize,
    compress: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        label: "TQ=128",
        tracer_queue: 128,
        compress: false,
    },
    Variant {
        label: "TQ=8",
        tracer_queue: 8,
        compress: false,
    },
    Variant {
        label: "compressed",
        tracer_queue: 128,
        compress: true,
    },
];

/// Sweeps the mark-queue size for each variant on avrora.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let mut table = Table::new(
        "Fig 19: mark-queue size sweep (avrora)",
        &[
            "size-kb",
            "variant",
            "spill-writes",
            "spill-reads",
            "spill-%-of-reqs",
            "peak-spilled",
            "mark-ms",
        ],
    );
    let mut metrics = MetricsDoc::new("fig19");
    let mut peak_occupancy = 0u64;
    // The 4x3 size-by-variant sweep.
    for kb in SIZES_KB {
        for v in VARIANTS {
            let side = 32usize;
            let entry = if v.compress { 4 } else { 8 };
            let total_entries = (kb * 1024 / entry) as usize;
            let main = total_entries.saturating_sub(2 * side).max(16);
            let cfg = GcUnitConfig {
                markq_entries: main,
                markq_side: side,
                tracer_queue: v.tracer_queue,
                compress: v.compress,
                ..GcUnitConfig::default()
            };
            let run = run_unit_gc(&mut heap.clone(), cfg, MemKind::ddr3_default(), opts.fault);
            let q = run.report.mark.markq;
            let spill_reqs = q.spill_writes + q.spill_reads;
            let total_reqs = run.snapshot.total_requests;
            table.row(vec![
                format!("{kb}"),
                v.label.into(),
                format!("{}", q.spill_writes),
                format!("{}", q.spill_reads),
                format!(
                    "{:.1}%",
                    100.0 * spill_reqs as f64 / total_reqs.max(1) as f64
                ),
                format!("{}", q.peak_spilled),
                ms(run.report.mark.cycles()),
            ]);
            metrics.phase(
                &format!("avrora.{kb}kb.{}.unit_mark", v.label),
                run.report.mark.cycles(),
                1,
                run.report.mark.stalls,
            );
            peak_occupancy = peak_occupancy.max(q.peak_occupancy);
            super::note_unit_faults(&mut metrics, &run);
        }
    }
    metrics.counter("peak_markq_occupancy", peak_occupancy);
    ExperimentOutput {
        title: "Fig 19: mark-queue size trade-offs",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: spilling shrinks with queue size but accounts for only ~2% of \
             memory requests; compression reduces spilling by 2x; overall mark time \
             is almost flat (most traversal parallelism exists at the beginning; in \
             steady state enqueue and dequeue rates match)."
                .into(),
        ],
    }
}
