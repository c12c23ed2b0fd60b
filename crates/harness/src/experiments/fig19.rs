//! Fig. 19: mark-queue size trade-offs.
//!
//! "The mark queue is the largest SRAM of our unit and we assumed that
//! its size has a major impact on performance. [...] We were surprised
//! to find that the mark queue's impact on overall performance is
//! small" — spilling accounts for only ≈2% of memory requests at the
//! 1,024-entry baseline, and compression halves spill traffic.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc_faulted, MemKind};
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
    // The 4x3 size-by-variant grid.
    let grid: Vec<(u64, Variant)> = SIZES_KB
        .iter()
        .flat_map(|&kb| VARIANTS.map(|v| (kb, v)))
        .collect();
    let rows = grid.into_iter().map(|(kb, v)| {
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
        let run = run_unit_gc_faulted(
            &spec,
            LayoutKind::Bidirectional,
            cfg,
            MemKind::ddr3_default(),
            false,
            opts.fault,
        );
        let q = run.report.mark.markq;
        let spill_reqs = q.spill_writes + q.spill_reads;
        let total_reqs = run.snapshot.total_requests;
        let row = vec![
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
        ];
        let phase = (
            format!("avrora.{kb}kb.{}.unit_mark", v.label),
            run.report.mark.cycles(),
            run.report.mark.stalls,
        );
        (
            row,
            phase,
            q.peak_occupancy,
            run.fault_stats,
            run.fallback.is_some(),
        )
    });
    let mut metrics = MetricsDoc::new("fig19");
    let mut peak_occupancy = 0u64;
    for (row, (name, cycles, stalls), peak, stats, fell_back) in rows {
        table.row(row);
        metrics.phase(&name, cycles, 1, stalls);
        peak_occupancy = peak_occupancy.max(peak);
        super::note_unit_faults(&mut metrics, &stats, fell_back);
    }
    metrics.counter("peak_markq_occupancy", peak_occupancy);
    ExperimentOutput {
        id: "fig19",
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
