//! `heapscale`: the unit at production heap sizes (ROADMAP item 2).
//!
//! The paper evaluates a 200 MB heap cap (§VI-A) but every other
//! experiment here runs the ~10× scaled-down suite of DESIGN.md. This
//! sweep asks the question a deployment would: how do the traversal
//! unit's fixed-size SRAM structures — the 1,024-entry mark queue, the
//! spill engine behind it (§V-C) and the mark-bit cache (Fig. 21) —
//! hold up as the live set grows from DaCapo-small through the paper's
//! exact 200 MB to multi-GB server heaps with millions of objects?
//!
//! Heaps come from the streamed generators (`tracegc_workloads::stream`),
//! so neither the generator nor the sparse physical memory materializes
//! anything proportional to total allocations: a row's host cost tracks
//! its *live* set. Shapes cover the production-traffic patterns the
//! DaCapo mix does not: LRU cache churn, request/session allocation
//! storms, social-graph supernodes and actor-mesh message passing.
//!
//! All reported columns are deterministic (simulated counters only);
//! host RSS is checked by the CLI's `--rss-ceiling-mb` gate, not
//! recorded here.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::stream::objects_for_mb;
use tracegc_workloads::{StreamShape, StreamSpec};

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc_stream, MemKind, StreamRun};
use crate::table::{ms, Table};

/// The DaCapo-like spanning-forest shape (cross-edge skew as Fig. 21a).
const FOREST: StreamShape = StreamShape::Forest {
    mean_refs: 2.2,
    array_fraction: 0.1,
    popularity_s: 1.1,
    hot_fraction: 0.1,
    garbage_factor: 0.5,
};

/// The sweep grid: (target live MB at scale 1.0, scale exponent,
/// spec). Ordered by heap size; `paper200` is the paper's exact 200 MB
/// configuration and `server-lru` is the ≥1 GB server-shape row CI's
/// RSS gate watches. The server row's live target follows
/// `scale^1.5` — full-size at `--scale 1.0` but super-linearly smaller
/// at the smoke/golden tiers, so the debug-mode test wall doesn't pay
/// for a 135k-object heap on every registry sweep.
fn grid() -> Vec<(u64, f64, StreamSpec)> {
    let spec = |name, mb, expo, shape| {
        (
            mb,
            expo,
            StreamSpec {
                name,
                shape,
                live_objects: objects_for_mb(mb),
                window: 4096,
                hot_set: 56,
                roots: 64,
                seed: 0x9EA5_CA1E,
            },
        )
    };
    vec![
        spec("dacapo-mix", 32, 1.0, FOREST),
        spec(
            "lru-churn",
            64,
            1.0,
            StreamShape::LruCache { churn_factor: 3.0 },
        ),
        spec(
            "sessions",
            64,
            1.0,
            StreamShape::RequestSession {
                session_objects: 24,
                survivor_fraction: 0.12,
            },
        ),
        spec(
            "social-graph",
            64,
            1.0,
            StreamShape::SocialGraph {
                supernodes: 12,
                supernode_degree: 2048,
            },
        ),
        spec(
            "actor-mesh",
            64,
            1.0,
            StreamShape::ActorMesh {
                peers: 3,
                mailbox_depth: 4,
                churn_messages: 6.0,
            },
        ),
        spec("paper200", 200, 1.0, FOREST),
        // 1536 MB target: LRU entries average ~82 bytes against the
        // 120 B/object sizing estimate, so this is what actually
        // yields a ≥1 GB measured live set (est_live_bytes) at
        // --scale 1.0.
        spec(
            "server-lru",
            1536,
            1.5,
            StreamShape::LruCache { churn_factor: 2.0 },
        ),
    ]
}

/// Unit configuration for a given live-set size: the paper's baseline
/// plus the Fig. 21 mark-bit cache at its largest evaluated size, and a
/// spill region provisioned for the worst case (every live object
/// pending at once) so no row can hit `Trap::SpillExhausted` — the
/// sparse physical memory makes the generous reservation free.
fn unit_cfg(live_objects: usize) -> GcUnitConfig {
    GcUnitConfig {
        markbit_cache: 256,
        spill_bytes: (live_objects as u64 * 16)
            .next_multiple_of(1 << 20)
            .max(4 << 20),
        ..GcUnitConfig::default()
    }
}

/// Mark-queue pressure, spill traffic and mark-bit cache filtering
/// versus live-set size.
pub fn run(opts: &Options) -> ExperimentOutput {
    let mut table = Table::new(
        "heapscale: SRAM-bounded structures vs live-set size",
        &[
            "workload",
            "target-mb",
            "live-objects",
            "allocated",
            "live-mb",
            "resident-mb",
            "markq-peak",
            "spill-peak",
            "spill-mb",
            "filtered-%",
            "mark-ms",
            "sweep-ms",
        ],
    );
    let rows = grid().into_iter().map(|(mb, expo, spec)| {
        let spec = spec.scaled(opts.scale.powf(expo));
        let run = run_unit_gc_stream(
            &spec,
            LayoutKind::Bidirectional,
            unit_cfg(spec.live_objects),
            MemKind::ddr3_default(),
        );
        let mark = &run.report.mark;
        let attempts = mark.objects_marked + mark.already_marked + mark.filtered;
        let q = &mark.markq;
        let row = vec![
            spec.name.into(),
            format!("{mb}"),
            format!("{}", run.live_objects),
            format!("{}", run.gen_stats.allocated),
            format!(
                "{:.1}",
                run.gen_stats.est_live_bytes as f64 / (1 << 20) as f64
            ),
            format!("{:.1}", run.resident_bytes as f64 / (1 << 20) as f64),
            format!("{}", q.peak_occupancy),
            format!("{}", q.peak_spilled),
            format!("{:.2}", q.spill_bytes_written as f64 / (1 << 20) as f64),
            format!(
                "{:.1}%",
                100.0 * mark.filtered as f64 / attempts.max(1) as f64
            ),
            ms(mark.cycles()),
            ms(run.report.sweep.cycles()),
        ];
        (row, run)
    });
    let mut metrics = MetricsDoc::new("heapscale");
    let mut live_total = 0u64;
    let mut spill_total = 0u64;
    let mut resident_total = 0u64;
    for ((_, _, spec), (row, run)) in grid().iter().zip(rows) {
        table.row(row);
        record_row(&mut metrics, spec.name, &run);
        live_total += run.live_objects;
        spill_total += run.report.mark.markq.spill_bytes_written;
        resident_total += run.resident_bytes;
    }
    metrics.counter("live_objects", live_total);
    metrics.counter("spill_bytes_written", spill_total);
    metrics.counter("resident_bytes", resident_total);
    ExperimentOutput {
        id: "heapscale",
        title: "heapscale: paper-scale and server-scale heaps",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "paper200 at --scale 1.0 is the paper's exact 200 MB heap configuration \
             (§VI-A); server-lru at --scale 1.0 holds a ≥1 GB live set."
                .into(),
            "resident-mb counts sparse physical chunks actually written — the \
             simulated footprint the CI host-RSS ceiling is a multiple of."
                .into(),
            "Columns are simulated counters only, byte-identical across --jobs; \
             host RSS is gated separately via --rss-ceiling-mb."
                .into(),
        ],
    }
}

fn record_row(metrics: &mut MetricsDoc, name: &str, run: &StreamRun) {
    metrics.phase(
        &format!("{name}.unit_mark"),
        run.report.mark.cycles(),
        1,
        run.report.mark.stalls,
    );
    metrics.phase(
        &format!("{name}.unit_sweep"),
        run.report.sweep.cycles(),
        run.report.sweep.lanes,
        run.report.sweep.stalls,
    );
    metrics.counter(
        &format!("{name}.markq_peak"),
        run.report.mark.markq.peak_occupancy,
    );
    metrics.counter(
        &format!("{name}.spill_peak"),
        run.report.mark.markq.peak_spilled,
    );
    metrics.counter(&format!("{name}.resident_bytes"), run.resident_bytes);
}
