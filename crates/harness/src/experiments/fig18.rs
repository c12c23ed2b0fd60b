//! Fig. 18: traversal-unit memory requests and cache partitioning.
//!
//! * Fig. 18a — with one shared cache, 2/3 of cache requests come from
//!   the page-table walker, drowning everyone else in crossbar
//!   contention.
//! * Fig. 18b — after partitioning (dedicated PTW cache, marker/tracer
//!   direct to the interconnect), marker and tracer dominate the
//!   requests that reach actual memory, "which is the intention, as
//!   these are the units that perform the actual work".

use tracegc_heap::LayoutKind;
use tracegc_hwgc::{CacheTopology, GcUnitConfig};
use tracegc_mem::Source;
use tracegc_workloads::spec::DACAPO;

use tracegc_sim::StallAccounting;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc_faulted, MemKind};
use crate::table::Table;

const FIG18_SOURCES: [Source; 4] = [
    Source::MarkQueue,
    Source::Tracer,
    Source::Ptw,
    Source::Marker,
];

/// Per-source request breakdowns under both topologies.
pub fn run(opts: &Options) -> ExperimentOutput {
    let mut shared = Table::new(
        "Fig 18a: L1 (shared) cache requests by source (millions)",
        &[
            "bench",
            "mark-queue",
            "tracer",
            "ptw",
            "marker",
            "ptw-share",
        ],
    );
    let mut partitioned = Table::new(
        "Fig 18b: memory requests by source, partitioned config (millions)",
        &[
            "bench",
            "mark-queue",
            "tracer",
            "ptw",
            "marker",
            "marker+tracer-share",
        ],
    );
    let m = |v: u64| format!("{:.3}", v as f64 / 1e6);
    // Every (benchmark, topology) pair is an independent grid point.
    let grid: Vec<(tracegc_workloads::spec::BenchSpec, bool)> = DACAPO
        .iter()
        .flat_map(|&spec| [(spec, true), (spec, false)])
        .collect();
    let rows: Vec<_> = grid
        .into_iter()
        .map(|(spec, shared_topology)| {
            // The TLB-pressure effect needs a heap well beyond the TLB
            // reach, as in the paper's 200 MB configuration, so fig18 always
            // runs at full workload scale.
            let spec = spec.scaled(opts.scale.max(1.0));
            let phase_of = |run: &crate::runner::UnitRun,
                            topo: &str|
             -> Vec<(String, u64, u64, StallAccounting)> {
                vec![
                    (
                        format!("{}.{topo}.unit_mark", spec.name),
                        run.report.mark.cycles(),
                        1,
                        run.report.mark.stalls,
                    ),
                    (
                        format!("{}.{topo}.unit_sweep", spec.name),
                        run.report.sweep.cycles(),
                        run.report.sweep.lanes,
                        run.report.sweep.stalls,
                    ),
                ]
            };
            if shared_topology {
                // Shared topology: count accesses at the shared cache.
                let run = run_unit_gc_faulted(
                    &spec,
                    LayoutKind::Bidirectional,
                    GcUnitConfig {
                        topology: CacheTopology::Shared,
                        ..GcUnitConfig::default()
                    },
                    MemKind::ddr3_default(),
                    false,
                    opts.fault,
                );
                let stats = run
                    .unit
                    .traversal()
                    .shared_cache_stats()
                    .expect("shared topology has a shared cache")
                    .clone();
                let total: u64 = FIG18_SOURCES.iter().map(|&s| stats.accesses(s)).sum();
                let row = vec![
                    spec.name.into(),
                    m(stats.accesses(Source::MarkQueue)),
                    m(stats.accesses(Source::Tracer)),
                    m(stats.accesses(Source::Ptw)),
                    m(stats.accesses(Source::Marker)),
                    format!(
                        "{:.0}%",
                        100.0 * stats.accesses(Source::Ptw) as f64 / total.max(1) as f64
                    ),
                ];
                (
                    row,
                    phase_of(&run, "shared"),
                    run.fault_stats,
                    run.fallback.is_some(),
                )
            } else {
                // Partitioned topology: count requests at the memory
                // controller.
                let run = run_unit_gc_faulted(
                    &spec,
                    LayoutKind::Bidirectional,
                    GcUnitConfig::default(),
                    MemKind::ddr3_default(),
                    false,
                    opts.fault,
                );
                let snap = &run.snapshot;
                let total: u64 = FIG18_SOURCES.iter().map(|&s| snap.requests(s)).sum();
                let work = snap.requests(Source::Marker) + snap.requests(Source::Tracer);
                let row = vec![
                    spec.name.into(),
                    m(snap.requests(Source::MarkQueue)),
                    m(snap.requests(Source::Tracer)),
                    m(snap.requests(Source::Ptw)),
                    m(snap.requests(Source::Marker)),
                    format!("{:.0}%", 100.0 * work as f64 / total.max(1) as f64),
                ];
                (
                    row,
                    phase_of(&run, "part"),
                    run.fault_stats,
                    run.fallback.is_some(),
                )
            }
        })
        .collect();
    let mut metrics = MetricsDoc::new("fig18");
    for pair in rows.chunks(2) {
        shared.row(pair[0].0.clone());
        partitioned.row(pair[1].0.clone());
        for (_, phases, stats, fell_back) in pair {
            for (name, cycles, lanes, stalls) in phases {
                metrics.phase(name, *cycles, *lanes, *stalls);
            }
            super::note_unit_faults(&mut metrics, stats, *fell_back);
        }
    }
    ExperimentOutput {
        id: "fig18",
        title: "Fig 18: cache partitioning",
        tables: vec![shared, partitioned],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper 18a: ~2/3 of shared-cache requests come from the PTW (the mark \
             phase has little locality, so TLB misses abound)."
                .into(),
            "Paper 18b: after partitioning, marker and tracer dominate actual memory \
             requests."
                .into(),
        ],
    }
}
