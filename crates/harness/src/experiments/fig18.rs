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
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::DACAPO;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc, MemKind};
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
    let mut metrics = MetricsDoc::new("fig18");
    for spec in DACAPO {
        // The TLB-pressure effect needs a heap well beyond the TLB
        // reach, as in the paper's 200 MB configuration, so fig18 always
        // runs at full workload scale. Both topologies collect a copy
        // of one heap.
        let spec = spec.scaled(opts.scale.max(1.0));
        let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
        for (topology, table) in [
            (CacheTopology::Shared, &mut shared),
            (CacheTopology::Partitioned, &mut partitioned),
        ] {
            let run = run_unit_gc(
                &mut heap.clone(),
                GcUnitConfig {
                    topology,
                    ..GcUnitConfig::default()
                },
                MemKind::ddr3_default(),
                opts.fault,
            );
            let count = |s: Source| match topology {
                // Shared topology: count accesses at the shared cache.
                CacheTopology::Shared => run
                    .unit
                    .traversal()
                    .shared_cache_stats()
                    .expect("shared topology has a shared cache")
                    .accesses(s),
                // Partitioned topology: count requests at the memory
                // controller.
                CacheTopology::Partitioned => run.snapshot.requests(s),
            };
            // The share column: the PTW's of the shared cache, the
            // marker's and tracer's of memory.
            let (share, topo) = match topology {
                CacheTopology::Shared => (count(Source::Ptw), "shared"),
                CacheTopology::Partitioned => {
                    (count(Source::Marker) + count(Source::Tracer), "part")
                }
            };
            let total: u64 = FIG18_SOURCES.iter().map(|&s| count(s)).sum();
            let mut row = vec![spec.name.to_string()];
            row.extend(FIG18_SOURCES.iter().map(|&s| m(count(s))));
            row.push(format!(
                "{:.0}%",
                100.0 * share as f64 / total.max(1) as f64
            ));
            table.row(row);
            let (mark, sweep) = (&run.report.mark, &run.report.sweep);
            metrics.phase(
                &format!("{}.{topo}.unit_mark", spec.name),
                mark.cycles(),
                1,
                mark.stalls,
            );
            metrics.phase(
                &format!("{}.{topo}.unit_sweep", spec.name),
                sweep.cycles(),
                sweep.lanes,
                sweep.stalls,
            );
            super::note_unit_faults(&mut metrics, &run);
        }
    }
    ExperimentOutput {
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
