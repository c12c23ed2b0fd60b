//! Fig. 17: potential performance with an idealized memory system.
//!
//! Replacing DDR3 with a 1-cycle / 8 GB/s latency–bandwidth pipe, the
//! paper's unit outperforms the CPU by 9.0× on mark (Fig. 17a) and
//! issues a request into the memory system every 8.66 cycles (Fig. 17b),
//! consuming at most 3.3 GB/s of data because many requests are smaller
//! than a cache line.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::spec::DACAPO;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{geomean, DualRun, MemKind};
use crate::table::{ms, ratio, Table};

/// Paired runs on the 8 GB/s pipe.
pub fn run(opts: &Options) -> ExperimentOutput {
    let mut table = Table::new(
        "Fig 17a: mark/sweep with 1-cycle, 8 GB/s memory",
        &[
            "bench",
            "cpu-mark-ms",
            "unit-mark-ms",
            "mark-speedup",
            "sweep-speedup",
        ],
    );
    let mut issue = Table::new(
        "Fig 17b: unit request issue interval & data bandwidth (mark phase)",
        &[
            "bench",
            "cycles-between-reqs",
            "port-busy-%",
            "unit-avg-gbps",
        ],
    );
    let mut mark_speedups = Vec::new();
    let mut metrics = MetricsDoc::new("fig17");
    for spec in DACAPO {
        let spec = spec.scaled(opts.scale);
        let name = spec.name;
        let p = DualRun::new(&spec, LayoutKind::Bidirectional, GcUnitConfig::default())
            .run_pause(MemKind::pipe_8gbps());
        metrics.pause_phases(name, &p);
        mark_speedups.push(p.mark_speedup());
        table.row(vec![
            name.into(),
            ms(p.cpu_mark_cycles),
            ms(p.unit_mark_cycles),
            ratio(p.mark_speedup()),
            ratio(p.sweep_speedup()),
        ]);
        issue.row(vec![
            name.into(),
            format!("{:.2}", p.unit_mem.mean_issue_interval),
            format!(
                "{:.0}%",
                100.0 * p.unit_port_busy as f64 / p.unit_mark_cycles.max(1) as f64
            ),
            format!(
                "{:.2}",
                p.unit_mem
                    .avg_gbps(p.unit_mark_cycles + p.unit_sweep_cycles)
            ),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        ratio(geomean(&mark_speedups)),
        "-".into(),
    ]);
    metrics.gauge("mark_speedup_geomean", geomean(&mark_speedups));
    ExperimentOutput {
        title: "Fig 17: potential performance (latency-bandwidth pipe)",
        tables: vec![table, issue],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: 9.0x average mark speedup; a request every 8.66 cycles (88% port \
             busy); data consumption peaks at 3.3 GB/s of the 8 GB/s because requests \
             are smaller than cache lines."
                .into(),
            "Paper: limited sweep speedup here is due to using only two sweepers \
             (see fig20)."
                .into(),
        ],
    }
}
