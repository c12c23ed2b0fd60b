//! Fig. 15: GC performance — the headline result.
//!
//! "On average, the GC Unit outperforms the CPU by a factor of 4.2× for
//! mark and 1.9× for sweep", averaged across all GC pauses of each
//! DaCapo benchmark, on the Table I DDR3 memory system.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::spec::DACAPO;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{geomean, DualRun, MemKind};
use crate::table::{ms, ratio, Table};

/// Runs paired CPU/unit collections for every benchmark.
pub fn run(opts: &Options) -> ExperimentOutput {
    let mut table = Table::new(
        "Fig 15: mark & sweep time, Rocket CPU vs GC unit (avg across pauses)",
        &[
            "bench",
            "cpu-mark-ms",
            "unit-mark-ms",
            "mark-speedup",
            "cpu-sweep-ms",
            "unit-sweep-ms",
            "sweep-speedup",
            "total-speedup",
        ],
    );
    let mut mark_speedups = Vec::new();
    let mut sweep_speedups = Vec::new();
    let mut total_speedups = Vec::new();
    let mut metrics = MetricsDoc::new("fig15");
    for spec in DACAPO {
        let spec = spec.scaled(opts.scale);
        let name = spec.name;
        let mut run = DualRun::new(&spec, LayoutKind::Bidirectional, GcUnitConfig::default());
        let pauses = run.run_pauses(MemKind::ddr3_default(), spec.pauses.min(opts.pauses), 0.15);
        let avg = |f: &dyn Fn(&crate::runner::PauseResult) -> u64| {
            pauses.iter().map(f).sum::<u64>() / pauses.len() as u64
        };
        let cpu_mark = avg(&|r| r.cpu_mark_cycles);
        let unit_mark = avg(&|r| r.unit_mark_cycles);
        let cpu_sweep = avg(&|r| r.cpu_sweep_cycles);
        let unit_sweep = avg(&|r| r.unit_sweep_cycles);
        for (i, p) in pauses.iter().enumerate() {
            metrics.pause_phases(&format!("{name}.pause{i}"), p);
            metrics.counter("objects_marked", p.objects_marked);
            metrics.counter("cells_freed", p.cells_freed);
        }
        let mark_sp = cpu_mark as f64 / unit_mark.max(1) as f64;
        let sweep_sp = cpu_sweep as f64 / unit_sweep.max(1) as f64;
        let total_sp = (cpu_mark + cpu_sweep) as f64 / (unit_mark + unit_sweep).max(1) as f64;
        mark_speedups.push(mark_sp);
        sweep_speedups.push(sweep_sp);
        total_speedups.push(total_sp);
        table.row(vec![
            name.into(),
            ms(cpu_mark),
            ms(unit_mark),
            ratio(mark_sp),
            ms(cpu_sweep),
            ms(unit_sweep),
            ratio(sweep_sp),
            ratio(total_sp),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        ratio(geomean(&mark_speedups)),
        "-".into(),
        "-".into(),
        ratio(geomean(&sweep_speedups)),
        ratio(geomean(&total_speedups)),
    ]);
    metrics.gauge("mark_speedup_geomean", geomean(&mark_speedups));
    metrics.gauge("sweep_speedup_geomean", geomean(&sweep_speedups));
    metrics.gauge("total_speedup_geomean", geomean(&total_speedups));
    ExperimentOutput {
        title: "Fig 15: GC performance (DDR3)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: 4.2x mark, 1.9x sweep, 3.3x overall (2 sweepers, 1,024-entry \
             mark queue, 16 marker slots, 32-entry TLBs, 128-entry L2 TLB)."
                .into(),
            "Mark results are cross-checked: CPU and unit always mark identical sets.".into(),
        ],
    }
}
