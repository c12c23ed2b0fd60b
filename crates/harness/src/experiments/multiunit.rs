//! `multiunit`: N traversal units marking N heaps over one DDR3.
//!
//! Where `multi` time-multiplexes one datapath across processes (§VII),
//! this experiment instantiates N *full* units — the paper's "the area
//! costs of our design are small enough that it could be replicated"
//! direction. `try_run_multiprocess_mark` marks them under
//! `Policy::Lockstep`, one datapath per unit, against a single shared
//! memory system. Speedup over one unit is bounded by DRAM bandwidth,
//! not by the units.

use tracegc_hwgc::multiproc::try_run_multiprocess_mark;
use tracegc_sim::sched::Policy;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::MemKind;
use crate::table::{ms, Table};

const UNITS: [usize; 4] = [1, 2, 4, 8];

/// Marks N same-sized heaps with N units sharing one memory system.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("xalan").expect("xalan exists").scaled(opts.scale);

    let mut table = Table::new(
        "multiunit: N traversal units sharing one DDR3 (xalan-sized heaps)",
        &["units", "wall-ms", "vs-1-unit-serial", "mean-unit-ms"],
    );
    let mut metrics = MetricsDoc::new("multiunit");
    let mut solo_wall = None;
    for n in UNITS {
        // N independent processes: same generator, distinct seeds, one
        // full unit each.
        let mut units: Vec<_> = (0..n as u64)
            .map(|i| super::concurrent::process(spec, i.wrapping_mul(0x9e37_79b9)))
            .collect();
        let report = try_run_multiprocess_mark(
            &mut units,
            &mut MemKind::ddr3_default().fresh(),
            Policy::Lockstep,
            0,
        )
        .expect("multiunit: try_run_multiprocess_mark faulted on clean heaps");
        let wall = report.end;
        let solo_wall = *solo_wall.get_or_insert(wall);
        let vs_serial = (solo_wall * n as u64) as f64 / wall.max(1) as f64;
        let per_unit = &report.per_process;
        let mean: u64 = per_unit.iter().map(|r| r.cycles()).sum::<u64>() / n as u64;
        table.row(vec![
            format!("{n}"),
            ms(wall),
            format!("{vs_serial:.2}x"),
            ms(mean),
        ]);
        // Lockstep charges every unit's ledger cycle-for-cycle until
        // that unit finishes, so each per-unit phase is exact.
        for (i, r) in per_unit.iter().enumerate() {
            metrics.phase(&format!("units{n}.u{i}.mark"), r.cycles(), 1, r.stalls);
        }
        metrics.gauge(&format!("units{n}.wall_ms"), wall as f64 / 1e6);
        metrics.gauge(&format!("units{n}.vs_serial"), vs_serial);
    }
    ExperimentOutput {
        title: "N traversal units on one shared memory system",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec!["A single traversal unit already extracts most of the DDR3 \
             channel's service capacity (the Fig. 16 observation), so \
             replicated units time-multiplex a saturated resource: wall time \
             scales ~N while aggregate vs-serial throughput stays near 1x. \
             The headroom is in the memory system (Fig. 17), not more units."
            .into()],
    }
}
