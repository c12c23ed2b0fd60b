//! `conc`: concurrent collection (§IV-D) — the traversal unit marks
//! while the mutator keeps running, with write barriers feeding the
//! mark queue.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::concurrent::{try_run_concurrent_mark, MutatorConfig};
use tracegc_hwgc::{GcUnitConfig, TraversalUnit};
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::MemKind;
use crate::table::{ms, Table};

/// Compares stop-the-world marking against SATB concurrent marking at
/// several mutator intensities.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("lusearch")
        .expect("lusearch exists")
        .scaled(opts.scale);

    let mut table = Table::new(
        "conc: SATB concurrent marking vs stop-the-world (lusearch)",
        &[
            "mode",
            "mark-ms",
            "mutator-ops",
            "write-barriers",
            "allocated-black",
            "barrier-kcycles",
        ],
    );
    // Grid points: the stop-the-world baseline (None) and each mutator
    // intensity (Some(..)); every one rebuilds the heap from the seed.
    let modes: Vec<Option<(&str, u64, f64)>> = vec![
        None,
        Some(("concurrent/light", 200, 0.1)),
        Some(("concurrent/medium", 60, 0.2)),
        Some(("concurrent/heavy", 25, 0.4)),
    ];
    let rows = modes.into_iter().map(|mode| {
        let mut workload = generate_heap(&spec, LayoutKind::Bidirectional);
        let mut mem = MemKind::ddr3_default().fresh();
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut workload.heap);
        match mode {
            // Stop-the-world baseline.
            None => {
                let stw = unit
                    .try_run_mark(&mut workload.heap, &mut mem, 0)
                    .expect("concurrent: TraversalUnit::try_run_mark faulted on a clean heap");
                let row = vec![
                    "stop-the-world".into(),
                    ms(stw.cycles()),
                    "0".into(),
                    "0".into(),
                    "0".into(),
                    "0".into(),
                ];
                (row, ("stw".to_string(), stw.cycles(), stw.stalls), 0, 0)
            }
            Some((label, cycles_per_op, write_fraction)) => {
                let report = try_run_concurrent_mark(
                    &mut unit,
                    &mut workload.heap,
                    &mut mem,
                    MutatorConfig {
                        cycles_per_op,
                        write_fraction,
                        ..MutatorConfig::default()
                    },
                    0,
                )
                .expect("concurrent: try_run_concurrent_mark faulted on a clean heap");
                let row = vec![
                    label.into(),
                    ms(report.traversal.cycles()),
                    format!("{}", report.mutator_ops),
                    format!("{}", report.write_barriers),
                    format!("{}", report.allocated_during_gc),
                    format!("{}", report.mutator_barrier_cycles / 1000),
                ];
                let key = label.replace("concurrent/", "conc_");
                (
                    row,
                    (key, report.traversal.cycles(), report.traversal.stalls),
                    report.mutator_ops,
                    report.write_barriers,
                )
            }
        }
    });
    // Every row — STW and concurrent alike — now runs the unit under the
    // scheduler, which charges the per-pass ledger cycle-for-cycle, so
    // each mode gets an exact phase entry.
    let mut metrics = MetricsDoc::new("conc");
    for (row, (key, cycles, stalls), mutator_ops, write_barriers) in rows {
        table.row(row);
        metrics.phase(&format!("lusearch.{key}.unit_mark"), cycles, 1, stalls);
        metrics.counter("mutator_ops", mutator_ops);
        metrics.counter("write_barriers", write_barriers);
    }
    ExperimentOutput {
        id: "conc",
        title: "Concurrent collection (paper SIV-D)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "The mark phase lengthens with mutator intensity (barrier-injected \
             references add work), but the application never pauses; the SATB \
             invariant (nothing live at the snapshot is lost, new objects are \
             allocated black) is asserted by the integration tests."
                .into(),
        ],
    }
}

/// `multi`: one unit collecting several processes simultaneously
/// (§VII "Supporting multiple applications").
pub fn run_multi(opts: &Options) -> ExperimentOutput {
    use tracegc_hwgc::multiproc::{try_run_multiprocess_mark, ProcessContext};

    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let make_context = |seed_offset: u64| {
        let mut s = spec;
        s.seed ^= seed_offset;
        let mut workload = generate_heap(&s, LayoutKind::Bidirectional);
        let unit = TraversalUnit::new(GcUnitConfig::default(), &mut workload.heap);
        ProcessContext {
            unit,
            heap: workload.heap,
        }
    };

    let mut table = Table::new(
        "multi: one unit collecting N processes (avrora-sized heaps)",
        &["processes", "wall-ms", "vs-serial", "mean-per-process-ms"],
    );
    let counts = vec![1usize, 2, 4];
    let results: Vec<_> = counts
        .iter()
        .copied()
        .map(|n| {
            let mut procs: Vec<ProcessContext> = (0..n as u64).map(make_context).collect();
            let mut mem = MemKind::ddr3_default().fresh();
            let report = try_run_multiprocess_mark(&mut procs, &mut mem, 0)
                .expect("multi: try_run_multiprocess_mark faulted on clean heaps");
            let mean: u64 = report.per_process.iter().map(|r| r.cycles()).sum::<u64>() / n as u64;
            (report.total_cycles(0), mean, report.per_process)
        })
        .collect();
    let solo_wall = results[0].0;
    // The round-robin scheduler charges each process's ledger on every
    // cycle it is live (its own bottleneck when served, PortBusy when
    // the datapath serves a sibling), so per-process phases are exact.
    let mut metrics = MetricsDoc::new("multi");
    for (n, (wall, mean, per_process)) in counts.into_iter().zip(results) {
        for (i, r) in per_process.iter().enumerate() {
            metrics.phase(&format!("{n}proc.p{i}.mark"), r.cycles(), 1, r.stalls);
        }
        metrics.gauge(&format!("wall_ms_{n}proc"), wall as f64 / 1e6);
        metrics.gauge(&format!("mean_per_process_ms_{n}proc"), mean as f64 / 1e6);
        table.row(vec![
            format!("{n}"),
            ms(wall),
            format!("{:.2}x", (solo_wall * n as u64) as f64 / wall.max(1) as f64),
            ms(mean),
        ]);
    }
    ExperimentOutput {
        id: "multi",
        title: "Multi-process collection (paper SVII)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Tagged contexts share the unit's datapath and the memory system; \
             overlapping memory latencies make N concurrent collections cheaper \
             than N serial ones (the vs-serial column), at the cost of each \
             individual collection running longer."
                .into(),
        ],
    }
}
