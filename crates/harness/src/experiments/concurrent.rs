//! `conc`: concurrent collection (§IV-D) — the traversal unit marks
//! while the mutator keeps running, with write barriers feeding the
//! mark queue.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::concurrent::{try_run_concurrent_mark, MutatorConfig};
use tracegc_hwgc::multiproc::{try_run_multiprocess_mark, ProcessContext};
use tracegc_hwgc::{GcUnitConfig, TraversalUnit};
use tracegc_sim::sched::Policy;
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::{by_name, BenchSpec};

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
    // The stop-the-world baseline, then each mutator intensity, each on
    // a copy of one heap. Every mode runs the unit under the scheduler,
    // which charges the per-pass ledger cycle-for-cycle, so each gets an
    // exact phase entry.
    let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let mut metrics = MetricsDoc::new("conc");
    let stw = {
        let heap = &mut heap.clone();
        TraversalUnit::new(GcUnitConfig::default(), heap)
            .try_run_mark(heap, &mut MemKind::ddr3_default().fresh(), 0)
            .expect("concurrent: TraversalUnit::try_run_mark faulted on a clean heap")
    };
    // No mutator runs: no ops, barriers, allocations or barrier cycles.
    let mut row = vec!["stop-the-world".into(), ms(stw.cycles())];
    row.extend(["0"; 4].map(String::from));
    table.row(row);
    metrics.phase("lusearch.stw.unit_mark", stw.cycles(), 1, stw.stalls);
    for (label, cycles_per_op, write_fraction) in [
        ("concurrent/light", 200, 0.1),
        ("concurrent/medium", 60, 0.2),
        ("concurrent/heavy", 25, 0.4),
    ] {
        let heap = &mut heap.clone();
        let report = try_run_concurrent_mark(
            &mut TraversalUnit::new(GcUnitConfig::default(), heap),
            heap,
            &mut MemKind::ddr3_default().fresh(),
            MutatorConfig {
                cycles_per_op,
                write_fraction,
                ..MutatorConfig::default()
            },
            0,
        )
        .expect("concurrent: try_run_concurrent_mark faulted on a clean heap");
        let mark = &report.traversal;
        table.row(vec![
            label.into(),
            ms(mark.cycles()),
            format!("{}", report.mutator_ops),
            format!("{}", report.write_barriers),
            format!("{}", report.allocated_during_gc),
            format!("{}", report.mutator_barrier_cycles / 1000),
        ]);
        let key = label.replace("concurrent/", "conc_");
        metrics.phase(
            &format!("lusearch.{key}.unit_mark"),
            mark.cycles(),
            1,
            mark.stalls,
        );
        metrics.counter("mutator_ops", report.mutator_ops);
        metrics.counter("write_barriers", report.write_barriers);
    }
    ExperimentOutput {
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
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let mut table = Table::new(
        "multi: one unit collecting N processes (avrora-sized heaps)",
        &["processes", "wall-ms", "vs-serial", "mean-per-process-ms"],
    );
    // The round-robin scheduler charges each process's ledger on every
    // cycle it is live (its own bottleneck when served, PortBusy when
    // the datapath serves a sibling), so per-process phases are exact.
    let mut metrics = MetricsDoc::new("multi");
    let mut solo_wall = None;
    for n in [1usize, 2, 4] {
        let mut procs: Vec<_> = (0..n as u64).map(|i| process(spec, i)).collect();
        let report = try_run_multiprocess_mark(
            &mut procs,
            &mut MemKind::ddr3_default().fresh(),
            Policy::RoundRobin,
            0,
        )
        .expect("multi: try_run_multiprocess_mark faulted on clean heaps");
        let wall = report.total_cycles(0);
        let solo_wall = *solo_wall.get_or_insert(wall);
        let mean = report.per_process.iter().map(|r| r.cycles()).sum::<u64>() / n as u64;
        for (i, r) in report.per_process.iter().enumerate() {
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

/// One process to collect: `spec`'s heap, generated with `seed_mix`
/// XORed into the seed, and a traversal unit of its own.
pub(crate) fn process(mut spec: BenchSpec, seed_mix: u64) -> ProcessContext {
    spec.seed ^= seed_mix;
    let mut heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
    ProcessContext { unit, heap }
}
