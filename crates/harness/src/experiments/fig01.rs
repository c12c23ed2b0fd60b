//! Fig. 1: the motivation experiments.
//!
//! * Fig. 1a — fraction of CPU time spent in GC pauses per benchmark
//!   (paper: up to 35%).
//! * Fig. 1b — CDF of lusearch query latencies at 10 QPS with
//!   coordinated omission: GC pauses create stragglers two orders of
//!   magnitude above the median.

use tracegc_heap::LayoutKind;
use tracegc_workloads::queries::{QueryLatencySim, QueryLatencySpec};
use tracegc_workloads::spec::{by_name, DACAPO};

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_cpu_gc, MemKind};
use crate::table::Table;

/// Fig. 1a: % CPU time in GC pauses.
pub fn run_1a(opts: &Options) -> ExperimentOutput {
    let mut table = Table::new(
        "Fig 1a: CPU time spent in GC pauses",
        &["bench", "gc-ms/pause", "mutator-ms/pause", "gc-%"],
    );
    let results = DACAPO.into_iter().map(|spec| {
        let spec = spec.scaled(opts.scale);
        let run = run_cpu_gc(&spec, LayoutKind::Bidirectional, MemKind::ddr3_default());
        (
            spec.name,
            run.mark,
            run.sweep,
            spec.mutator_cycles_per_pause,
        )
    });
    let mut metrics = MetricsDoc::new("fig1a");
    for (name, mark, sweep, mutator_cycles) in results {
        let gc = (mark.cycles + sweep.cycles) as f64;
        let mutator = mutator_cycles as f64;
        let pct = 100.0 * gc / (gc + mutator);
        metrics.phase(&format!("{name}.cpu_mark"), mark.cycles, 1, mark.stalls);
        metrics.phase(&format!("{name}.cpu_sweep"), sweep.cycles, 1, sweep.stalls);
        table.row(vec![
            name.into(),
            format!("{:.2}", gc / 1e6),
            format!("{:.2}", mutator / 1e6),
            format!("{pct:.1}%"),
        ]);
    }
    ExperimentOutput {
        id: "fig1a",
        title: "Fig 1a: GC pause time fraction",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: applications spend up to 35% of CPU time in GC pauses; lusearch \
             and xalan are the heaviest, avrora/luindex the lightest."
                .into(),
            "Mutator cycles per pause are a workload-model input (application work \
             is not simulated); GC cycles are measured on the CPU collector model."
                .into(),
        ],
    }
}

/// Fig. 1b: lusearch query-latency CDF with and without GC.
pub fn run_1b(opts: &Options) -> ExperimentOutput {
    // Measure real pause lengths for lusearch on the CPU collector.
    let spec = by_name("lusearch")
        .expect("lusearch exists")
        .scaled(opts.scale);
    let run = run_cpu_gc(&spec, LayoutKind::Bidirectional, MemKind::ddr3_default());
    let pause_us = (run.mark.cycles + run.sweep.cycles) / 1000; // 1 GHz: cycles->ns->us

    let sim = QueryLatencySim::new(QueryLatencySpec::default());
    let (mut with_gc, near) = sim.run(&[pause_us]);
    let (mut no_gc, _) = sim.run(&[]);

    let mut table = Table::new(
        "Fig 1b: lusearch query latency percentiles (ms, 10 QPS, coordinated omission)",
        &["percentile", "no-gc", "with-gc"],
    );
    for p in [50.0, 90.0, 99.0, 99.9, 100.0] {
        table.row(vec![
            format!("p{p}"),
            format!("{:.2}", no_gc.percentile(p).unwrap_or(0) as f64 / 1000.0),
            format!("{:.2}", with_gc.percentile(p).unwrap_or(0) as f64 / 1000.0),
        ]);
    }

    let mut cdf = Table::new(
        "Fig 1b CDF: latency-ms vs fraction (with GC)",
        &["latency-ms", "cdf"],
    );
    for (v, f) in with_gc.cdf().into_iter().step_by(25) {
        cdf.row(vec![format!("{:.2}", v as f64 / 1000.0), format!("{f:.4}")]);
    }

    let affected = near.iter().filter(|&&b| b).count();
    let mut metrics = MetricsDoc::new("fig1b");
    metrics.phase("lusearch.cpu_mark", run.mark.cycles, 1, run.mark.stalls);
    metrics.phase("lusearch.cpu_sweep", run.sweep.cycles, 1, run.sweep.stalls);
    metrics.counter("queries_affected", affected as u64);
    metrics.counter("queries_recorded", near.len() as u64);
    metrics.gauge("pause_ms", pause_us as f64 / 1000.0);
    ExperimentOutput {
        id: "fig1b",
        title: "Fig 1b: query latency CDF under GC",
        tables: vec![table, cdf],
        metrics,
        trace: Vec::new(),
        notes: vec![
            format!(
                "Measured lusearch pause: {:.2} ms; {} of {} recorded queries were \
                 delayed by or queued behind a pause.",
                pause_us as f64 / 1000.0,
                affected,
                near.len()
            ),
            "Paper: the long tail (log scale) is the result of GC; stragglers are two \
             orders of magnitude longer than the average request."
                .into(),
        ],
    }
}
