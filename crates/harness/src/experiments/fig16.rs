//! Fig. 16: memory bandwidth over time during the last avrora GC pause.
//!
//! "Our unit is more effective at exploiting memory bandwidth,
//! particularly during the mark phase."

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{DualRun, MemKind};
use crate::table::Table;

/// Captures the bandwidth time series of the last avrora pause.
///
/// Successive pauses share the churned heap, so they run in order;
/// `--jobs` overlaps fig16 with other experiment ids.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let pauses = spec.pauses.min(opts.pauses);
    let cfg = GcUnitConfig {
        trace: opts.trace,
        ..GcUnitConfig::default()
    };
    let mut run = DualRun::new(&spec, LayoutKind::Bidirectional, cfg);
    let results = run.run_pauses(MemKind::ddr3_default(), pauses, 0.15);
    let last = results.last().expect("at least one pause");

    let mut series = Table::new(
        "Fig 16: bandwidth (GB/s) per 50us window, last avrora pause",
        &["window", "cpu-gbps", "unit-gbps"],
    );
    let n = last
        .cpu_mem
        .series_gbps
        .len()
        .max(last.unit_mem.series_gbps.len());
    for i in 0..n {
        series.row(vec![
            format!("{i}"),
            format!(
                "{:.3}",
                last.cpu_mem.series_gbps.get(i).copied().unwrap_or(0.0)
            ),
            format!(
                "{:.3}",
                last.unit_mem.series_gbps.get(i).copied().unwrap_or(0.0)
            ),
        ]);
    }

    let cpu_cycles = last.cpu_mark_cycles + last.cpu_sweep_cycles;
    let unit_cycles = last.unit_mark_cycles + last.unit_sweep_cycles;
    let cpu_avg = last.cpu_mem.avg_gbps(cpu_cycles);
    let unit_avg = last.unit_mem.avg_gbps(unit_cycles);
    let cpu_peak = last.cpu_mem.series_gbps.iter().copied().fold(0.0, f64::max);
    let unit_peak = last
        .unit_mem
        .series_gbps
        .iter()
        .copied()
        .fold(0.0, f64::max);

    let mut summary = Table::new(
        "Fig 16 summary",
        &["agent", "pause-ms", "avg-gbps", "peak-gbps"],
    );
    summary.row(vec![
        "rocket-cpu".into(),
        format!("{:.2}", cpu_cycles as f64 / 1e6),
        format!("{cpu_avg:.3}"),
        format!("{cpu_peak:.3}"),
    ]);
    summary.row(vec![
        "gc-unit".into(),
        format!("{:.2}", unit_cycles as f64 / 1e6),
        format!("{unit_avg:.3}"),
        format!("{unit_peak:.3}"),
    ]);

    let mut metrics = MetricsDoc::new("fig16");
    for (i, p) in results.iter().enumerate() {
        metrics.pause_phases(&format!("avrora.pause{i}"), p);
    }
    metrics.counter("cpu_bytes", last.cpu_mem.total_bytes);
    metrics.counter("unit_bytes", last.unit_mem.total_bytes);
    metrics.gauge("cpu_avg_gbps", cpu_avg);
    metrics.gauge("unit_avg_gbps", unit_avg);
    metrics.gauge("cpu_peak_gbps", cpu_peak);
    metrics.gauge("unit_peak_gbps", unit_peak);

    ExperimentOutput {
        id: "fig16",
        title: "Fig 16: memory bandwidth over time",
        tables: vec![summary, series],
        metrics,
        trace: last.unit_trace.clone(),
        notes: vec![format!(
            "Unit sustains {:.1}x the CPU's average bandwidth over the pause \
             (paper shows the unit's mark phase saturating far more of the DDR3 \
             bandwidth than the CPU's).",
            unit_avg / cpu_avg.max(1e-9)
        )],
    }
}
