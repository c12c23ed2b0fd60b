//! Fig. 23: power and energy.
//!
//! "Due to its higher bandwidth, the GC Unit's DRAM power is much
//! higher, but the overall energy is still lower" — by ~14.5% in the
//! paper's runs.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_model::{Agent, EnergyModel};
use tracegc_workloads::spec::DACAPO;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{DualRun, MemKind};
use crate::table::Table;

/// Energy/power comparison per benchmark.
pub fn run(opts: &Options) -> ExperimentOutput {
    let model = EnergyModel::default();
    let mut power = Table::new(
        "Fig 23 (top): average power during GC (mW)",
        &["agent", "compute-mw", "dram-mw (xalan)", "total-mw (xalan)"],
    );
    let mut energy = Table::new(
        "Fig 23 (bottom): GC energy per pause (mJ)",
        &[
            "bench",
            "cpu-mj",
            "unit-mj",
            "unit-dram-mw",
            "cpu-dram-mw",
            "savings",
        ],
    );
    let mut savings = Vec::new();
    let mut xalan_power: Option<(f64, f64, f64, f64)> = None;
    let pauses = DACAPO.into_iter().map(|spec| {
        let spec = spec.scaled(opts.scale);
        let mut run = DualRun::new(&spec, LayoutKind::Bidirectional, GcUnitConfig::default());
        (spec.name, run.run_pause(MemKind::ddr3_default()))
    });
    let mut metrics = MetricsDoc::new("fig23");
    for (name, p) in pauses {
        metrics.pause_phases(name, &p);
        let cpu_cycles = p.cpu_mark_cycles + p.cpu_sweep_cycles;
        let unit_cycles = p.unit_mark_cycles + p.unit_sweep_cycles;
        let cpu_e = model.pause_energy(
            Agent::RocketCore,
            cpu_cycles,
            p.cpu_mem.total_bytes,
            p.cpu_mem.total_requests,
            p.cpu_mem.activates.unwrap_or(0),
        );
        let unit_e = model.pause_energy(
            Agent::GcUnit,
            unit_cycles,
            p.unit_mem.total_bytes,
            p.unit_mem.total_requests,
            p.unit_mem.activates.unwrap_or(0),
        );
        let saving = 100.0 * (1.0 - unit_e.total_mj() / cpu_e.total_mj().max(1e-12));
        savings.push(saving);
        if name == "xalan" {
            xalan_power = Some((
                cpu_e.dram_power_mw,
                cpu_e.total_power_mw(),
                unit_e.dram_power_mw,
                unit_e.total_power_mw(),
            ));
        }
        energy.row(vec![
            name.into(),
            format!("{:.3}", cpu_e.total_mj()),
            format!("{:.3}", unit_e.total_mj()),
            format!("{:.0}", unit_e.dram_power_mw),
            format!("{:.0}", cpu_e.dram_power_mw),
            format!("{saving:.1}%"),
        ]);
    }
    let (cpu_dram, cpu_total, unit_dram, unit_total) = xalan_power.expect("xalan is in the suite");
    power.row(vec![
        "rocket-cpu".into(),
        format!("{:.0}", EnergyModel::default().core_active_mw),
        format!("{cpu_dram:.0}"),
        format!("{cpu_total:.0}"),
    ]);
    power.row(vec![
        "gc-unit".into(),
        format!("{:.0}", EnergyModel::default().unit_active_mw),
        format!("{unit_dram:.0}"),
        format!("{unit_total:.0}"),
    ]);
    let mean_saving = savings.iter().sum::<f64>() / savings.len() as f64;
    metrics.gauge("mean_energy_saving_pct", mean_saving);
    ExperimentOutput {
        id: "fig23",
        title: "Fig 23: power and energy",
        tables: vec![power, energy],
        metrics,
        trace: Vec::new(),
        notes: vec![
            format!(
                "Mean energy saving: {mean_saving:.1}% (paper: 14.5%). The unit's \
                 DRAM power exceeds the CPU's because it sustains more bandwidth."
            ),
            "Methodology: measured cycles/bytes/activates through a Micron-style \
             DDR3 power model + DC-style compute power constants (as in §VI-C)."
                .into(),
        ],
    }
}
