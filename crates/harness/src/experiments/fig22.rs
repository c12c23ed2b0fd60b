//! Fig. 22: area estimates.
//!
//! "Our GC unit is 18.5% the size of the CPU, most of which is taken by
//! the mark queue. This is comparable to the area of 64 KB of SRAM."

use tracegc_hwgc::GcUnitConfig;
use tracegc_model::area::{gc_unit_area, l2_area, rocket_core_area, SRAM_MM2_PER_KB};

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::table::Table;

/// Area breakdown tables for the core, the L2 and the unit.
pub fn run(_opts: &Options) -> ExperimentOutput {
    let core = rocket_core_area();
    let unit = gc_unit_area(&GcUnitConfig::default());

    let mut totals = Table::new("Fig 22a: total area (mm^2)", &["block", "mm2"]);
    totals.row(vec!["rocket-core".into(), format!("{:.3}", core.total())]);
    totals.row(vec!["l2-cache".into(), format!("{:.3}", l2_area())]);
    totals.row(vec!["gc-unit".into(), format!("{:.3}", unit.total())]);

    let mut core_t = Table::new(
        "Fig 22b: Rocket CPU breakdown (mm^2)",
        &["component", "mm2"],
    );
    for (name, mm2) in &core.components {
        core_t.row(vec![name.clone(), format!("{mm2:.3}")]);
    }

    let mut unit_t = Table::new("Fig 22c: GC unit breakdown (mm^2)", &["component", "mm2"]);
    for (name, mm2) in &unit.components {
        unit_t.row(vec![name.clone(), format!("{mm2:.3}")]);
    }

    let ratio = unit.total() / core.total();
    let sram_equiv_kb = unit.total() / SRAM_MM2_PER_KB;
    let mut metrics = MetricsDoc::new("fig22");
    metrics.gauge("core_mm2", core.total());
    metrics.gauge("unit_mm2", unit.total());
    metrics.gauge("unit_core_ratio", ratio);
    metrics.gauge("sram_equiv_kb", sram_equiv_kb);
    ExperimentOutput {
        title: "Fig 22: area",
        tables: vec![totals, core_t, unit_t],
        metrics,
        trace: Vec::new(),
        notes: vec![
            format!(
                "Unit / core = {:.1}% (paper: 18.5%); unit is equivalent to {:.0} KB \
                 of SRAM (paper: 64 KB); largest unit block: {}.",
                100.0 * ratio,
                sram_equiv_kb,
                unit.largest()
            ),
            "Estimated with SAED EDK 32/28-style constants, as in the paper's \
             Design Compiler flow."
                .into(),
        ],
    }
}
