//! Fig. 20: scaling the number of block sweepers.
//!
//! "We scale linearly to 2 sweepers but beyond this point, speed-ups
//! start to reduce. At 8 sweepers, the contention on the memory system
//! starts to outweigh the benefits from parallelism. 4 sweepers
//! outperform the CPU by 2–3×."

use tracegc_cpu::{Cpu, CpuConfig};
use tracegc_heap::verify::software_mark;
use tracegc_heap::LayoutKind;
use tracegc_hwgc::{GcUnitConfig, ReclamationUnit};
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::DACAPO;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::MemKind;
use crate::table::Table;

const SWEEPERS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Sweep speedup over the software sweep for 1–8 sweepers, per
/// benchmark.
pub fn run(opts: &Options) -> ExperimentOutput {
    let mut table = Table::new(
        "Fig 20: sweep speedup vs software for N block sweepers",
        &["bench", "sw-ms", "1", "2", "3", "4", "5", "6", "7", "8"],
    );
    let mut metrics = MetricsDoc::new("fig20");
    for spec in DACAPO {
        // Per benchmark, one marked heap; the software baseline and
        // each hardware sweeper count sweep a copy of it.
        let spec = spec.scaled(opts.scale);
        let mut marked = generate_heap(&spec, LayoutKind::Bidirectional).heap;
        software_mark(&mut marked);
        // Software baseline: the CPU collector sweeping the marked heap.
        let heap = &mut marked.clone();
        let sw = Cpu::new(CpuConfig::default(), heap)
            .run_sweep(heap, &mut MemKind::ddr3_default().fresh());
        metrics.phase(&format!("{}.sw_sweep", spec.name), sw.cycles, 1, sw.stalls);
        let mut row = vec![
            spec.name.to_string(),
            format!("{:.2}", sw.cycles as f64 / 1e6),
        ];
        for n in SWEEPERS {
            let heap = &mut marked.clone();
            let cfg = GcUnitConfig {
                sweepers: n,
                ..GcUnitConfig::default()
            };
            let hw = ReclamationUnit::new(cfg, heap).run_sweep(
                heap,
                &mut MemKind::ddr3_default().fresh(),
                0,
            );
            metrics.phase(
                &format!("{}.hw{n}_sweep", spec.name),
                hw.cycles(),
                hw.lanes,
                hw.stalls,
            );
            row.push(format!(
                "{:.2}",
                sw.cycles as f64 / hw.cycles().max(1) as f64
            ));
        }
        table.row(row);
    }
    ExperimentOutput {
        title: "Fig 20: block-sweeper scaling",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: near-linear to 2 sweepers, diminishing beyond, slower again at 8 \
             (memory contention); 4 sweepers beat the CPU 2-3x."
                .into(),
        ],
    }
}
