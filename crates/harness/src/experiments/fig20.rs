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
    // Grid points: per benchmark, the software baseline (None) plus one
    // hardware sweep per sweeper count (Some(n)) — 6 x 9 independent
    // simulations, each building its own heap from the spec's seed.
    let grid: Vec<(tracegc_workloads::spec::BenchSpec, Option<usize>)> = DACAPO
        .iter()
        .flat_map(|&spec| {
            std::iter::once((spec, None)).chain(SWEEPERS.iter().map(move |&n| (spec, Some(n))))
        })
        .collect();
    let results: Vec<_> = grid
        .into_iter()
        .map(|(spec, sweepers)| {
            let spec = spec.scaled(opts.scale);
            let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
            software_mark(&mut w.heap);
            let mut mem = MemKind::ddr3_default().fresh();
            match sweepers {
                // Software baseline: the CPU collector sweeping a marked heap.
                None => {
                    let mut cpu = Cpu::new(CpuConfig::default(), &mut w.heap);
                    let sweep = cpu.run_sweep(&mut w.heap, &mut mem);
                    (sweep.cycles, 1, sweep.stalls)
                }
                Some(n) => {
                    let cfg = GcUnitConfig {
                        sweepers: n,
                        ..GcUnitConfig::default()
                    };
                    let mut unit = ReclamationUnit::new(cfg, &w.heap);
                    let sweep = unit.run_sweep(&mut w.heap, &mut mem, 0);
                    (sweep.cycles(), sweep.lanes, sweep.stalls)
                }
            }
        })
        .collect();
    let mut metrics = MetricsDoc::new("fig20");
    for (spec, per_bench) in DACAPO.iter().zip(results.chunks(1 + SWEEPERS.len())) {
        let (sw_cycles, sw_lanes, sw_stalls) = per_bench[0];
        metrics.phase(
            &format!("{}.sw_sweep", spec.name),
            sw_cycles,
            sw_lanes,
            sw_stalls,
        );
        let mut row = vec![
            spec.name.to_string(),
            format!("{:.2}", sw_cycles as f64 / 1e6),
        ];
        for (&n, &(hw_cycles, lanes, stalls)) in SWEEPERS.iter().zip(&per_bench[1..]) {
            metrics.phase(
                &format!("{}.hw{n}_sweep", spec.name),
                hw_cycles,
                lanes,
                stalls,
            );
            row.push(format!("{:.2}", sw_cycles as f64 / hw_cycles.max(1) as f64));
        }
        table.row(row);
    }
    ExperimentOutput {
        id: "fig20",
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
