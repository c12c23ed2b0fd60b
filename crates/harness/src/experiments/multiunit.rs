//! `multiunit`: N traversal units marking N heaps over one DDR3.
//!
//! Where `multi` time-multiplexes one datapath across processes (§VII),
//! this experiment instantiates N *full* units — the paper's "the area
//! costs of our design are small enough that it could be replicated"
//! direction — and lets the scheduler tick them in lockstep against a
//! single shared memory system. Speedup over one unit is bounded by
//! DRAM bandwidth, not by the units.

use tracegc_heap::{Heap, LayoutKind, SocCtx};
use tracegc_hwgc::{GcUnitConfig, MarkEngine, TraversalUnit};
use tracegc_sim::sched::{Engine, Policy, Scheduler};
use tracegc_workloads::generate::generate_heap;
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
    let results: Vec<_> = UNITS
        .into_iter()
        .map(|n| {
            // N independent processes: same generator, distinct seeds.
            let mut workloads: Vec<_> = (0..n as u64)
                .map(|i| {
                    let mut s = spec;
                    s.seed ^= i.wrapping_mul(0x9e37_79b9);
                    generate_heap(&s, LayoutKind::Bidirectional)
                })
                .collect();
            let mut units: Vec<TraversalUnit> = workloads
                .iter_mut()
                .map(|w| TraversalUnit::new(GcUnitConfig::default(), &mut w.heap))
                .collect();
            for (u, w) in units.iter_mut().zip(&workloads) {
                u.begin(&w.heap, 0);
            }
            let mut mem = MemKind::ddr3_default().fresh();
            let report = {
                let heaps: Vec<&mut Heap> = workloads.iter_mut().map(|w| &mut w.heap).collect();
                let mut engines: Vec<MarkEngine> = units
                    .iter_mut()
                    .enumerate()
                    .map(|(i, u)| MarkEngine::new(u, i))
                    .collect();
                let mut ctx = SocCtx::new(&mut mem, heaps);
                let mut dyns: Vec<&mut dyn Engine<SocCtx>> = engines
                    .iter_mut()
                    .map(|e| e as &mut dyn Engine<SocCtx>)
                    .collect();
                Scheduler::new(Policy::Lockstep)
                    .try_run(&mut dyns, &mut ctx, 0)
                    .expect("multiunit: Scheduler::try_run over the shared DDR3 wedged")
            };
            let per_unit: Vec<_> = units
                .iter()
                .zip(&report.ends)
                .map(|(u, &end)| u.result_at(0, end))
                .collect();
            (report.end, per_unit)
        })
        .collect();
    let solo_wall = results[0].0;
    let mut metrics = MetricsDoc::new("multiunit");
    for (n, (wall, per_unit)) in UNITS.into_iter().zip(results) {
        let mean: u64 =
            per_unit.iter().map(|r| r.cycles()).sum::<u64>() / per_unit.len().max(1) as u64;
        table.row(vec![
            format!("{n}"),
            ms(wall),
            format!("{:.2}x", (solo_wall * n as u64) as f64 / wall.max(1) as f64),
            ms(mean),
        ]);
        // Lockstep charges every unit's ledger cycle-for-cycle until
        // that unit finishes, so each per-unit phase is exact.
        for (i, r) in per_unit.iter().enumerate() {
            metrics.phase(&format!("units{n}.u{i}.mark"), r.cycles(), 1, r.stalls);
        }
        metrics.gauge(&format!("units{n}.wall_ms"), wall as f64 / 1e6);
        metrics.gauge(
            &format!("units{n}.vs_serial"),
            (solo_wall * n as u64) as f64 / wall.max(1) as f64,
        );
    }
    ExperimentOutput {
        id: "multiunit",
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
