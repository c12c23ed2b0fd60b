//! `overlap`: mark and sweep overlapped on one shared memory system.
//!
//! The scheduler layer makes phase overlap a configuration rather than
//! new hardware: the traversal unit marks heap A while the reclamation
//! unit sweeps heap B (two processes, as in §VII), both issuing into
//! the same DDR3 model. The `throttled` row caps the pair's issue
//! bandwidth to one service cycle in four — the paper's observation
//! that the unit "can be throttled to limit its memory bandwidth
//! usage" (§VII) — which mostly prices the mark engine, since the
//! sweepers run on their own lane clocks.

use tracegc_heap::verify::software_mark;
use tracegc_heap::{LayoutKind, SocCtx};
use tracegc_hwgc::{GcUnitConfig, MarkEngine, ReclamationUnit, SweepEngine, TraversalUnit};
use tracegc_sim::sched::{Engine, Policy, Scheduler};
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::MemKind;
use crate::table::{ms, Table};

/// How the two engines share the clock in one grid point.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Mark fully, then sweep — the stop-the-world phase order.
    Serial,
    /// Both engines every cycle on one shared memory system.
    Lockstep,
    /// Both engines serviced one cycle in `period`.
    Throttled { period: u64 },
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Lockstep => "overlapped",
            Mode::Throttled { .. } => "overlapped/throttled-4",
        }
    }
}

/// Marks one heap while sweeping another, serial vs overlapped.
pub fn run(opts: &Options) -> ExperimentOutput {
    let mark_spec = by_name("lusearch")
        .expect("lusearch exists")
        .scaled(opts.scale);
    let mut sweep_spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    // A distinct process: same generator, different object graph.
    sweep_spec.seed ^= 0x5eed;

    let mut table = Table::new(
        "overlap: mark (lusearch) + sweep (avrora) on one DDR3",
        &["mode", "wall-ms", "mark-ms", "sweep-ms", "vs-serial"],
    );
    let modes = vec![Mode::Serial, Mode::Lockstep, Mode::Throttled { period: 4 }];
    let results: Vec<_> = modes
        .into_iter()
        .map(|mode| {
            let mut a = generate_heap(&mark_spec, LayoutKind::Bidirectional);
            let mut b = generate_heap(&sweep_spec, LayoutKind::Bidirectional);
            software_mark(&mut b.heap);
            let mut mem = MemKind::ddr3_default().fresh();
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut a.heap);
            let mut rec = ReclamationUnit::new(GcUnitConfig::default(), &b.heap);
            match mode {
                Mode::Serial => {
                    let mark = unit.run_mark(&mut a.heap, &mut mem, 0);
                    let sweep = rec.run_sweep(&mut b.heap, &mut mem, mark.end);
                    (mode, sweep.end, mark, sweep)
                }
                Mode::Lockstep | Mode::Throttled { .. } => {
                    let policy = match mode {
                        Mode::Throttled { period } => Policy::Throttled { period },
                        _ => Policy::Lockstep,
                    };
                    unit.begin(&a.heap, 0);
                    let mut sweep_eng = SweepEngine::new(&mut rec, 1, 0);
                    let report = {
                        let mut mark_eng = MarkEngine::new(&mut unit, 0);
                        let mut ctx = SocCtx::new(&mut mem, vec![&mut a.heap, &mut b.heap]);
                        let mut engines: [&mut dyn Engine<SocCtx>; 2] =
                            [&mut mark_eng, &mut sweep_eng];
                        Scheduler::new(policy).run(&mut engines, &mut ctx, 0)
                    };
                    let mark = unit.result_at(0, report.ends[0]);
                    (mode, report.end, mark, sweep_eng.into_result())
                }
            }
        })
        .collect();
    let serial_wall = results[0].1;
    let mut metrics = MetricsDoc::new("overlap");
    for (mode, wall, mark, sweep) in results {
        let label = mode.label();
        table.row(vec![
            label.into(),
            ms(wall),
            ms(mark.cycles()),
            ms(sweep.cycles()),
            format!("{:.2}x", serial_wall as f64 / wall.max(1) as f64),
        ]);
        // Both engines keep exact ledgers under every policy: the mark
        // engine is charged by the scheduler cycle-for-cycle, the sweep
        // engine self-accounts across its lanes.
        let key = label.replace('/', "_");
        metrics.phase(&format!("{key}.mark"), mark.cycles(), 1, mark.stalls);
        metrics.phase(
            &format!("{key}.sweep"),
            sweep.cycles(),
            sweep.lanes,
            sweep.stalls,
        );
        metrics.gauge(&format!("{key}.wall_ms"), wall as f64 / 1e6);
        metrics.gauge(
            &format!("{key}.vs_serial"),
            serial_wall as f64 / wall.max(1) as f64,
        );
    }
    ExperimentOutput {
        id: "overlap",
        title: "Overlapped mark + sweep on a shared memory system",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Overlapping the two phases hides part of each unit's memory \
             latency behind the other's work, so the overlapped wall time \
             beats mark+sweep run back to back; throttling the pair to one \
             service cycle in four prices the traversal unit (which issues \
             on the shared clock) while the lane-clocked sweepers barely \
             notice — the bandwidth cap of paper SVII."
                .into(),
        ],
    }
}
