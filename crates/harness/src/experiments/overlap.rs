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
    // Every mode collects copies of the same two heaps.
    let marked = generate_heap(&mark_spec, LayoutKind::Bidirectional).heap;
    let mut swept = generate_heap(&sweep_spec, LayoutKind::Bidirectional).heap;
    software_mark(&mut swept);
    let mut metrics = MetricsDoc::new("overlap");
    let mut serial_wall = None;
    // How the two engines share the clock: mark fully, then sweep (the
    // stop-the-world phase order, no policy), or both on one shared
    // memory system under a scheduler policy.
    for (label, policy) in [
        ("serial", None),
        ("overlapped", Some(Policy::Lockstep)),
        (
            "overlapped/throttled-4",
            Some(Policy::Throttled { period: 4 }),
        ),
    ] {
        let (a, b) = (&mut marked.clone(), &mut swept.clone());
        let mut mem = MemKind::ddr3_default().fresh();
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), a);
        let mut rec = ReclamationUnit::new(GcUnitConfig::default(), b);
        let (wall, mark, sweep) = match policy {
            None => {
                let mark = unit
                    .try_run_mark(a, &mut mem, 0)
                    .expect("overlap: TraversalUnit::try_run_mark faulted on a clean heap");
                let sweep = rec.run_sweep(b, &mut mem, mark.end);
                (sweep.end, mark, sweep)
            }
            Some(policy) => {
                unit.begin(a, 0);
                let mut sweep_eng = SweepEngine::new(&mut rec, 1, 0);
                let report = {
                    let mut mark_eng = MarkEngine::new(&mut unit, 0);
                    let mut ctx = SocCtx::new(&mut mem, vec![a, b]);
                    let mut engines: [&mut dyn Engine<SocCtx>; 2] = [&mut mark_eng, &mut sweep_eng];
                    Scheduler::new(policy)
                        .try_run(&mut engines, &mut ctx, 0)
                        .expect("overlap: Scheduler::try_run of mark and sweep wedged")
                };
                let mark = unit.result_at(0, report.ends[0]);
                (report.end, mark, sweep_eng.into_result())
            }
        };
        let serial_wall = *serial_wall.get_or_insert(wall);
        let vs_serial = serial_wall as f64 / wall.max(1) as f64;
        table.row(vec![
            label.into(),
            ms(wall),
            ms(mark.cycles()),
            ms(sweep.cycles()),
            format!("{vs_serial:.2}x"),
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
        metrics.gauge(&format!("{key}.vs_serial"), vs_serial);
    }
    ExperimentOutput {
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
