//! Fault injection and graceful degradation, end to end: every injected
//! fault class must turn into a structured trap, the software-fallback
//! mark must complete from the unit's architected state, and the final
//! live set must be *exactly* what a clean mark produces. Zero-rate
//! fault plans must be byte-invisible in every experiment's output.

use tracegc::experiments::{run, Options, ALL};
use tracegc::heap::verify::check_free_lists;
use tracegc::heap::LayoutKind;
use tracegc::hwgc::{
    try_run_concurrent_mark, try_run_multiprocess_mark, GcUnitConfig, MutatorConfig,
    ProcessContext, TrapKind, TraversalUnit,
};
use tracegc::mem::MemSystem;
use tracegc::runner::{run_faulted_mark, run_unit_gc, FaultedMarkRun, MarkOutcome, MemKind};
use tracegc::sim::{FaultConfig, FaultPlan, FaultSite, Policy, SimError};
use tracegc::workloads::generate::generate_heap;
use tracegc::workloads::spec::{by_name, BenchSpec};

fn spec() -> BenchSpec {
    by_name("avrora").expect("avrora exists").scaled(0.02)
}

/// One mark pass under `fault` with the default unit. The mark/
/// reachability differential check runs inside `run_faulted_mark`
/// for every non-failed outcome, whichever path completed the mark.
fn faulted(fault: FaultConfig) -> FaultedMarkRun {
    run_faulted_mark(
        &spec(),
        LayoutKind::Bidirectional,
        GcUnitConfig::default(),
        MemKind::ddr3_default(),
        fault,
    )
}

fn assert_falls_back(run: &FaultedMarkRun, want: &[TrapKind]) -> TrapKind {
    match &run.outcome {
        MarkOutcome::Fallback(fb) => {
            assert!(
                want.contains(&fb.trap.kind),
                "unexpected trap {:?} (wanted one of {want:?})",
                fb.trap.kind
            );
            assert!(run.fallback_cycles > 0, "fallback must cost cycles");
            fb.trap.kind
        }
        other => panic!("expected a fallback, got {other:?}"),
    }
}

/// The clean baseline every fault class is compared against.
fn clean_marked() -> u64 {
    let clean = faulted(FaultConfig::zero_rates(0));
    assert!(matches!(clean.outcome, MarkOutcome::Clean));
    clean.objects_marked
}

#[test]
fn corrupted_references_degrade_to_an_identical_mark() {
    let run = faulted(FaultConfig {
        seed: 21,
        corrupt_ref_rate: 0.02,
        ..FaultConfig::default()
    });
    // A corrupted reference word can look out-of-bounds, misaligned, or
    // land on a non-header; all are sanitizer traps.
    assert_falls_back(
        &run,
        &[
            TrapKind::RefOutOfBounds,
            TrapKind::RefMisaligned,
            TrapKind::HeaderCorrupt,
        ],
    );
    assert!(run.stats.corrupted_refs > 0);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn corrupted_headers_degrade_to_an_identical_mark() {
    let run = faulted(FaultConfig {
        seed: 5,
        corrupt_header_rate: 0.02,
        ..FaultConfig::default()
    });
    assert_falls_back(&run, &[TrapKind::HeaderCorrupt]);
    assert!(run.stats.corrupted_headers > 0);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn invalid_ptes_degrade_to_an_identical_mark() {
    // PTE faults only fire on actual page-table walks, and the small
    // test heap keeps the TLB warm — a high rate makes the handful of
    // walks deterministic targets.
    let run = faulted(FaultConfig {
        seed: 9,
        pte_fault_rate: 0.5,
        ..FaultConfig::default()
    });
    assert_falls_back(&run, &[TrapKind::PageFault]);
    assert!(run.stats.pte_faults > 0);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn dropped_responses_exhaust_retries_and_degrade() {
    let run = faulted(FaultConfig {
        seed: 2,
        drop_rate: 1.0,
        ..FaultConfig::default()
    });
    assert_falls_back(&run, &[TrapKind::MemTimeout]);
    assert!(run.stats.dropped > 0);
    assert!(run.stats.timeouts > 0);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn uncorrectable_ecc_degrades_to_an_identical_mark() {
    let run = faulted(FaultConfig {
        seed: 3,
        bit_flip_rate: 1.0,
        ecc_detect_weight: 0.0,
        ecc_uncorrectable_weight: 1.0,
        ..FaultConfig::default()
    });
    assert_falls_back(&run, &[TrapKind::EccUncorrectable]);
    assert!(run.stats.ecc_uncorrectable > 0);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn correctable_ecc_is_absorbed_without_a_trap() {
    // Every access flips a bit but ECC corrects all of them: the run
    // stays clean (slower, never wrong).
    let run = faulted(FaultConfig {
        seed: 4,
        bit_flip_rate: 1.0,
        ecc_detect_weight: 0.0,
        ecc_uncorrectable_weight: 0.0,
        ..FaultConfig::default()
    });
    assert!(matches!(run.outcome, MarkOutcome::Clean));
    assert!(run.stats.ecc_corrected > 0);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn spill_exhaustion_degrades_to_an_identical_mark() {
    // No injected faults at all: a one-chunk spill region exhausts on
    // its own, which must trap and degrade like any other fault.
    let run = run_faulted_mark(
        &spec(),
        LayoutKind::Bidirectional,
        GcUnitConfig {
            markq_entries: 16,
            markq_side: 16,
            spill_bytes: 64,
            ..GcUnitConfig::default()
        },
        MemKind::ddr3_default(),
        FaultConfig::zero_rates(0),
    );
    assert_falls_back(&run, &[TrapKind::SpillExhausted]);
    assert_eq!(run.objects_marked, clean_marked());
}

#[test]
fn request_timeout_budget_degrades_to_an_identical_mark() {
    // The fleet scheduler's per-request timeout: no injected faults at
    // all, just a mark budget far below the real service time. The unit
    // must latch `RequestTimeout` at its deadline (in both pacings —
    // `next_event_at` reports the deadline as a wake source) and the
    // software fallback must finish the mark identically.
    let timed_out = || {
        run_faulted_mark(
            &spec(),
            LayoutKind::Bidirectional,
            GcUnitConfig {
                mark_budget: 64,
                ..GcUnitConfig::default()
            },
            MemKind::ddr3_default(),
            FaultConfig::zero_rates(0),
        )
    };
    let run = timed_out();
    assert_falls_back(&run, &[TrapKind::RequestTimeout]);
    assert_eq!(run.objects_marked, clean_marked());
    // The deadline is a cycle count, not a race: the trap lands on the
    // same cycle every time.
    match (&run.outcome, &timed_out().outcome) {
        (MarkOutcome::Fallback(a), MarkOutcome::Fallback(b)) => {
            assert_eq!(a.trap.at, b.trap.at, "timeout cycle must be deterministic");
        }
        other => panic!("expected two fallbacks, got {other:?}"),
    }
}

#[test]
fn fallback_completed_collection_sweeps_like_a_clean_one() {
    // The full GC path: trap, software fallback, then the unit's sweep.
    // Heap invariants must hold and the freed set must match a clean
    // collection exactly.
    let fresh = generate_heap(&spec(), LayoutKind::Bidirectional).heap;
    let (cfg, mem) = (GcUnitConfig::default(), MemKind::ddr3_default());
    let mut heap = fresh.clone();
    let fault = FaultConfig {
        seed: 21,
        corrupt_ref_rate: 0.02,
        ..FaultConfig::default()
    };
    let run = run_unit_gc(&mut heap, cfg, mem, Some(fault));
    assert!(run.fallback.is_some(), "this seed/rate must trap");
    let clean = run_unit_gc(&mut fresh.clone(), cfg, mem, None);
    assert_eq!(run.report.sweep.cells_freed, clean.report.sweep.cells_freed);
    assert_eq!(
        run.report.sweep.live_objects,
        clean.report.sweep.live_objects
    );
    check_free_lists(&heap).unwrap();
    assert!(heap.marked_set().is_empty());
    // The MMIO completion registers reflect the recovered totals.
    assert_eq!(
        run.unit.regs().read(tracegc::hwgc::mmio::Reg::FreedCount),
        run.report.sweep.cells_freed
    );
}

#[test]
fn zero_rate_plan_is_byte_invisible_in_every_experiment() {
    // The property test of the robustness PR: threading an *inactive*
    // fault config through the whole registry must not change a single
    // output byte — tables, notes, or metrics sidecars.
    let ids: Vec<&str> = ALL
        .iter()
        .copied()
        .filter(|&id| id != "fig18" && id != "ablE") // these force large scales
        .collect();
    let opts = |fault| Options {
        scale: 0.015,
        pauses: 1,
        fault,
        ..Options::default()
    };
    let none = opts(None);
    let zero = opts(Some(FaultConfig::zero_rates(42)));
    for id in ids {
        let a = run(id, &none).expect("known id");
        let b = run(id, &zero).expect("known id");
        assert_eq!(a.notes, b.notes, "{id} notes differ under a zero-rate plan");
        assert_eq!(a.tables.len(), b.tables.len());
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ta.to_csv(), tb.to_csv(), "{id} CSV differs");
        }
        assert_eq!(
            a.metrics.to_json(),
            b.metrics.to_json(),
            "{id} sidecar differs under a zero-rate plan"
        );
    }
}

#[test]
fn concurrent_and_multiprocess_errors_are_latched_traps() {
    // The runner's recovery reads the trap register, so the error a
    // mark driver returns must be a trap some unit latched. At these
    // rates a step often issues a request whose fault the memory system
    // latches and then traps on a corrupted word; the latched fault
    // comes second and must not replace the trap.
    let heap = generate_heap(&spec(), LayoutKind::Bidirectional).heap;
    let plan = |seed| {
        FaultPlan::new(FaultConfig {
            seed,
            bit_flip_rate: 0.5,
            ecc_uncorrectable_weight: 0.5,
            drop_rate: 0.5,
            max_retries: 0,
            corrupt_ref_rate: 0.5,
            corrupt_header_rate: 0.5,
            pte_fault_rate: 0.5,
            ..FaultConfig::default()
        })
    };
    let context = |seed| {
        let mut heap = heap.clone();
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
        unit.install_fault_plan(&plan(seed));
        ProcessContext { unit, heap }
    };
    let mem = |seed| {
        let mut mem = MemSystem::ddr3(Default::default());
        mem.set_fault_injector(plan(seed).injector(FaultSite::Mem));
        mem
    };
    let is_trap_of =
        |e: &SimError, unit: &TraversalUnit| unit.trap().map(SimError::from) == Some(e.clone());
    for seed in 0..32 {
        let ProcessContext { mut unit, mut heap } = context(seed);
        let mutator = MutatorConfig::default();
        let e = try_run_concurrent_mark(&mut unit, &mut heap, &mut mem(seed), mutator, 0)
            .expect_err("these rates always trap");
        assert!(
            is_trap_of(&e, &unit),
            "concurrent, seed {seed}: {e} is not {:?}",
            unit.trap()
        );
        let mut procs: Vec<_> = (0..3).map(|i| context(seed + 100 * i)).collect();
        let e = try_run_multiprocess_mark(&mut procs, &mut mem(seed), Policy::RoundRobin, 0)
            .expect_err("these rates always trap");
        assert!(
            procs.iter().any(|p| is_trap_of(&e, &p.unit)),
            "multiprocess, seed {seed}: {e} is no unit's trap"
        );
    }
}
