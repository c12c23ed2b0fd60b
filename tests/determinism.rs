//! Determinism: identical seeds produce bit-identical simulations, and
//! different seeds produce different heaps — the property that makes
//! every figure in EXPERIMENTS.md reproducible.

use tracegc::heap::LayoutKind;
use tracegc::hwgc::GcUnitConfig;
use tracegc::runner::{DualRun, MemKind};
use tracegc::workloads::spec::{by_name, BenchSpec};

fn spec() -> BenchSpec {
    by_name("pmd").expect("pmd exists").scaled(0.015)
}

fn fingerprint(mem_kind: MemKind) -> Vec<u64> {
    let mut run = DualRun::new(&spec(), LayoutKind::Bidirectional, GcUnitConfig::default());
    let pauses = run.run_pauses(mem_kind, 2, 0.2);
    pauses
        .iter()
        .flat_map(|p| {
            [
                p.cpu_mark_cycles,
                p.cpu_sweep_cycles,
                p.unit_mark_cycles,
                p.unit_sweep_cycles,
                p.objects_marked,
                p.cells_freed,
                p.cpu_mem.total_bytes,
                p.unit_mem.total_bytes,
                p.unit_markq.spill_writes,
            ]
        })
        .collect()
}

#[test]
fn identical_seeds_reproduce_exactly_on_ddr3() {
    assert_eq!(
        fingerprint(MemKind::ddr3_default()),
        fingerprint(MemKind::ddr3_default())
    );
}

#[test]
fn identical_seeds_reproduce_exactly_on_pipe() {
    assert_eq!(
        fingerprint(MemKind::pipe_8gbps()),
        fingerprint(MemKind::pipe_8gbps())
    );
}

#[test]
fn different_seeds_differ() {
    let a = tracegc::workloads::generate::generate_heap(&spec(), LayoutKind::Bidirectional);
    let mut other = spec();
    other.seed ^= 0xDEADBEEF;
    let b = tracegc::workloads::generate::generate_heap(&other, LayoutKind::Bidirectional);
    assert_ne!(
        a.heap.reachable_from_roots(),
        b.heap.reachable_from_roots(),
        "different seeds should build different graphs"
    );
}

#[test]
fn results_are_independent_of_jobs() {
    // The whole registry (minus fig18/ablE, which force large scales)
    // through the library API behind `--jobs`: a serial run and an
    // 8-worker run must produce identical tables in identical order.
    use tracegc::experiments::{run_ids, Options, ALL};

    let ids: Vec<&str> = ALL
        .iter()
        .copied()
        .filter(|&id| id != "fig18" && id != "ablE")
        .collect();
    let opts = |jobs| Options {
        scale: 0.015,
        pauses: 1,
        jobs,
        ..Options::default()
    };
    let serial = run_ids(&ids, &opts(1)).expect("valid ids");
    let parallel = run_ids(&ids, &opts(8)).expect("valid ids");

    assert_eq!(serial.len(), parallel.len());
    for ((id, s), p) in ids.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            s.output.metrics.id, *id,
            "outputs must come back in request order"
        );
        assert_eq!(s.output.metrics.id, p.output.metrics.id);
        assert_eq!(s.output.notes, p.output.notes, "{id} notes differ");
        assert_eq!(
            s.output.tables.len(),
            p.output.tables.len(),
            "{id} table count differs"
        );
        for (st, pt) in s.output.tables.iter().zip(&p.output.tables) {
            assert_eq!(st.to_csv(), pt.to_csv(), "{id} tables differ across --jobs");
        }
    }
}

#[test]
fn unknown_ids_are_rejected_before_anything_runs() {
    use tracegc::experiments::{run_ids, Options};
    let err = run_ids(&["fig15", "fig99"], &Options::default()).unwrap_err();
    assert!(err.contains("fig99"), "error should name the bad id: {err}");
}

#[test]
fn scale_changes_the_workload_but_not_the_shape() {
    let small =
        tracegc::workloads::generate::generate_heap(&spec().scaled(0.5), LayoutKind::Bidirectional);
    let large = tracegc::workloads::generate::generate_heap(&spec(), LayoutKind::Bidirectional);
    let small_ratio = small.live_objects as f64 / small.objects.len() as f64;
    let large_ratio = large.live_objects as f64 / large.objects.len() as f64;
    assert!(
        (small_ratio - large_ratio).abs() < 0.1,
        "live fraction should be scale-invariant: {small_ratio} vs {large_ratio}"
    );
}
