//! Refactor-equivalence wall for the `Engine`/`Scheduler` layer.
//!
//! The `try_run_mark` / `run_sweep` / `try_run_gc_at` /
//! `try_run_multiprocess_mark` / `try_run_concurrent_mark` entry points
//! run `Engine::step` under the `Scheduler`. This file proves the
//! refactor preserved behavior cycle-for-cycle: every fingerprint below
//! (end cycle, work counts, and the complete per-reason stall ledger)
//! was captured from the pre-refactor run-to-completion loops on `main`
//! and must match byte for byte. The CPU collector's `run_mark` /
//! `run_sweep` are direct loops on the core's own clock; their
//! fingerprints pin them to the same historical loops. The CPU resume
//! fingerprints (`Cpu::resume_mark_from`, an inline loop that shares
//! the mark loop's reference walk) were captured before that walk was
//! shared. The topology fingerprints pin both cache topologies of
//! Fig. 18 through a spilling mark and a sweep; the shared one counts
//! every access at the shared cache per requester.
//!
//! To regenerate after an *intentional* timing-model change, run
//!
//! ```text
//! cargo test -p tracegc --test engine_equivalence -- --nocapture print_
//! ```
//!
//! and paste the printed fingerprints over the constants.

use tracegc::heap::{Heap, HeapConfig, LayoutKind, ObjRef};
use tracegc::hwgc::multiproc::{try_run_multiprocess_mark, ProcessContext};
use tracegc::hwgc::{
    try_run_concurrent_mark, GcUnit, GcUnitConfig, MutatorConfig, ReclamationUnit, TraversalUnit,
};
use tracegc::mem::{MemSystem, Source};
use tracegc::sim::{StallAccounting, StallReason};

/// Renders a ledger as a stable, diffable string.
fn ledger(s: &StallAccounting) -> String {
    let mut out = format!("busy={}", s.busy_cycles());
    for r in StallReason::ALL {
        out.push_str(&format!(";{}={}", r.name(), s.stalled(r)));
    }
    out
}

/// A binary tree with cross edges (the traversal unit's test workload).
fn mark_heap(n: usize, layout: LayoutKind) -> Heap {
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 256 << 20,
        layout,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| h.alloc(3, (i % 6) as u32, false).unwrap())
        .collect();
    let live = n * 3 / 5;
    for i in 0..live {
        if 2 * i + 1 < live {
            h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
        }
        if 2 * i + 2 < live {
            h.set_ref(objs[i], 1, Some(objs[2 * i + 2]));
        }
        h.set_ref(objs[i], 2, Some(objs[(i * 31 + 7) % live]));
    }
    for i in live..n - 1 {
        h.set_ref(objs[i], 0, Some(objs[i + 1]));
    }
    h.set_roots(&[objs[0]]);
    h
}

/// A half-live heap with marks already set (the sweeper's test workload).
fn swept_heap(n: usize) -> Heap {
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 128 << 20,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| h.alloc((i % 3) as u32, (i % 8) as u32, false).unwrap())
        .collect();
    let live = n / 2;
    for i in 0..live.saturating_sub(1) {
        if h.nrefs(objs[i]) > 0 {
            h.set_ref(objs[i], 0, Some(objs[i + 1]));
        }
    }
    h.set_roots(&objs[..live]);
    tracegc::heap::verify::software_mark(&mut h);
    h
}

/// The CPU collector's test workload.
fn cpu_heap(layout: LayoutKind) -> Heap {
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 128 << 20,
        layout,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..500)
        .map(|i| h.alloc(2 + (i % 3) as u32, (i % 5) as u32, false).unwrap())
        .collect();
    for i in 0..300usize {
        h.set_ref(objs[i], 0, Some(objs[(i + 1) % 300]));
        h.set_ref(objs[i], 1, Some(objs[(i * 17) % 300]));
    }
    for i in 300..499usize {
        h.set_ref(objs[i], 0, Some(objs[i + 1]));
    }
    h.set_roots(&[objs[0], objs[150]]);
    h
}

fn mark_fingerprint(layout: LayoutKind) -> String {
    let mut heap = mark_heap(1500, layout);
    let mut mem = MemSystem::ddr3(Default::default());
    let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
    let r = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
    format!(
        "end={};marked={};refs={};{}",
        r.end,
        r.objects_marked,
        r.refs_enqueued,
        ledger(&r.stalls)
    )
}

fn sweep_fingerprint(sweepers: usize) -> String {
    let mut heap = swept_heap(2000);
    let mut mem = MemSystem::ddr3(Default::default());
    let cfg = GcUnitConfig {
        sweepers,
        ..GcUnitConfig::default()
    };
    let mut unit = ReclamationUnit::new(cfg, &heap);
    let r = unit.run_sweep(&mut heap, &mut mem, 0);
    format!(
        "end={};freed={};reads={};{}",
        r.end,
        r.cells_freed,
        r.line_reads,
        ledger(&r.stalls)
    )
}

fn cpu_fingerprint(layout: LayoutKind) -> String {
    let mut heap = cpu_heap(layout);
    let mut mem = MemSystem::ddr3(Default::default());
    let mut cpu = tracegc::cpu::Cpu::new(tracegc::cpu::CpuConfig::default(), &mut heap);
    let (mark, sweep) = cpu.run_gc(&mut heap, &mut mem);
    format!(
        "mark={};work={};refs={};{}|sweep={};work={};{}",
        mark.cycles,
        mark.work_items,
        mark.refs_traced,
        ledger(&mark.stalls),
        sweep.cycles,
        sweep.work_items,
        ledger(&sweep.stalls)
    )
}

/// A software resume (`Cpu::resume_mark_from`) on the CPU collector's
/// workload. Without `premarked` it is seeded with the roots; with it,
/// with every 37th reachable object, each marked beforehand, as a
/// trapped unit's drained queue leaves them (marked but untraced).
fn resume_fingerprint(layout: LayoutKind, premarked: bool) -> String {
    let mut heap = cpu_heap(layout);
    let seeds: Vec<ObjRef> = if premarked {
        let seeds: Vec<ObjRef> = heap
            .reachable_from_roots()
            .into_iter()
            .step_by(37)
            .collect();
        for &s in &seeds {
            heap.mark(s);
        }
        seeds
    } else {
        heap.roots().to_vec()
    };
    let pending: Vec<u64> = seeds.iter().map(|s| s.addr()).collect();
    let mut mem = MemSystem::ddr3(Default::default());
    let mut cpu = tracegc::cpu::Cpu::new(tracegc::cpu::CpuConfig::default(), &mut heap);
    let r = cpu.resume_mark_from(&mut heap, &mut mem, &pending);
    format!(
        "cycles={};work={};refs={};{}",
        r.cycles,
        r.work_items,
        r.refs_traced,
        ledger(&r.stalls)
    )
}

fn gc_unit_fingerprint() -> String {
    let mut heap = mark_heap(1200, LayoutKind::Bidirectional);
    let mut mem = MemSystem::ddr3(Default::default());
    let mut unit = GcUnit::new(GcUnitConfig::default(), &mut heap);
    let r = unit.try_run_gc_at(&mut heap, &mut mem, 0).unwrap();
    format!(
        "mark_end={};sweep_end={};marked={};freed={}",
        r.mark.end, r.sweep.end, r.mark.objects_marked, r.sweep.cells_freed
    )
}

/// A full `GcUnit` mark and sweep of `mark_heap(12000, layout)` in
/// `topology`, with a 64-entry mark queue so the spill engine writes
/// and fills. The conventional run stores compressed entries. Holds both
/// ledgers, the translator and spill counts, the memory requests per
/// source and, in the shared topology, the shared cache's accesses per
/// source and its write-backs (Fig. 18a).
fn topology_fingerprint(topology: CacheTopology, layout: LayoutKind) -> String {
    let mut heap = mark_heap(12_000, layout);
    let mut mem = MemSystem::ddr3(Default::default());
    let cfg = GcUnitConfig {
        topology,
        markq_entries: 64,
        compress: layout == LayoutKind::Conventional,
        ..GcUnitConfig::default()
    };
    let mut unit = GcUnit::new(cfg, &mut heap);
    let r = unit.try_run_gc_at(&mut heap, &mut mem, 0).unwrap();
    let (t, q) = (r.mark.translator, r.mark.markq);
    let mut out = format!(
        "end={};marked={};refs={};walks={};l1={};l2={};walker_wait={};walk_cycles={};\
         spw={};spr={};spill_bytes={};{}|sweep_end={};freed={};reads={};{}|mem_bytes={}",
        r.mark.end,
        r.mark.objects_marked,
        r.mark.refs_enqueued,
        t.walks,
        t.l1_hits,
        t.l2_hits,
        t.walker_wait_cycles,
        t.walk_cycles,
        q.spill_writes,
        q.spill_reads,
        q.spill_bytes_written,
        ledger(&r.mark.stalls),
        r.sweep.end,
        r.sweep.cells_freed,
        r.sweep.line_reads,
        ledger(&r.sweep.stalls),
        mem.stats().total_bytes
    );
    for s in Source::ALL {
        out.push_str(&format!(";mem_{s}={}", mem.stats().requests(s)));
    }
    if let Some(c) = unit.traversal().shared_cache_stats() {
        out.push('|');
        for s in Source::ALL {
            out.push_str(&format!("{s}={};", c.accesses(s)));
        }
        out.push_str(&format!("wb={}", c.writebacks));
    }
    out
}

fn multiproc_context(n: usize, seed: u64) -> ProcessContext {
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 64 << 20,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| h.alloc(2, (i % 3) as u32, false).unwrap())
        .collect();
    let live = n / 2;
    for i in 0..live {
        if 2 * i + 1 < live {
            h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
        }
        h.set_ref(
            objs[i],
            1,
            Some(objs[((i as u64 * 17 + seed) % live as u64) as usize]),
        );
    }
    h.set_roots(&[objs[0]]);
    let unit = TraversalUnit::new(GcUnitConfig::default(), &mut h);
    ProcessContext { unit, heap: h }
}

fn multiproc_fingerprint() -> String {
    let mut procs = vec![multiproc_context(1500, 1), multiproc_context(1000, 2)];
    let mut mem = MemSystem::ddr3(Default::default());
    let report = try_run_multiprocess_mark(&mut procs, &mut mem, 0).unwrap();
    format!(
        "end={};p0_end={};p0_marked={};p1_end={};p1_marked={}",
        report.end,
        report.per_process[0].end,
        report.per_process[0].objects_marked,
        report.per_process[1].end,
        report.per_process[1].objects_marked
    )
}

fn concurrent_fingerprint() -> String {
    let mut heap = mark_heap(1500, LayoutKind::Bidirectional);
    let mut mem = MemSystem::ddr3(Default::default());
    let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut heap);
    let r = try_run_concurrent_mark(&mut unit, &mut heap, &mut mem, MutatorConfig::default(), 0)
        .unwrap();
    format!(
        "end={};marked={};ops={};barriers={}",
        r.traversal.end, r.traversal.objects_marked, r.mutator_ops, r.write_barriers
    )
}

// ---------------------------------------------------------------------
// Golden fingerprints captured from the pre-refactor loops on `main`.
// ---------------------------------------------------------------------

const GOLDEN_MARK_BIDI: &str = "end=10634;marked=900;refs=1799;busy=4814;mem_latency=5673;\
                                queue_full=0;tlb_miss=147;ptw_busy=0;throttled=0;port_busy=0;idle=0";
const GOLDEN_MARK_CONV: &str = "end=21713;marked=900;refs=1799;busy=8074;mem_latency=13110;\
                                queue_full=0;tlb_miss=529;ptw_busy=0;throttled=0;port_busy=0;idle=0";
const GOLDEN_SWEEP_2: &str = "end=182515;freed=1000;reads=5802;busy=191216;mem_latency=112601;\
                              queue_full=0;tlb_miss=1165;ptw_busy=113;throttled=0;port_busy=0;\
                              idle=59935";
const GOLDEN_SWEEP_4: &str = "end=107251;freed=1000;reads=5802;busy=191216;mem_latency=118967;\
                              queue_full=0;tlb_miss=1087;ptw_busy=444;throttled=0;port_busy=0;\
                              idle=117290";
const GOLDEN_CPU_BIDI: &str = "mark=29038;work=300;refs=900;busy=10522;mem_latency=17724;\
                               queue_full=0;tlb_miss=792;ptw_busy=0;throttled=0;port_busy=0;idle=0\
                               |sweep=167708;work=200;busy=35833;mem_latency=128962;queue_full=0;\
                               tlb_miss=2913;ptw_busy=0;throttled=0;port_busy=0;idle=0";
const GOLDEN_CPU_CONV: &str = "mark=32783;work=300;refs=900;busy=10522;mem_latency=21433;\
                               queue_full=0;tlb_miss=828;ptw_busy=0;throttled=0;port_busy=0;idle=0\
                               |sweep=114433;work=200;busy=21497;mem_latency=90736;queue_full=0;\
                               tlb_miss=2200;ptw_busy=0;throttled=0;port_busy=0;idle=0";
const GOLDEN_RESUME_BIDI_ROOTS: &str = "cycles=26022;work=300;refs=900;busy=7506;\
                                        mem_latency=17897;queue_full=0;tlb_miss=619;ptw_busy=0;\
                                        throttled=0;port_busy=0;idle=0";
const GOLDEN_RESUME_BIDI_MARKED: &str = "cycles=26452;work=291;refs=900;busy=7527;\
                                         mem_latency=18242;queue_full=0;tlb_miss=683;ptw_busy=0;\
                                         throttled=0;port_busy=0;idle=0";
const GOLDEN_RESUME_CONV_ROOTS: &str = "cycles=29195;work=300;refs=900;busy=7506;\
                                        mem_latency=21009;queue_full=0;tlb_miss=680;ptw_busy=0;\
                                        throttled=0;port_busy=0;idle=0";
const GOLDEN_RESUME_CONV_MARKED: &str = "cycles=29289;work=291;refs=900;busy=7527;\
                                         mem_latency=21141;queue_full=0;tlb_miss=621;ptw_busy=0;\
                                         throttled=0;port_busy=0;idle=0";
const GOLDEN_GC_UNIT: &str = "mark_end=7830;sweep_end=71908;marked=720;freed=480";
/// The runs behind the topology fingerprints, in `print_fingerprints`
/// order.
const TOPOLOGY_RUNS: [(&str, CacheTopology, LayoutKind); 4] = [
    (
        "SHARED_BIDI",
        CacheTopology::Shared,
        LayoutKind::Bidirectional,
    ),
    (
        "SHARED_CONV",
        CacheTopology::Shared,
        LayoutKind::Conventional,
    ),
    (
        "PARTITIONED_BIDI",
        CacheTopology::Partitioned,
        LayoutKind::Bidirectional,
    ),
    (
        "PARTITIONED_CONV",
        CacheTopology::Partitioned,
        LayoutKind::Conventional,
    ),
];
const GOLDEN_SHARED_BIDI: &str = "end=264805;marked=7200;refs=14399;walks=125;l1=14771;l2=13905;\
                                  walker_wait=0;walk_cycles=9514;spw=440;spr=440;\
                                  spill_bytes=28160;busy=44598;mem_latency=212159;queue_full=0;\
                                  tlb_miss=8048;ptw_busy=0;throttled=0;port_busy=0;idle=0|\
                                  sweep_end=507372;freed=4800;reads=13260;busy=196736;\
                                  mem_latency=257853;queue_full=0;tlb_miss=2628;ptw_busy=164;\
                                  throttled=0;port_busy=0;idle=27753|mem_bytes=2584952;\
                                  mem_mark-queue=1209;mem_tracer=3610;mem_ptw=100;\
                                  mem_marker=20040;mem_sweeper=30619;mem_root-reader=1;mem_cpu=0|\
                                  mark-queue=880;tracer=14400;ptw=375;marker=14400;sweeper=0;\
                                  root-reader=1;cpu=0;wb=7607";
const GOLDEN_SHARED_CONV: &str = "end=276522;marked=7200;refs=14399;walks=704;l1=44151;l2=12746;\
                                  walker_wait=214;walk_cycles=106898;spw=221;spr=221;\
                                  spill_bytes=14144;busy=63590;mem_latency=124621;queue_full=0;\
                                  tlb_miss=87951;ptw_busy=360;throttled=0;port_busy=0;idle=0|\
                                  sweep_end=510287;freed=4800;reads=12282;busy=207664;\
                                  mem_latency=244171;queue_full=0;tlb_miss=3043;ptw_busy=138;\
                                  throttled=0;port_busy=0;idle=12514|mem_bytes=2533888;\
                                  mem_mark-queue=620;mem_tracer=3664;mem_ptw=730;\
                                  mem_marker=19955;mem_sweeper=31002;mem_root-reader=1;mem_cpu=0|\
                                  mark-queue=442;tracer=43200;ptw=2112;marker=14400;sweeper=0;\
                                  root-reader=1;cpu=0;wb=7404";
const GOLDEN_PARTITIONED_BIDI: &str = "end=196353;marked=7200;refs=14399;walks=125;l1=14450;\
                                       l2=14226;walker_wait=2;walk_cycles=2525;spw=445;spr=445;\
                                       spill_bytes=28424;busy=43481;mem_latency=150796;\
                                       queue_full=0;tlb_miss=2074;ptw_busy=2;throttled=0;\
                                       port_busy=0;idle=0|sweep_end=438957;freed=4800;\
                                       reads=13260;busy=196736;mem_latency=257927;queue_full=0;\
                                       tlb_miss=2628;ptw_busy=164;throttled=0;port_busy=0;\
                                       idle=27753|mem_bytes=1335504;mem_mark-queue=890;\
                                       mem_tracer=14400;mem_ptw=49;mem_marker=14400;\
                                       mem_sweeper=30619;mem_root-reader=1;mem_cpu=0";
const GOLDEN_PARTITIONED_CONV: &str = "end=257088;marked=7200;refs=14399;walks=790;l1=44004;\
                                       l2=12807;walker_wait=0;walk_cycles=7123;spw=220;spr=220;\
                                       spill_bytes=14032;busy=68432;mem_latency=182723;\
                                       queue_full=0;tlb_miss=5933;ptw_busy=0;throttled=0;\
                                       port_busy=0;idle=0|sweep_end=490881;freed=4800;\
                                       reads=12282;busy=207664;mem_latency=244227;queue_full=0;\
                                       tlb_miss=3043;ptw_busy=138;throttled=0;port_busy=0;\
                                       idle=12514|mem_bytes=1485992;mem_mark-queue=440;\
                                       mem_tracer=43200;mem_ptw=58;mem_marker=14400;\
                                       mem_sweeper=31002;mem_root-reader=1;mem_cpu=0";
// Regenerated when round-robin arbitration became hop-invariant (the
// grant pointer now advances one slot per grant round instead of being
// derived from the absolute cycle, so post-idle-span rotation resumes
// where it left off instead of jumping to `now % n`).
const GOLDEN_MULTIPROC_DUO: &str = "end=6195;p0_end=3067;p0_marked=200;p1_end=6195;p1_marked=350";
const GOLDEN_CONCURRENT: &str = "end=10854;marked=900;ops=271;barriers=60";

#[test]
fn print_fingerprints() {
    // Run with --nocapture to (re)capture the golden constants.
    println!(
        "GOLDEN_MARK_BIDI: {}",
        mark_fingerprint(LayoutKind::Bidirectional)
    );
    println!(
        "GOLDEN_MARK_CONV: {}",
        mark_fingerprint(LayoutKind::Conventional)
    );
    println!("GOLDEN_SWEEP_2: {}", sweep_fingerprint(2));
    println!("GOLDEN_SWEEP_4: {}", sweep_fingerprint(4));
    println!(
        "GOLDEN_CPU_BIDI: {}",
        cpu_fingerprint(LayoutKind::Bidirectional)
    );
    println!(
        "GOLDEN_CPU_CONV: {}",
        cpu_fingerprint(LayoutKind::Conventional)
    );
    for (name, layout) in [
        ("BIDI", LayoutKind::Bidirectional),
        ("CONV", LayoutKind::Conventional),
    ] {
        println!(
            "GOLDEN_RESUME_{name}_ROOTS: {}",
            resume_fingerprint(layout, false)
        );
        println!(
            "GOLDEN_RESUME_{name}_MARKED: {}",
            resume_fingerprint(layout, true)
        );
    }
    println!("GOLDEN_GC_UNIT: {}", gc_unit_fingerprint());
    for (name, topology, layout) in TOPOLOGY_RUNS {
        println!("GOLDEN_{name}: {}", topology_fingerprint(topology, layout));
    }
    println!("GOLDEN_MULTIPROC_DUO: {}", multiproc_fingerprint());
    println!("GOLDEN_CONCURRENT: {}", concurrent_fingerprint());
}

#[test]
fn scheduled_mark_matches_pre_refactor_golden() {
    assert_eq!(
        mark_fingerprint(LayoutKind::Bidirectional),
        GOLDEN_MARK_BIDI
    );
    assert_eq!(mark_fingerprint(LayoutKind::Conventional), GOLDEN_MARK_CONV);
}

#[test]
fn scheduled_sweep_matches_pre_refactor_golden() {
    assert_eq!(sweep_fingerprint(2), GOLDEN_SWEEP_2);
    assert_eq!(sweep_fingerprint(4), GOLDEN_SWEEP_4);
}

#[test]
fn scheduled_cpu_phases_match_pre_refactor_golden() {
    assert_eq!(cpu_fingerprint(LayoutKind::Bidirectional), GOLDEN_CPU_BIDI);
    assert_eq!(cpu_fingerprint(LayoutKind::Conventional), GOLDEN_CPU_CONV);
}

#[test]
fn cpu_resume_matches_golden() {
    assert_eq!(
        resume_fingerprint(LayoutKind::Bidirectional, false),
        GOLDEN_RESUME_BIDI_ROOTS
    );
    assert_eq!(
        resume_fingerprint(LayoutKind::Bidirectional, true),
        GOLDEN_RESUME_BIDI_MARKED
    );
    assert_eq!(
        resume_fingerprint(LayoutKind::Conventional, false),
        GOLDEN_RESUME_CONV_ROOTS
    );
    assert_eq!(
        resume_fingerprint(LayoutKind::Conventional, true),
        GOLDEN_RESUME_CONV_MARKED
    );
}

#[test]
fn scheduled_gc_unit_matches_pre_refactor_golden() {
    assert_eq!(gc_unit_fingerprint(), GOLDEN_GC_UNIT);
}

#[test]
fn topology_fingerprints_match_golden() {
    let golden = [
        GOLDEN_SHARED_BIDI,
        GOLDEN_SHARED_CONV,
        GOLDEN_PARTITIONED_BIDI,
        GOLDEN_PARTITIONED_CONV,
    ];
    for ((name, topology, layout), want) in TOPOLOGY_RUNS.into_iter().zip(golden) {
        assert_eq!(topology_fingerprint(topology, layout), want, "{name}");
    }
}

#[test]
fn scheduled_multiproc_matches_pre_refactor_golden() {
    assert_eq!(multiproc_fingerprint(), GOLDEN_MULTIPROC_DUO);
}

#[test]
fn scheduled_concurrent_matches_pre_refactor_golden() {
    assert_eq!(concurrent_fingerprint(), GOLDEN_CONCURRENT);
}

// ---------------------------------------------------------------------
// Fast-forward vs lockstep: the same driver run under both pacings
// must agree on every fingerprint (cycle counts AND full ledgers).
// ---------------------------------------------------------------------

#[test]
fn pacing_differential_deterministic_drivers() {
    use tracegc::sim::{with_pacing, Pacing};
    let both = |f: &dyn Fn() -> String| {
        (
            with_pacing(Pacing::FastForward, f),
            with_pacing(Pacing::Lockstep, f),
        )
    };
    for (name, f) in [
        (
            "mark_bidi",
            &(|| mark_fingerprint(LayoutKind::Bidirectional)) as &dyn Fn() -> String,
        ),
        ("mark_conv", &|| mark_fingerprint(LayoutKind::Conventional)),
        ("sweep_2", &|| sweep_fingerprint(2)),
        ("sweep_4", &|| sweep_fingerprint(4)),
        ("gc_unit", &|| gc_unit_fingerprint()),
        ("multiproc", &|| multiproc_fingerprint()),
        ("concurrent", &|| concurrent_fingerprint()),
    ] {
        let (ff, ls) = both(f);
        assert_eq!(ff, ls, "{name}: fast-forward and lockstep disagree");
    }
}

// ---------------------------------------------------------------------
// Randomized differential wall: seeded (workload, config, fault-plan,
// policy) combinations, each run under both pacings, asserting
// identical cycle counts, complete stall ledgers, trap registers and
// outcome classifications. Combo counts are trimmed in debug builds so
// `cargo test` stays fast; release runs clear a thousand scheduler
// runs across the four families.
// ---------------------------------------------------------------------

use tracegc::hwgc::{CacheTopology, MarkEngine, SweepEngine};
use tracegc::runner::{run_faulted_mark, MarkOutcome, MemKind};
use tracegc::sim::{
    with_pacing, Engine, FaultConfig, Pacing, Policy, Progress, Rng, Scheduler, SimError, StdRng,
};
use tracegc::workloads::spec::DACAPO;

/// Seeds per randomized family (each seed = one combo run twice).
const COMBOS: u64 = if cfg!(debug_assertions) { 12 } else { 150 };
/// Fault runs build real benchmark heaps, so they get a smaller pool.
const FAULT_COMBOS: u64 = if cfg!(debug_assertions) { 6 } else { 24 };

/// Runs `f` under both pacings and asserts identical fingerprints.
fn assert_pacing_equal(name: String, f: impl Fn() -> String) {
    let ff = with_pacing(Pacing::FastForward, &f);
    let ls = with_pacing(Pacing::Lockstep, &f);
    assert_eq!(ff, ls, "{name}: fast-forward and lockstep disagree");
}

/// A seeded unit configuration exercising the fast-forward-sensitive
/// corners: queue pressure, compression, throttling, walker count,
/// cache topology.
fn random_cfg(rng: &mut StdRng) -> GcUnitConfig {
    let mut cfg = GcUnitConfig {
        marker_slots: [1, 2, 4, 8][rng.random_range(0..4usize)],
        tracer_queue: [2, 4, 16][rng.random_range(0..3usize)],
        markq_entries: [8, 16, 64][rng.random_range(0..3usize)],
        markq_side: [16, 32, 64][rng.random_range(0..3usize)],
        compress: rng.random(),
        markbit_cache: [0, 64][rng.random_range(0..2usize)],
        sweepers: [1, 2, 4, 8][rng.random_range(0..4usize)],
        min_issue_interval: [0, 0, 2, 5][rng.random_range(0..4usize)],
        topology: if rng.random() {
            CacheTopology::Shared
        } else {
            CacheTopology::Partitioned
        },
        ..GcUnitConfig::default()
    };
    cfg.tlb.concurrent_walks = [1, 2, 4][rng.random_range(0..3usize)];
    cfg.tlb.blocking_requesters = rng.random();
    cfg
}

/// A seeded tree-with-cross-edges heap (size and cross edges vary).
fn random_mark_heap(rng: &mut StdRng, layout: LayoutKind) -> Heap {
    let n = rng.random_range(200..700usize);
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 128 << 20,
        layout,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| h.alloc(3, (i % 6) as u32, false).unwrap())
        .collect();
    let live = n * 3 / 5;
    for i in 0..live {
        if 2 * i + 1 < live {
            h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
        }
        if 2 * i + 2 < live {
            h.set_ref(objs[i], 1, Some(objs[2 * i + 2]));
        }
        h.set_ref(objs[i], 2, Some(objs[rng.random_range(0..live)]));
    }
    h.set_roots(&[objs[0]]);
    h
}

#[test]
fn pacing_differential_randomized_marks() {
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("mark[seed={seed}]"), || {
            let mut rng = StdRng::seed_from_u64(seed);
            let layout = if rng.random() {
                LayoutKind::Bidirectional
            } else {
                LayoutKind::Conventional
            };
            let cfg = random_cfg(&mut rng);
            let mut heap = random_mark_heap(&mut rng, layout);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(cfg, &mut heap);
            let r = unit.try_run_mark(&mut heap, &mut mem, 0).unwrap();
            format!(
                "end={};marked={};refs={};{}",
                r.end,
                r.objects_marked,
                r.refs_enqueued,
                ledger(&r.stalls)
            )
        });
    }
}

#[test]
fn pacing_differential_randomized_sweeps() {
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("sweep[seed={seed}]"), || {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let cfg = random_cfg(&mut rng);
            let n = rng.random_range(400..1200usize);
            let mut heap = swept_heap(n);
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = ReclamationUnit::new(cfg, &heap);
            let r = unit.run_sweep(&mut heap, &mut mem, 0);
            format!(
                "end={};freed={};reads={};{}",
                r.end,
                r.cells_freed,
                r.line_reads,
                ledger(&r.stalls)
            )
        });
    }
}

#[test]
fn pacing_differential_randomized_policies() {
    use tracegc::heap::SocCtx;
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("policy[seed={seed}]"), || {
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let policy = match rng.random_range(0..3usize) {
                0 => Policy::Lockstep,
                1 => Policy::RoundRobin,
                _ => Policy::Throttled {
                    period: rng.random_range(2..8u64),
                },
            };
            // One unit marking heap A while the sweeper array reclaims
            // heap B on the same DDR3 controller (the overlap shape).
            let mut a = random_mark_heap(&mut rng, LayoutKind::Bidirectional);
            let mut b = swept_heap(rng.random_range(300..800usize));
            let mut mem = MemSystem::ddr3(Default::default());
            let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut a);
            let mut rec = ReclamationUnit::new(GcUnitConfig::default(), &b);
            unit.begin(&a, 0);
            let mut sweep_eng = SweepEngine::new(&mut rec, 1, 0);
            let report = {
                let mut mark_eng = MarkEngine::new(&mut unit, 0);
                let mut ctx = SocCtx::new(&mut mem, vec![&mut a, &mut b]);
                let mut engines: [&mut dyn Engine<SocCtx>; 2] = [&mut mark_eng, &mut sweep_eng];
                Scheduler::new(policy)
                    .try_run(&mut engines, &mut ctx, 0)
                    .unwrap()
            };
            let mark = unit.result_at(0, report.ends[0]);
            let sweep = sweep_eng.into_result();
            format!(
                "end={};ends={:?};mark_end={};marked={};{}|sweep_end={};freed={};{}",
                report.end,
                report.ends,
                mark.end,
                mark.objects_marked,
                ledger(&mark.stalls),
                sweep.end,
                sweep.cells_freed,
                ledger(&sweep.stalls)
            )
        });
    }
}

#[test]
fn pacing_differential_randomized_round_robin() {
    // Pin of the round-robin hop-invariance fix: the rotating grant
    // pointer decouples arbitration from absolute time, so an
    // event-driven hop over an idle span must resume the rotation at
    // the identical engine — and charge the identical span — that the
    // cycle-by-cycle crawl sees. Randomized multi-process mark
    // schedules on one shared datapath (the round-robin arbiter),
    // fingerprinted down to every per-process stall ledger.
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("round_robin[seed={seed}]"), || {
            let mut rng = StdRng::seed_from_u64(4000 + seed);
            let nprocs = rng.random_range(2..5usize);
            let mut procs: Vec<_> = (0..nprocs)
                .map(|i| multiproc_context(rng.random_range(300..1200usize), seed * 8 + i as u64))
                .collect();
            let mut mem = MemSystem::ddr3(Default::default());
            let report = try_run_multiprocess_mark(&mut procs, &mut mem, 0).unwrap();
            let per: Vec<String> = report
                .per_process
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    format!(
                        "p{i}:end={};marked={};{}",
                        p.end,
                        p.objects_marked,
                        ledger(&p.stalls)
                    )
                })
                .collect();
            format!("end={};{}", report.end, per.join("|"))
        });
    }
}

#[test]
fn pacing_differential_randomized_faults() {
    // Fault runs must agree on *everything* architected: the outcome
    // class, the trap kind, the faulting-entry register (`trap.va`),
    // the trap cycle, both cycle counters, the final mark set, the
    // injector counters and both stall ledgers.
    for seed in 0..FAULT_COMBOS {
        assert_pacing_equal(format!("fault[seed={seed}]"), || {
            let mut rng = StdRng::seed_from_u64(3000 + seed);
            let spec = DACAPO[rng.random_range(0..DACAPO.len())].scaled(0.02);
            let layout = if rng.random() {
                LayoutKind::Bidirectional
            } else {
                LayoutKind::Conventional
            };
            let fault = FaultConfig {
                seed: rng.next_u64(),
                bit_flip_rate: [0.0, 0.001][rng.random_range(0..2usize)],
                ecc_uncorrectable_weight: 0.2,
                ecc_detect_weight: 0.3,
                drop_rate: [0.0, 0.002][rng.random_range(0..2usize)],
                delay_rate: [0.0, 0.01][rng.random_range(0..2usize)],
                corrupt_ref_rate: [0.0, 0.01][rng.random_range(0..2usize)],
                corrupt_header_rate: [0.0, 0.005][rng.random_range(0..2usize)],
                pte_fault_rate: [0.0, 0.2][rng.random_range(0..2usize)],
                ..FaultConfig::default()
            };
            let run = run_faulted_mark(
                &spec,
                layout,
                GcUnitConfig::default(),
                MemKind::ddr3_default(),
                fault,
            );
            let outcome = match &run.outcome {
                MarkOutcome::Clean => "clean".to_string(),
                MarkOutcome::Fallback(fb) => format!(
                    "trap kind={:?} va={:#x} at={} drained={} cycles={}",
                    fb.trap.kind, fb.trap.va, fb.trap.at, fb.drained, fb.cycles
                ),
                MarkOutcome::Failed(e) => format!("failed {e}"),
            };
            format!(
                "{outcome};unit={};fallback={};marked={};stats={:?};{}|{}",
                run.unit_cycles,
                run.fallback_cycles,
                run.objects_marked,
                run.stats,
                ledger(&run.unit_stalls),
                ledger(&run.fallback_stalls)
            )
        });
    }
}

// ---------------------------------------------------------------------
// Multi-unit wall: several traversal units on one DDR3 under one
// lockstep-policy scheduler, the shape in which fast-forward lets a
// stalled unit sleep until its promised event while another unit
// works. A sleeper must still be stepped when input from another
// engine is waiting: a fault another unit's request latched in the
// shared memory system, or write-barrier references a mutator
// published into its mailbox (`Engine::has_input`).
// ---------------------------------------------------------------------

/// What shares the memory system with the units in a multi-unit run.
#[derive(Clone, Copy, Debug)]
enum MultiUnit {
    /// Nothing: clean units only.
    Clean,
    /// A `FaultSite::Mem` injector (uncorrectable ECC plus dropped
    /// responses) that latches faults, trapping most runs.
    MemFaults,
    /// A mutator scheduled first, publishing into unit 0's mailbox.
    Mutator,
}

/// 2–5 units with random marker slots and mark-queue sizes, each on its
/// own heap, fingerprinted down to the schedule report (or its error),
/// every unit's trap register, objects marked and full ledger, and the
/// memory system's fault counters.
fn multi_unit_fingerprint(seed: u64, variant: MultiUnit) -> String {
    use tracegc::heap::SocCtx;
    use tracegc::hwgc::MutatorEngine;
    use tracegc::sim::{FaultPlan, FaultSite};
    let mut rng = StdRng::seed_from_u64(6000 + seed);
    let n = rng.random_range(2..6usize);
    let mut heaps: Vec<Heap> = (0..n)
        .map(|_| random_mark_heap(&mut rng, LayoutKind::Bidirectional))
        .collect();
    let mut units: Vec<TraversalUnit> = heaps
        .iter_mut()
        .map(|h| {
            let cfg = GcUnitConfig {
                marker_slots: [1, 2, 4, 8, 16][rng.random_range(0..5usize)],
                markq_entries: [8, 16, 64, 1024][rng.random_range(0..4usize)],
                ..GcUnitConfig::default()
            };
            TraversalUnit::new(cfg, h)
        })
        .collect();
    let mut mem = MemSystem::ddr3(Default::default());
    if let MultiUnit::MemFaults = variant {
        let plan = FaultPlan::new(FaultConfig {
            seed: rng.next_u64(),
            bit_flip_rate: 0.002,
            ecc_uncorrectable_weight: 0.5,
            drop_rate: 0.002,
            max_retries: 1,
            ..FaultConfig::default()
        });
        mem.set_fault_injector(plan.injector(FaultSite::Mem));
    }
    let mut mutator = MutatorEngine::new(
        MutatorConfig {
            cycles_per_op: rng.random_range(5..60u64),
            seed: rng.next_u64(),
            ..MutatorConfig::default()
        },
        0,
        heaps[0].reachable_from_roots().into_iter().collect(),
        0,
    );
    for (u, h) in units.iter_mut().zip(&heaps) {
        u.begin(h, 0);
    }
    let result = {
        let mut marks: Vec<MarkEngine> = units
            .iter_mut()
            .enumerate()
            .map(|(i, u)| MarkEngine::new(u, i))
            .collect();
        let mut ctx = SocCtx::new(&mut mem, heaps.iter_mut().collect());
        let mut engines: Vec<&mut dyn Engine<SocCtx>> = Vec::new();
        if let MultiUnit::Mutator = variant {
            engines.push(&mut mutator);
        }
        engines.extend(marks.iter_mut().map(|e| e as &mut dyn Engine<SocCtx>));
        Scheduler::new(Policy::Lockstep).try_run(&mut engines, &mut ctx, 0)
    };
    let mut out = match &result {
        Ok(r) => format!("end={};ends={:?}", r.end, r.ends),
        Err(e) => format!("error {e}"),
    };
    for (i, u) in units.iter().enumerate() {
        let end = result.as_ref().map_or(0, |r| r.ends[i]);
        out.push_str(&format!(
            "|u{i}:trap={:?};marked={};{}",
            u.trap(),
            u.result_at(0, end).objects_marked,
            ledger(u.stalls())
        ));
    }
    out.push_str(&format!(
        "|latched={:?};mem={:?};mutator_ops={}",
        mem.pending_fault(),
        mem.fault_stats(),
        mutator.ops()
    ));
    out
}

#[test]
fn pacing_differential_randomized_multi_unit() {
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("multi_unit[seed={seed}]"), || {
            multi_unit_fingerprint(seed, MultiUnit::Clean)
        });
    }
}

#[test]
fn pacing_differential_randomized_multi_unit_mem_faults() {
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("multi_unit_mem_faults[seed={seed}]"), || {
            multi_unit_fingerprint(seed, MultiUnit::MemFaults)
        });
    }
}

#[test]
fn pacing_differential_randomized_multi_unit_mutator() {
    for seed in 0..COMBOS {
        assert_pacing_equal(format!("multi_unit_mutator[seed={seed}]"), || {
            multi_unit_fingerprint(seed, MultiUnit::Mutator)
        });
    }
}

// ---------------------------------------------------------------------
// Watchdog equivalence: a wedged engine set must trip the no-progress
// watchdog at the identical cycle, with the identical dump (names,
// stall reasons, pending events AND ledgers) under both pacings — the
// fast-forward hop is clamped to the watchdog deadline precisely so
// livelocks stay observable.
// ---------------------------------------------------------------------

/// Always stalled, honestly promising a fixed far-future event, with a
/// scheduler-charged ledger (so the dump exercises span charging).
struct Wedged {
    event: u64,
    stalls: tracegc::sim::StallAccounting,
}

impl Engine<()> for Wedged {
    fn name(&self) -> &'static str {
        "wedged"
    }
    fn step(&mut self, _now: u64, _ctx: &mut ()) -> Progress {
        Progress::Stalled
    }
    fn next_event_at(&self) -> Option<u64> {
        Some(self.event)
    }
    fn stall_reason(&self, _now: u64) -> StallReason {
        StallReason::MemLatency
    }
    fn note_stall(&mut self, _now: u64, reason: StallReason, span: u64) {
        self.stalls.stall(reason, span);
    }
    fn ledger(&self) -> Option<StallAccounting> {
        Some(self.stalls)
    }
}

#[test]
fn watchdog_trips_identically_under_both_pacings() {
    let trip = |pacing: Pacing| {
        let mut e = Wedged {
            event: 1_000_000,
            stalls: StallAccounting::default(),
        };
        let err = Scheduler::new(Policy::Lockstep)
            .pacing(pacing)
            .no_progress_limit(1_000)
            .try_run(&mut [&mut e as &mut dyn Engine<()>], &mut (), 0)
            .expect_err("a wedged engine must deadlock");
        match err {
            SimError::Deadlock { at, dump } => (at, dump),
            other => panic!("expected a deadlock, got {other}"),
        }
    };
    let (ff_at, ff_dump) = trip(Pacing::FastForward);
    let (ls_at, ls_dump) = trip(Pacing::Lockstep);
    assert_eq!(ff_at, ls_at, "watchdog must trip at the identical cycle");
    assert_eq!(
        ff_dump, ls_dump,
        "watchdog dumps (reasons, pending events, ledgers) must match"
    );
    assert!(
        ff_dump.contains("wedged") && ff_dump.contains("mem_latency"),
        "dump must carry the engine name and stall reason: {ff_dump}"
    );
}

#[test]
fn watchdog_hop_landing_exactly_on_the_deadline_trips_identically() {
    // The exact-boundary case of the fast-forward clamp
    // `t.min(last_progress + limit + 1)`: the wedged engine's promised
    // event lands *exactly* on the watchdog deadline, so the hop and
    // the deadline coincide on one cycle. The trip cycle and the whole
    // ledger dump must still be identical under both pacings — and the
    // same holds one past the boundary, where the clamp (not the
    // event) decides the hop.
    const LIMIT: u64 = 1_000;
    let trip = |pacing: Pacing, event: u64| {
        let mut e = Wedged {
            event,
            stalls: StallAccounting::default(),
        };
        let err = Scheduler::new(Policy::Lockstep)
            .pacing(pacing)
            .no_progress_limit(LIMIT)
            .try_run(&mut [&mut e as &mut dyn Engine<()>], &mut (), 0)
            .expect_err("a wedged engine must deadlock");
        match err {
            SimError::Deadlock { at, dump } => (at, dump),
            other => panic!("expected a deadlock, got {other}"),
        }
    };
    // Start 0, no progress ever: the deadline is LIMIT + 1. Probe the
    // event on the deadline and one past it (where the clamp bites).
    for event in [LIMIT + 1, LIMIT + 2] {
        let (ff_at, ff_dump) = trip(Pacing::FastForward, event);
        let (ls_at, ls_dump) = trip(Pacing::Lockstep, event);
        assert_eq!(
            ff_at, ls_at,
            "event={event}: watchdog must trip at the identical cycle"
        );
        assert_eq!(
            ff_dump, ls_dump,
            "event={event}: watchdog dumps (reasons, events, ledgers) must match"
        );
        assert!(
            ff_at <= LIMIT + 1,
            "event={event}: the clamp must not let the hop sail past the \
             deadline (tripped at {ff_at})"
        );
    }
}

#[test]
fn single_process_multiproc_equals_plain_run_mark_exactly() {
    // One process on the shared datapath is served every cycle, so the
    // round-robin scheduler must degenerate to the stop-the-world
    // driver: same end cycle AND the same stall ledger.
    let multi = {
        let mut procs = [multiproc_context(1200, 4)];
        let mut mem = MemSystem::ddr3(Default::default());
        let r = try_run_multiprocess_mark(&mut procs, &mut mem, 0).unwrap();
        r.per_process[0].clone()
    };
    let plain = {
        let mut procs = [multiproc_context(1200, 4)];
        let mut mem = MemSystem::ddr3(Default::default());
        let p = &mut procs[0];
        p.unit.try_run_mark(&mut p.heap, &mut mem, 0).unwrap()
    };
    assert_eq!(multi.end, plain.end, "end cycles must match exactly");
    assert_eq!(multi.objects_marked, plain.objects_marked);
    assert_eq!(multi.refs_enqueued, plain.refs_enqueued);
    assert_eq!(
        ledger(&multi.stalls),
        ledger(&plain.stalls),
        "stall ledgers must match exactly"
    );
}
