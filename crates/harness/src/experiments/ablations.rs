//! Ablations for the design choices the paper discusses in prose.
//!
//! * `ablA` — memory scheduling: "our performance was significantly
//!   improved changing from FIFO MAS to FR-FCFS and increasing the
//!   maximum number of outstanding reads from 8 to 16. [The CPU] was
//!   insensitive to the configuration" (§VI-A).
//! * `ablB` — the bidirectional layout vs the conventional TIB layout on
//!   the cacheless unit (§IV-A.I).
//! * `ablC` — the blocking PTW vs the proposed non-blocking walker
//!   (§VI-A future work).
//! * `ablD` — the §IV-D barrier cost model vs a trap-based read barrier.

use tracegc_cpu::{Cpu, CpuConfig, PhaseResult};
use tracegc_heap::{Heap, LayoutKind, ObjRef};
use tracegc_hwgc::barrier::{BarrierCosts, BarrierModel, ForwardingState};
use tracegc_hwgc::{GcUnitConfig, TraversalResult};
use tracegc_mem::ddr3::{Ddr3Config, Scheduler};
use tracegc_vmem::TlbConfig;
use tracegc_workloads::generate::{generate_heap, generate_heap_opts};
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc, MemKind};
use crate::table::{ms, ratio, Table};

/// The software collector's mark of `heap` on a fresh `mem_kind` memory.
fn cpu_mark(heap: &mut Heap, mem_kind: MemKind) -> PhaseResult {
    Cpu::new(CpuConfig::default(), heap).run_mark(heap, &mut mem_kind.fresh())
}

/// One row of the ablC/ablE walker tables: mark time, walks and walker
/// wait of one unit mark.
fn walker_row(name: &str, mark: &TraversalResult) -> Vec<String> {
    vec![
        name.into(),
        ms(mark.cycles()),
        format!("{}", mark.translator.walks),
        format!("{}", mark.translator.walker_wait_cycles / 1000),
    ]
}

/// `ablA`: FR-FCFS vs FIFO, 16 vs 8 outstanding reads.
pub fn run_memsched(opts: &Options) -> ExperimentOutput {
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let variants: [(&str, Ddr3Config); 4] = [
        ("frfcfs-16", Ddr3Config::default()),
        (
            "frfcfs-8",
            Ddr3Config {
                max_reads: 8,
                ..Ddr3Config::default()
            },
        ),
        (
            "fifo-16",
            Ddr3Config {
                scheduler: Scheduler::Fifo,
                row_window: 1,
                ..Ddr3Config::default()
            },
        ),
        ("fifo-8", Ddr3Config::fifo_8_reads()),
    ];
    let mut table = Table::new(
        "ablA: memory scheduler sensitivity (avrora mark phase)",
        &["config", "unit-mark-ms", "cpu-mark-ms"],
    );
    let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let mut metrics = MetricsDoc::new("ablA");
    for (name, cfg) in variants {
        let mem = MemKind::Ddr3(cfg);
        let unit = run_unit_gc(&mut heap.clone(), GcUnitConfig::default(), mem, opts.fault);
        let cpu = cpu_mark(&mut heap.clone(), mem);
        let mark = &unit.report.mark;
        table.row(vec![name.into(), ms(mark.cycles()), ms(cpu.cycles)]);
        metrics.phase(&format!("{name}.unit_mark"), mark.cycles(), 1, mark.stalls);
        metrics.phase(&format!("{name}.cpu_mark"), cpu.cycles, 1, cpu.stalls);
        super::note_unit_faults(&mut metrics, &unit);
    }
    ExperimentOutput {
        title: "Ablation A: memory access scheduler",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: the unit improved significantly moving FIFO->FR-FCFS and 8->16 \
             outstanding reads, while Rocket was insensitive."
                .into(),
        ],
    }
}

/// `ablB`: bidirectional vs conventional layout.
pub fn run_layout(opts: &Options) -> ExperimentOutput {
    let spec = by_name("pmd").expect("pmd exists").scaled(opts.scale);
    let mut table = Table::new(
        "ablB: object layout on the cacheless unit (pmd mark phase)",
        &["layout", "unit-mark-ms", "unit-mem-reqs", "cpu-mark-ms"],
    );
    let mut unit_times = Vec::new();
    let mut metrics = MetricsDoc::new("ablB");
    for (name, layout) in [
        ("bidirectional", LayoutKind::Bidirectional),
        ("conventional-tib", LayoutKind::Conventional),
    ] {
        let mut heap = generate_heap(&spec, layout).heap;
        let mem = MemKind::ddr3_default();
        let unit = run_unit_gc(&mut heap.clone(), GcUnitConfig::default(), mem, opts.fault);
        let cpu = cpu_mark(&mut heap, mem);
        let mark = &unit.report.mark;
        unit_times.push(mark.cycles());
        metrics.phase(&format!("{name}.unit_mark"), mark.cycles(), 1, mark.stalls);
        metrics.phase(&format!("{name}.cpu_mark"), cpu.cycles, 1, cpu.stalls);
        super::note_unit_faults(&mut metrics, &unit);
        table.row(vec![
            name.into(),
            ms(mark.cycles()),
            format!("{}", unit.snapshot.total_requests),
            ms(cpu.cycles),
        ]);
    }
    let slowdown = unit_times[1] as f64 / unit_times[0] as f64;
    metrics.gauge("conventional_slowdown", slowdown);
    ExperimentOutput {
        title: "Ablation B: bidirectional object layout",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![format!(
            "Conventional TIB layout costs the cacheless unit {slowdown:.2}x on mark \
             (paper §IV-A: two extra memory accesses per object, scattered field \
             reads instead of a unit-stride copy)."
        )],
    }
}

/// `ablC`: the blocking TLB/PTW of the prototype vs the proposed
/// non-blocking walker (hit-under-miss + concurrent walks).
pub fn run_tlb(opts: &Options) -> ExperimentOutput {
    // TLB pressure needs a large heap, as in fig18/ablE.
    let spec = by_name("xalan")
        .expect("xalan exists")
        .scaled(opts.scale.max(0.5));
    let mut table = Table::new(
        "ablC: TLB/PTW blocking behaviour (xalan mark phase, 8 GB/s pipe)",
        &["walker", "unit-mark-ms", "walks", "walker-wait-kcycles"],
    );
    let mut times = Vec::new();
    let variants: [(&str, bool, usize); 3] = [
        ("blocking (paper prototype)", true, 1),
        ("hit-under-miss, 1 walk", false, 1),
        ("hit-under-miss, 4 walks", false, 4),
    ];
    let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let mut metrics = MetricsDoc::new("ablC");
    for (name, blocking, walks) in variants {
        let cfg = GcUnitConfig {
            tlb: TlbConfig {
                blocking_requesters: blocking,
                concurrent_walks: walks,
                ..TlbConfig::default()
            },
            ..GcUnitConfig::default()
        };
        let unit = run_unit_gc(&mut heap.clone(), cfg, MemKind::pipe_8gbps(), opts.fault);
        let mark = &unit.report.mark;
        times.push(mark.cycles());
        metrics.phase(&format!("{name}.unit_mark"), mark.cycles(), 1, mark.stalls);
        super::note_unit_faults(&mut metrics, &unit);
        table.row(walker_row(name, mark));
    }
    ExperimentOutput {
        title: "Ablation C: non-blocking TLB/PTW (paper's future work)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![format!(
            "The non-blocking walker recovers {} on the mark phase — paper SVI-A \
             identifies the blocking TLB/PTW as the main gap between the DDR3 \
             speedup and the 9x bandwidth-bound ceiling.",
            ratio(times[0] as f64 / times[2].max(1) as f64)
        )],
    }
}

/// `ablD`: the coherence-based barriers of §IV-D vs trap-based barriers.
pub fn run_barriers(opts: &Options) -> ExperimentOutput {
    let spec = by_name("lusearch")
        .expect("lusearch exists")
        .scaled(opts.scale);
    let workload = generate_heap(&spec, LayoutKind::Bidirectional);
    let live: Vec<ObjRef> = workload.heap.reachable_from_roots().into_iter().collect();

    // A mutator trace: every live object's references are read once
    // while 5% of pages relocate.
    let mut fwd = ForwardingState::new();
    let pages: std::collections::BTreeSet<u64> = live
        .iter()
        .map(|o| o.addr() / tracegc_vmem::PAGE_SIZE)
        .collect();
    for (i, page) in pages.iter().enumerate() {
        if i % 20 == 0 {
            fwd.relocate_page(page * tracegc_vmem::PAGE_SIZE, &[]);
        }
    }
    let mut model = BarrierModel::new(BarrierCosts::default());
    let mut reads = 0u64;
    for &obj in &live {
        for r in workload.heap.refs_of(obj) {
            model.read_barrier(&mut fwd, r);
            reads += 1;
        }
    }
    let stats = model.stats();
    let mut table = Table::new(
        "ablD: read-barrier cost (lusearch mutator trace, 5% of pages relocating)",
        &["scheme", "total-kcycles", "per-read-cycles"],
    );
    table.row(vec![
        "coherence (Fig 9)".into(),
        format!("{}", stats.cycles / 1000),
        format!("{:.2}", stats.cycles as f64 / reads.max(1) as f64),
    ]);
    let trap = model.trap_equivalent_cycles();
    table.row(vec![
        "trap-based".into(),
        format!("{}", trap / 1000),
        format!("{:.2}", trap as f64 / reads.max(1) as f64),
    ]);
    let mut metrics = MetricsDoc::new("ablD");
    metrics.counter("reference_reads", reads);
    metrics.counter("coherence_cycles", stats.cycles);
    metrics.counter("trap_cycles", trap);
    metrics.gauge(
        "coherence_per_read",
        stats.cycles as f64 / reads.max(1) as f64,
    );
    metrics.gauge("trap_per_read", trap as f64 / reads.max(1) as f64);
    ExperimentOutput {
        title: "Ablation D: concurrent-GC barrier cost",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            format!(
                "{} fast-path reads, {} line acquires, {} acquired-line hits over \
                 {} reference reads.",
                stats.read_fast, stats.read_slow_acquire, stats.read_slow_hit, reads
            ),
            "Paper §IV-D: the coherence trick eliminates traps and pipeline flushes \
             on both fast and slow paths."
                .into(),
        ],
    }
}

/// `ablE`: 4 KiB pages vs 2 MiB superpages (§VII "Heap Size
/// Scalability": "large heaps could use superpages instead of 4KB
/// pages").
pub fn run_superpages(opts: &Options) -> ExperimentOutput {
    // TLB pressure needs a large heap, as in fig18.
    let spec = by_name("xalan")
        .expect("xalan exists")
        .scaled(opts.scale.max(0.5));
    let mut table = Table::new(
        "ablE: page size vs traversal-unit TLB pressure (xalan mark phase)",
        &["pages", "unit-mark-ms", "walks", "walker-wait-kcycles"],
    );
    let mut times = Vec::new();
    let mut metrics = MetricsDoc::new("ablE");
    for (name, superpages) in [("4KiB", false), ("2MiB-superpages", true)] {
        let run = run_unit_gc(
            &mut generate_heap_opts(&spec, LayoutKind::Bidirectional, superpages).heap,
            GcUnitConfig::default(),
            MemKind::ddr3_default(),
            opts.fault,
        );
        let mark = &run.report.mark;
        times.push(mark.cycles());
        metrics.phase(
            &format!("xalan.{name}.unit_mark"),
            mark.cycles(),
            1,
            mark.stalls,
        );
        super::note_unit_faults(&mut metrics, &run);
        table.row(walker_row(name, mark));
    }
    ExperimentOutput {
        title: "Ablation E: superpages (paper SVII)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![format!(
            "Superpages speed the mark phase by {} by collapsing TLB misses \
             (each 2 MiB entry covers 512 pages of reach).",
            ratio(times[0] as f64 / times[1].max(1) as f64)
        )],
    }
}

/// `ablF`: bandwidth throttling under background mutator traffic (§VII
/// "Bandwidth Throttling").
pub fn run_throttle(opts: &Options) -> ExperimentOutput {
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let mut table = Table::new(
        "ablF: unit throttling vs mutator memory interference (avrora mark)",
        &[
            "min-issue-interval",
            "unit-mark-ms",
            "mutator-mean-latency",
            "mutator-p-high-latency",
        ],
    );
    let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let mut metrics = MetricsDoc::new("ablF");
    for interval in [0u64, 4, 16] {
        let heap = &mut heap.clone();
        let cfg = GcUnitConfig {
            min_issue_interval: interval,
            ..GcUnitConfig::default()
        };
        let mut unit = tracegc_hwgc::TraversalUnit::new(cfg, heap);
        // One background 64-byte read every 40 cycles ~ a busy mutator.
        unit.set_background_traffic(40);
        let result = unit
            .try_run_mark(heap, &mut MemKind::ddr3_default().fresh(), 0)
            .expect("ablations: TraversalUnit::try_run_mark faulted on a clean heap");
        let lats = unit.background_latencies();
        let mean = lats.iter().sum::<u64>() as f64 / lats.len().max(1) as f64;
        let mut sorted: Vec<u64> = lats.to_vec();
        sorted.sort_unstable();
        let p95 = sorted
            .get(sorted.len().saturating_sub(1).min(sorted.len() * 95 / 100))
            .copied()
            .unwrap_or(0);
        table.row(vec![
            if interval == 0 {
                "unthrottled".into()
            } else {
                format!("{interval}")
            },
            ms(result.cycles()),
            format!("{mean:.1}"),
            format!("{p95}"),
        ]);
        metrics.phase(
            &format!("throttle{interval}.unit_mark"),
            result.cycles(),
            1,
            result.stalls,
        );
    }
    ExperimentOutput {
        title: "Ablation F: bandwidth throttling (paper SVII)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper SVII: the unit maximizes bandwidth and may interfere with the \
             application; throttling to residual bandwidth trades GC time for \
             mutator memory latency."
                .into(),
        ],
    }
}

/// `ablG`: in-order Rocket vs an out-of-order (BOOM-like) baseline.
/// §VI-A: "a preliminary analysis ... showed that it outperformed Rocket
/// by only around 12% on average".
pub fn run_ooo(opts: &Options) -> ExperimentOutput {
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let mut table = Table::new(
        "ablG: CPU baseline out-of-order window (avrora mark phase)",
        &["ooo-window", "cpu-mark-ms", "speedup-vs-inorder"],
    );
    let heap = generate_heap(&spec, LayoutKind::Bidirectional).heap;
    let mut metrics = MetricsDoc::new("ablG");
    // The in-order window's mark time, the speedup column's base.
    let mut base = None;
    for window in [1usize, 2, 4, 8] {
        let heap = &mut heap.clone();
        let cfg = CpuConfig {
            ooo_window: window,
            ..CpuConfig::default()
        };
        let mark = Cpu::new(cfg, heap).run_mark(heap, &mut MemKind::ddr3_default().fresh());
        let base = *base.get_or_insert(mark.cycles);
        metrics.phase(
            &format!("ooo{window}.cpu_mark"),
            mark.cycles,
            1,
            mark.stalls,
        );
        table.row(vec![
            format!("{window}"),
            ms(mark.cycles),
            ratio(base as f64 / mark.cycles.max(1) as f64),
        ]);
    }
    ExperimentOutput {
        title: "Ablation G: out-of-order CPU baseline (paper SVI-A)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper: BOOM outperformed Rocket by only ~12% on GC — confirmed by \
             limited benefits of OoO for graph traversal [3]; the window mostly \
             hides reference-copy latency, not the serializing mark check."
                .into(),
        ],
    }
}

/// `ablH`: read-barrier implementation schemes (§III taxonomy + the
/// §IV-E REFLOAD instruction).
pub fn run_refload(opts: &Options) -> ExperimentOutput {
    use tracegc_cpu::refload::{barrier_overheads, RefloadCosts};
    let _ = opts;
    let costs = RefloadCosts::default();
    // A mutator executing 1M reference loads over 10M cycles (a
    // pointer-heavy managed workload).
    let ref_loads = 1_000_000u64;
    let baseline = 10_000_000u64;
    let mut table = Table::new(
        "ablH: read-barrier scheme overhead vs relocation churn",
        &["churn", "compiled-check", "vm-trap", "refload (SIV-E)"],
    );
    let mut metrics = MetricsDoc::new("ablH");
    for churn in [0.0, 0.001, 0.01, 0.05, 0.2] {
        let o = barrier_overheads(&costs, ref_loads, churn, baseline);
        if churn == 0.05 {
            metrics.gauge("compiled_check_overhead_at_5pct", o[0].relative);
            metrics.gauge("vm_trap_overhead_at_5pct", o[1].relative);
            metrics.gauge("refload_overhead_at_5pct", o[2].relative);
        }
        table.row(vec![
            format!("{:.1}%", churn * 100.0),
            format!("{:.1}%", o[0].relative * 100.0),
            format!("{:.1}%", o[1].relative * 100.0),
            format!("{:.1}%", o[2].relative * 100.0),
        ]);
    }
    ExperimentOutput {
        title: "Ablation H: REFLOAD barrier instruction (paper SIV-E)",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Paper SIV-E: VM-trap barriers are free until relocation churn creates \
             trap storms; the fused REFLOAD turns the slow path into a speculable \
             long load, eliminating pipeline flushes at every churn level."
                .into(),
        ],
    }
}
