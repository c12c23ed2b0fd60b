//! The four benchmark workloads, composed from the crates' public
//! functions so that every call into a layer can carry a span.
//!
//! Each repeat builds its inputs from the seed (set-up), then runs and
//! checks every collection (the timed section). Every modelled cache,
//! TLB and DRAM row buffer starts cold for each collection, as after a
//! context switch into GC. Any failed output check is an `Err`.

use std::time::Instant;

use tracegc::runner::{self, geomean, DualRun, MarkOutcome, MemKind};
use tracegc_cpu::{Cpu, CpuConfig};
use tracegc_heap::verify::{check_free_lists, check_marks_match_reachability};
use tracegc_heap::{Heap, LayoutKind, SocCtx};
use tracegc_hwgc::{GcUnitConfig, MarkEngine, ReclamationUnit, TraversalUnit};
use tracegc_mem::ddr3::Ddr3Config;
use tracegc_mem::MemSystem;
use tracegc_sim::fleet::{run_fleet, FleetConfig, FleetPolicy, TenantProfile};
use tracegc_sim::sched::{Engine, Policy, Scheduler};
use tracegc_sim::{Cycle, FaultConfig, FaultPlan, FaultSite};
use tracegc_workloads::spec::{by_name, BenchSpec, DACAPO};
use tracegc_workloads::stream::objects_for_mb;
use tracegc_workloads::{
    churn, generate_heap, generate_streamed, StreamShape, StreamSpec, StreamedHeap, WorkloadHeap,
};

use crate::spans::Tracer;
use crate::stats::SimStats;

const LAYOUT: LayoutKind = LayoutKind::Bidirectional;

/// The paper's Fig. 15 averages: mark and sweep speed-up of the GC unit
/// over the Rocket core on DDR3.
pub const PAPER_MARK_SPEEDUP: f64 = 4.2;
pub const PAPER_SWEEP_SPEEDUP: f64 = 1.9;

/// One repeat of a workload.
#[derive(Debug)]
pub struct Repeat {
    pub setup: Times,
    /// The timed section.
    pub timed: Times,
    pub stats: SimStats,
    /// Simulated cycles and counts of the repeat's first collection, as
    /// the matching `tracegc::runner` function reports them.
    pub first: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PausePair,
    StreamHeap,
    SharedDdr3,
    FaultFleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PausePair,
        Workload::StreamHeap,
        Workload::SharedDdr3,
        Workload::FaultFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PausePair => "pause-pair",
            Workload::StreamHeap => "stream-heap",
            Workload::SharedDdr3 => "shared-ddr3",
            Workload::FaultFleet => "fault-fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs one repeat at `seed`; `scale` multiplies every input size.
    pub fn run(self, seed: u64, scale: f64, t: &mut Tracer) -> Result<Repeat, String> {
        match self {
            Workload::PausePair => pause_pair(seed, scale, t),
            Workload::StreamHeap => stream_heap(seed, scale, t),
            Workload::SharedDdr3 => shared_ddr3(seed, scale, t),
            Workload::FaultFleet => fault_fleet(seed, scale, t),
        }
    }

    /// The first collection of a repeat, run through the matching
    /// `tracegc::runner` function instead of the benchmark's own
    /// composition. It must agree with [`Repeat::first`] exactly.
    pub fn reference_first(self, seed: u64, scale: f64) -> Vec<u64> {
        let ddr3 = MemKind::ddr3_default();
        match self {
            Workload::PausePair => {
                let spec = pause_specs(seed, scale)[0];
                let p = DualRun::new(&spec, LAYOUT, GcUnitConfig::default()).run_pause(ddr3);
                vec![
                    p.cpu_mark_cycles,
                    p.cpu_sweep_cycles,
                    p.unit_mark_cycles,
                    p.unit_sweep_cycles,
                    p.objects_marked,
                    p.cells_freed,
                ]
            }
            Workload::StreamHeap => {
                let spec = stream_specs(seed, scale)[0];
                let r = runner::run_unit_gc_stream(&spec, LAYOUT, stream_unit_cfg(&spec), ddr3);
                vec![
                    r.report.mark.cycles(),
                    r.report.sweep.cycles(),
                    r.report.mark.objects_marked,
                    r.report.sweep.cells_freed,
                ]
            }
            Workload::SharedDdr3 => {
                let spec = shared_spec(seed, scale, 0);
                let r = runner::run_faulted_mark(
                    &spec,
                    LAYOUT,
                    GcUnitConfig::default(),
                    ddr3,
                    FaultConfig::zero_rates(1),
                );
                vec![r.unit_cycles, r.objects_marked]
            }
            Workload::FaultFleet => {
                let spec = tenant_specs(seed, scale)[0];
                let cfg = stream_unit_cfg(&spec);
                let clean = runner::run_faulted_mark_stream(&spec, LAYOUT, cfg, ddr3, None);
                let budget = clean.total_cycles() * SLO_FACTOR;
                let faulted = runner::run_faulted_mark_stream(
                    &spec,
                    LAYOUT,
                    GcUnitConfig {
                        mark_budget: budget,
                        ..cfg
                    },
                    ddr3,
                    Some(tenant_fault(seed, 0)),
                );
                let kind = match faulted.outcome {
                    MarkOutcome::Clean => 0,
                    MarkOutcome::Fallback(_) => 1,
                    MarkOutcome::Failed(_) => 2,
                };
                vec![
                    clean.total_cycles(),
                    kind,
                    faulted.unit_cycles,
                    faulted.fallback_cycles,
                    faulted.objects_marked,
                ]
            }
        }
    }
}

fn ddr3() -> MemSystem {
    MemSystem::ddr3(Ddr3Config::default())
}

/// CPU time this process has used so far, in seconds: user and system
/// time of all its threads. Unlike wall time, it leaves out the time the
/// host gave to other processes.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host time of one section of a repeat.
#[derive(Debug, Clone, Default)]
pub struct Times {
    pub wall_s: f64,
    /// Process CPU time (see [`process_cpu_s`]) split into laps at the
    /// section's collection boundaries, the same boundaries on every
    /// repeat of a workload and seed.
    pub laps: Vec<f64>,
}

impl Times {
    pub fn cpu_s(&self) -> f64 {
        self.laps.iter().sum()
    }
}

impl std::ops::AddAssign for Times {
    fn add_assign(&mut self, o: Times) {
        self.wall_s += o.wall_s;
        self.laps.extend(o.laps);
    }
}

/// Times the set-up and the timed section of one repeat under the
/// `bench.setup` / `bench.collect` root spans.
struct Clock {
    at: Instant,
    lap_cpu: f64,
    laps: Vec<f64>,
}

impl Clock {
    fn start(t: &mut Tracer, root: &'static str) -> Self {
        t.enter(root);
        Self {
            at: Instant::now(),
            lap_cpu: process_cpu_s(),
            laps: Vec::new(),
        }
    }

    /// Ends a lap at a collection boundary.
    fn lap(&mut self) {
        let now = process_cpu_s();
        self.laps.push(now - self.lap_cpu);
        self.lap_cpu = now;
    }

    /// Ends the section and its last lap.
    fn stop(mut self, t: &mut Tracer) -> Times {
        self.lap();
        let times = Times {
            wall_s: self.at.elapsed().as_secs_f64(),
            laps: self.laps,
        };
        t.exit();
        times
    }
}

// ---------------------------------------------------------------- pause-pair

/// Input size of `pause-pair` relative to the DaCapo specs.
const PAUSE_SCALE: f64 = 0.05;
const PAUSES: usize = 3;
const CHURN: f64 = 0.15;

fn pause_specs(seed: u64, scale: f64) -> Vec<BenchSpec> {
    DACAPO
        .iter()
        .map(|s| BenchSpec {
            seed: s.seed ^ seed,
            ..s.scaled(PAUSE_SCALE * scale)
        })
        .collect()
}

/// Fresh agents for one pause: cold caches, TLBs and DRAM on both sides.
struct PauseAgents {
    cpu_mem: MemSystem,
    cpu: Cpu,
    unit_mem: MemSystem,
    marker: TraversalUnit,
    sweeper: ReclamationUnit,
}

impl PauseAgents {
    fn new(t: &mut Tracer, cpu_heap: &mut Heap, unit_heap: &mut Heap) -> Self {
        let cpu_mem = t.span("mem.new", ddr3);
        let cpu = t.span("cpu.new", || Cpu::new(CpuConfig::default(), cpu_heap));
        let unit_mem = t.span("mem.new", ddr3);
        // The order `GcUnit::new` builds its two halves in.
        let (marker, sweeper) = t.span("hwgc.new", || {
            let cfg = GcUnitConfig::default();
            let marker = TraversalUnit::new(cfg, unit_heap);
            (marker, ReclamationUnit::new(cfg, unit_heap))
        });
        Self {
            cpu_mem,
            cpu,
            unit_mem,
            marker,
            sweeper,
        }
    }
}

fn pause_pair(seed: u64, scale: f64, t: &mut Tracer) -> Result<Repeat, String> {
    let specs = pause_specs(seed, scale);
    let mut st = SimStats::default();

    let clock = Clock::start(t, "bench.setup");
    let mut heaps: Vec<(WorkloadHeap, WorkloadHeap)> = Vec::new();
    for s in &specs {
        let cpu_side = t.span("workloads.generate_heap", || generate_heap(s, LAYOUT));
        let unit_side = t.span("workloads.generate_heap", || generate_heap(s, LAYOUT));
        st.objects_allocated += (cpu_side.objects.len() + unit_side.objects.len()) as u64;
        heaps.push((cpu_side, unit_side));
    }
    let mut prepared: Vec<Option<PauseAgents>> = heaps
        .iter_mut()
        .map(|(c, u)| Some(PauseAgents::new(t, &mut c.heap, &mut u.heap)))
        .collect();
    let setup = clock.stop(t);

    let mut clock = Clock::start(t, "bench.collect");
    let mut first = Vec::new();
    let (mut mark_ratios, mut sweep_ratios) = (Vec::new(), Vec::new());
    for (b, (cw, uw)) in heaps.iter_mut().enumerate() {
        let name = specs[b].name;
        let [mut cpu_mark, mut cpu_sweep, mut unit_mark, mut unit_sweep] = [0u64; 4];
        for p in 0..PAUSES {
            if b + p > 0 {
                clock.lap();
            }
            if p > 0 {
                let (x, y) = t.span("workloads.churn", || (churn(cw, CHURN), churn(uw, CHURN)));
                if x != y {
                    return Err(format!("{name}: churn diverged between the copies"));
                }
                st.objects_allocated += (x + y) as u64;
            }
            t.set_collection((b * PAUSES + p + 1) as u64);
            let mut a = match prepared[b].take() {
                Some(a) => a,
                None => PauseAgents::new(t, &mut cw.heap, &mut uw.heap),
            };
            let cm = t.span("cpu.mark", || a.cpu.run_mark(&mut cw.heap, &mut a.cpu_mem));
            let cs = t.span("cpu.sweep", || {
                a.cpu.run_sweep(&mut cw.heap, &mut a.cpu_mem)
            });
            t.span("heap.oracle", || check_free_lists(&cw.heap))
                .map_err(|e| format!("{name} pause {p}: CPU sweep broke the free lists: {e}"))?;
            let um = t
                .span("hwgc.mark", || {
                    a.marker.try_run_mark(&mut uw.heap, &mut a.unit_mem, 0)
                })
                .map_err(|e| format!("{name} pause {p}: unit mark failed: {e}"))?;
            let us = t.span("hwgc.sweep", || {
                a.sweeper.run_sweep(&mut uw.heap, &mut a.unit_mem, um.end)
            });
            t.span("heap.oracle", || check_free_lists(&uw.heap))
                .map_err(|e| format!("{name} pause {p}: unit sweep broke the free lists: {e}"))?;
            if cm.work_items != um.objects_marked || cs.work_items != us.cells_freed {
                return Err(format!(
                    "{name} pause {p}: CPU marked {} / freed {}, unit marked {} / freed {}",
                    cm.work_items, cs.work_items, um.objects_marked, us.cells_freed
                ));
            }
            st.collections += 2;
            st.add_cpu(&cm, false);
            st.add_cpu(&cs, true);
            st.add_cpu_l1(a.cpu.l1_stats());
            st.add_mark(&um);
            st.add_sweep(&us);
            st.add_mem(&a.cpu_mem, cm.cycles + cs.cycles);
            st.add_mem(&a.unit_mem, um.cycles() + us.cycles());
            st.sim_cycles += cm.cycles + cs.cycles + um.cycles() + us.cycles();
            cpu_mark += cm.cycles;
            cpu_sweep += cs.cycles;
            unit_mark += um.cycles();
            unit_sweep += us.cycles();
            if first.is_empty() {
                first = vec![
                    cm.cycles,
                    cs.cycles,
                    um.cycles(),
                    us.cycles(),
                    um.objects_marked,
                    us.cells_freed,
                ];
            }
        }
        // Fig. 15 averages the cycles over a benchmark's pauses first.
        let n = PAUSES as u64;
        mark_ratios.push((cpu_mark / n) as f64 / (unit_mark / n).max(1) as f64);
        sweep_ratios.push((cpu_sweep / n) as f64 / (unit_sweep / n).max(1) as f64);
    }
    let timed = clock.stop(t);

    st.gauge(
        "mark_err",
        (geomean(&mark_ratios) / PAPER_MARK_SPEEDUP - 1.0).abs(),
    );
    st.gauge(
        "sweep_err",
        (geomean(&sweep_ratios) / PAPER_SWEEP_SPEEDUP - 1.0).abs(),
    );
    Ok(Repeat {
        setup,
        timed,
        stats: st,
        first,
    })
}

// --------------------------------------------------------------- stream-heap

/// Input size of `stream-heap` relative to the `heapscale` rows.
const STREAM_SCALE: f64 = 0.04;

/// `heapscale`'s spanning-forest shape (the paper200 row).
const FOREST: StreamShape = StreamShape::Forest {
    mean_refs: 2.2,
    array_fraction: 0.1,
    popularity_s: 1.1,
    hot_fraction: 0.1,
    garbage_factor: 0.5,
};

/// The paper200, social-graph and server-lru rows of `heapscale`, with
/// its live-set targets and scale exponents.
fn stream_specs(seed: u64, scale: f64) -> Vec<StreamSpec> {
    let f = STREAM_SCALE * scale;
    [
        ("paper200", 200, 1.0, FOREST),
        (
            "social-graph",
            64,
            1.0,
            StreamShape::SocialGraph {
                supernodes: 12,
                supernode_degree: 2048,
            },
        ),
        (
            "server-lru",
            1536,
            1.5,
            StreamShape::LruCache { churn_factor: 2.0 },
        ),
    ]
    .into_iter()
    .map(|(name, mb, expo, shape)| {
        StreamSpec {
            name,
            shape,
            live_objects: objects_for_mb(mb),
            window: 4096,
            hot_set: 56,
            roots: 64,
            seed: 0x9EA5_CA1E ^ seed,
        }
        .scaled(f.powf(expo))
    })
    .collect()
}

/// The unit of `heapscale` and `fleet`: the 256-entry mark-bit cache and
/// a spill region provisioned so no heap can exhaust it.
fn stream_unit_cfg(spec: &StreamSpec) -> GcUnitConfig {
    GcUnitConfig {
        markbit_cache: 256,
        spill_bytes: (spec.live_objects as u64 * 16)
            .next_multiple_of(1 << 20)
            .max(4 << 20),
        ..GcUnitConfig::default()
    }
}

fn stream_heap(seed: u64, scale: f64, t: &mut Tracer) -> Result<Repeat, String> {
    let specs = stream_specs(seed, scale);
    let mut st = SimStats::default();

    let clock = Clock::start(t, "bench.setup");
    let mut runs: Vec<(StreamedHeap, MemSystem, TraversalUnit, ReclamationUnit)> = Vec::new();
    for s in &specs {
        let mut h = t.span("workloads.generate_streamed", || {
            generate_streamed(s, LAYOUT)
        });
        st.objects_allocated += h.stats.allocated;
        let mem = t.span("mem.new", ddr3);
        let cfg = stream_unit_cfg(s);
        let (marker, sweeper) = t.span("hwgc.new", || {
            let marker = TraversalUnit::new(cfg, &mut h.heap);
            (marker, ReclamationUnit::new(cfg, &h.heap))
        });
        runs.push((h, mem, marker, sweeper));
    }
    let setup = clock.stop(t);

    let mut clock = Clock::start(t, "bench.collect");
    let mut first = Vec::new();
    for (i, (h, mem, marker, sweeper)) in runs.iter_mut().enumerate() {
        let name = specs[i].name;
        if i > 0 {
            clock.lap();
        }
        t.set_collection(i as u64 + 1);
        let m = t
            .span("hwgc.mark", || marker.try_run_mark(&mut h.heap, mem, 0))
            .map_err(|e| format!("{name}: unit mark failed: {e}"))?;
        if m.objects_marked != h.live_objects as u64 {
            return Err(format!(
                "{name}: unit marked {} objects, the generator left {} live",
                m.objects_marked, h.live_objects
            ));
        }
        clock.lap();
        let s = t.span("hwgc.sweep", || sweeper.run_sweep(&mut h.heap, mem, m.end));
        st.collections += 1;
        st.add_mark(&m);
        st.add_sweep(&s);
        st.add_mem(mem, m.cycles() + s.cycles());
        st.sim_cycles += m.cycles() + s.cycles();
        st.resident_bytes += h.heap.phys.resident_bytes();
        if first.is_empty() {
            first = vec![m.cycles(), s.cycles(), m.objects_marked, s.cells_freed];
        }
    }
    let timed = clock.stop(t);
    Ok(Repeat {
        setup,
        timed,
        stats: st,
        first,
    })
}

// --------------------------------------------------------------- shared-ddr3

/// Input size of each `shared-ddr3` heap relative to xalan.
const SHARED_SCALE: f64 = 0.035;
/// Units sharing one DDR3 channel, one scheduler run each.
const UNITS: [usize; 4] = [1, 2, 4, 8];

/// Heap `i` of a group: xalan-sized, decorrelated as in `multiunit`.
fn shared_spec(seed: u64, scale: f64, i: usize) -> BenchSpec {
    let mut s = by_name("xalan")
        .expect("xalan is a DaCapo spec")
        .scaled(SHARED_SCALE * scale);
    s.seed ^= (i as u64).wrapping_mul(0x9e37_79b9) ^ seed;
    s
}

fn shared_ddr3(seed: u64, scale: f64, t: &mut Tracer) -> Result<Repeat, String> {
    let mut st = SimStats::default();
    let cfg = GcUnitConfig::default();

    let clock = Clock::start(t, "bench.setup");
    let mut groups: Vec<(Vec<WorkloadHeap>, Vec<TraversalUnit>, MemSystem)> = Vec::new();
    for n in UNITS {
        let mut heaps: Vec<WorkloadHeap> = (0..n)
            .map(|i| {
                let spec = shared_spec(seed, scale, i);
                t.span("workloads.generate_heap", || generate_heap(&spec, LAYOUT))
            })
            .collect();
        st.objects_allocated += heaps.iter().map(|w| w.objects.len() as u64).sum::<u64>();
        let units = heaps
            .iter_mut()
            .map(|w| t.span("hwgc.new", || TraversalUnit::new(cfg, &mut w.heap)))
            .collect();
        let mem = t.span("mem.new", ddr3);
        groups.push((heaps, units, mem));
    }
    let setup = clock.stop(t);

    let mut clock = Clock::start(t, "bench.collect");
    let mut first = Vec::new();
    for (g, (heaps, units, mem)) in groups.iter_mut().enumerate() {
        let n = units.len();
        if g > 0 {
            clock.lap();
        }
        t.set_collection(g as u64 + 1);
        t.span("hwgc.begin", || {
            for (u, w) in units.iter_mut().zip(heaps.iter()) {
                u.begin(&w.heap, 0);
            }
        });
        let report = t
            .span("sim.sched", || {
                let hs: Vec<&mut Heap> = heaps.iter_mut().map(|w| &mut w.heap).collect();
                let mut engines: Vec<MarkEngine> = units
                    .iter_mut()
                    .enumerate()
                    .map(|(i, u)| MarkEngine::new(u, i))
                    .collect();
                let mut ctx = SocCtx::new(mem, hs);
                let mut dyns: Vec<&mut dyn Engine<SocCtx>> = engines
                    .iter_mut()
                    .map(|e| e as &mut dyn Engine<SocCtx>)
                    .collect();
                Scheduler::new(Policy::Lockstep).try_run(&mut dyns, &mut ctx, 0)
            })
            .map_err(|e| format!("{n} units: scheduler failed: {e}"))?;
        clock.lap();
        if let Some(e) = mem.take_fault() {
            return Err(format!("{n} units: memory fault {e}"));
        }
        for (i, (u, w)) in units.iter().zip(heaps.iter()).enumerate() {
            if let Some(trap) = u.trap() {
                return Err(format!("{n} units: unit {i} trapped: {trap:?}"));
            }
            let r = u.result_at(0, report.ends[i]);
            t.span("heap.oracle", || check_marks_match_reachability(&w.heap))
                .map_err(|e| format!("{n} units: unit {i} mark set is not reachability: {e}"))?;
            st.add_mark(&r);
            if first.is_empty() {
                first = vec![r.cycles(), r.objects_marked];
            }
        }
        st.collections += n as u64;
        st.sim_cycles += report.cycles();
        st.sched_cycles += report.cycles();
        st.add_mem(mem, report.cycles());
    }
    let timed = clock.stop(t);
    Ok(Repeat {
        setup,
        timed,
        stats: st,
        first,
    })
}

// --------------------------------------------------------------- fault-fleet

/// Independent fleets, tenants per fleet, and tenant size relative to
/// the `fleet` experiment's tenants at scale 1. One fleet is the
/// experiment at its default scale 0.25; the replay's no-progress
/// watchdog bounds a fleet's offered work, so the workload grows by
/// replaying more fleets instead of larger ones.
const FLEETS: usize = 16;
const TENANTS: usize = 16;
const TENANT_SCALE: f64 = 0.25;
/// Per-request probability of every injected fault class: high enough
/// that nearly every faulted tenant traps early, so the fallback work,
/// and with it the workload's size, hardly varies with the seed.
const FAULT_RATE: f64 = 1e-2;
const FLEET_UNITS: usize = 4;
const FLEET_CHANNELS: usize = 2;
/// The §VII issue throttle of the partitioned policy.
const THROTTLE: u64 = (FLEET_UNITS / FLEET_CHANNELS) as u64;
/// SLO and request-timeout budget, as a multiple of the clean mark.
const SLO_FACTOR: u64 = 4;
const REQUESTS_PER_TENANT: usize = 8;
/// Cycles per replay tick. The replay's no-progress watchdog counts
/// ticks, and at the lowest offered load a fleet with several software
/// fallbacks has arrival gaps beyond 10 M cycles; a coarser clock keeps
/// the same queueing while each service rounds up by under a tick.
const REPLAY_TICK: Cycle = 64;
const LOADS: [f64; 4] = [0.25, 0.6, 1.0, 1.5];
const POLICIES: [FleetPolicy; 3] = [
    FleetPolicy::Fifo,
    FleetPolicy::SmallestFirst,
    FleetPolicy::Partitioned,
];

/// Tenant `i` of every fleet, numbered fleet-major: the `fleet`
/// experiment's tenant population, one fleet after another.
fn tenant_specs(seed: u64, scale: f64) -> Vec<StreamSpec> {
    let shapes: [(&'static str, StreamShape); 5] = [
        ("dacapo-mix", FOREST),
        ("lru-churn", StreamShape::LruCache { churn_factor: 2.0 }),
        (
            "sessions",
            StreamShape::RequestSession {
                session_objects: 24,
                survivor_fraction: 0.12,
            },
        ),
        (
            "social-graph",
            StreamShape::SocialGraph {
                supernodes: 4,
                supernode_degree: 512,
            },
        ),
        (
            "actor-mesh",
            StreamShape::ActorMesh {
                peers: 3,
                mailbox_depth: 4,
                churn_messages: 6.0,
            },
        ),
    ];
    (0..FLEETS * TENANTS)
        .map(|i| {
            let (name, shape) = shapes[i % TENANTS % shapes.len()];
            StreamSpec {
                name,
                shape,
                live_objects: 1200 + (i % TENANTS % 4) * 600,
                window: 512,
                hot_set: 16,
                roots: 32,
                seed: (0xF1EE_0000 + i as u64) ^ seed,
            }
            .scaled(TENANT_SCALE * scale)
        })
        .collect()
}

/// Tenant `i`'s fault stream: every class at [`FAULT_RATE`], with a
/// decorrelated seed as in the `fleet` experiment.
fn tenant_fault(seed: u64, tenant: usize) -> FaultConfig {
    let r = FAULT_RATE;
    FaultConfig {
        seed: (0x5EED ^ seed).wrapping_add((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        bit_flip_rate: r,
        drop_rate: r,
        delay_rate: r,
        corrupt_ref_rate: r,
        corrupt_header_rate: r,
        pte_fault_rate: r,
        ..FaultConfig::default()
    }
}

/// How one tenant mark ended: 0 clean, 1 software fallback, 2 failed.
struct TenantMark {
    kind: u64,
    unit_cycles: Cycle,
    fallback_cycles: Cycle,
    marked: u64,
}

impl TenantMark {
    fn total(&self) -> Cycle {
        self.unit_cycles + self.fallback_cycles
    }
}

/// One mark pass under optional fault injection, degraded to the
/// software collector on a trap; every pass that did not fail is
/// checked against reachability. Mirrors
/// `tracegc::runner::run_faulted_mark_stream`.
fn mark_tenant(
    t: &mut Tracer,
    st: &mut SimStats,
    heap: &mut Heap,
    mem: &mut MemSystem,
    unit: &mut TraversalUnit,
    fault: Option<FaultConfig>,
) -> Result<TenantMark, String> {
    if let Some(f) = fault.filter(|f| f.is_active()) {
        let plan = t.span("sim.fault", || FaultPlan::new(f));
        mem.set_fault_injector(plan.injector(FaultSite::Mem));
        unit.install_fault_plan(&plan);
    }
    st.collections += 1;
    let (kind, unit_cycles, fallback_cycles) =
        match t.span("hwgc.mark", || unit.try_run_mark(heap, mem, 0)) {
            Ok(r) => {
                st.add_mark(&r);
                (0, r.cycles(), 0)
            }
            Err(_) => match unit.trap() {
                Some(trap) => {
                    st.add_mark(&unit.result_at(0, trap.at));
                    let pending = t.span("hwgc.drain", || unit.drain_architected_state(heap));
                    let _ = mem.take_fault();
                    let _ = mem.take_fault_injector();
                    let fb = t.span("cpu.fallback", || {
                        let mut cpu = Cpu::new(CpuConfig::default(), heap);
                        cpu.advance_to(trap.at);
                        cpu.resume_mark_from(heap, mem, &pending)
                    });
                    st.degraded += 1;
                    st.fallback_cycles += fb.cycles;
                    (1, trap.at, fb.cycles)
                }
                None => {
                    st.failed += 1;
                    (2, 0, 0)
                }
            },
        };
    let mut marked = 0;
    if kind != 2 {
        t.span("heap.oracle", || check_marks_match_reachability(heap))
            .map_err(|e| format!("tenant mark does not match reachability: {e}"))?;
        marked = t.span("heap.oracle", || heap.marked_set().len() as u64);
    }
    st.sim_cycles += unit_cycles + fallback_cycles;
    st.add_mem(mem, unit_cycles + fallback_cycles);
    Ok(TenantMark {
        kind,
        unit_cycles,
        fallback_cycles,
        marked,
    })
}

/// One tenant's inputs: three copies of its heap (clean, faulted and
/// throttled marks), their memory systems, and the two units whose
/// configuration does not depend on the clean mark.
struct Tenant {
    heaps: [StreamedHeap; 3],
    mems: [MemSystem; 3],
    clean: TraversalUnit,
    throttled: TraversalUnit,
}

/// Generates a fleet's tenants with their memory systems and units.
fn build_tenants(t: &mut Tracer, st: &mut SimStats, specs: &[StreamSpec]) -> Vec<Tenant> {
    let mut tenants = Vec::with_capacity(specs.len());
    for s in specs {
        let mut heaps = [0, 1, 2].map(|_| {
            t.span("workloads.generate_streamed", || {
                generate_streamed(s, LAYOUT)
            })
        });
        st.objects_allocated += heaps.iter().map(|h| h.stats.allocated).sum::<u64>();
        let mems = [0, 1, 2].map(|_| t.span("mem.new", ddr3));
        let cfg = stream_unit_cfg(s);
        let clean = t.span("hwgc.new", || TraversalUnit::new(cfg, &mut heaps[0].heap));
        let throttled = t.span("hwgc.new", || {
            TraversalUnit::new(
                GcUnitConfig {
                    min_issue_interval: THROTTLE,
                    ..cfg
                },
                &mut heaps[2].heap,
            )
        });
        tenants.push(Tenant {
            heaps,
            mems,
            clean,
            throttled,
        });
    }
    tenants
}

/// What the fleets measured: the first faulted collection (for the
/// composition guard) and the replay outcomes, pooled over fleets,
/// policies and loads.
#[derive(Default)]
struct FleetTotals {
    first: Vec<u64>,
    issued: u64,
    violations: u64,
    rejected: u64,
    utilization: f64,
}

/// Marks every tenant of one fleet clean, faulted and throttled, then
/// replays the fleet over every (policy, offered load) point.
fn serve_fleet(
    t: &mut Tracer,
    st: &mut SimStats,
    seed: u64,
    fleet: usize,
    specs: &[StreamSpec],
    tenants: &mut [Tenant],
    totals: &mut FleetTotals,
) -> Result<(), String> {
    let mut profiles = Vec::with_capacity(specs.len());
    let mut clean_cycles = Vec::with_capacity(specs.len());
    for (i, (s, tn)) in specs.iter().zip(tenants.iter_mut()).enumerate() {
        let id = fleet * TENANTS + i;
        let Tenant {
            heaps: [h0, h1, h2],
            mems: [m0, m1, m2],
            clean,
            throttled,
        } = tn;
        t.set_collection(id as u64 + 1);
        let c = mark_tenant(t, st, &mut h0.heap, m0, clean, None)?;
        if c.kind != 0 {
            return Err(format!(
                "tenant {id}: the fault-free mark did not finish clean"
            ));
        }
        let cfg = GcUnitConfig {
            mark_budget: c.total() * SLO_FACTOR,
            ..stream_unit_cfg(s)
        };
        let mut unit = t.span("hwgc.new", || TraversalUnit::new(cfg, &mut h1.heap));
        let fault = Some(tenant_fault(seed, id));
        let f = mark_tenant(t, st, &mut h1.heap, m1, &mut unit, fault)?;
        let th = mark_tenant(t, st, &mut h2.heap, m2, throttled, None)?;
        if totals.first.is_empty() {
            totals.first = vec![
                c.total(),
                f.kind,
                f.unit_cycles,
                f.fallback_cycles,
                f.marked,
            ];
        }
        let service = if f.kind == 2 { c.total() } else { f.total() };
        profiles.push(TenantProfile {
            shape: s.name,
            live_objects: c.marked,
            service_cycles: service.div_ceil(REPLAY_TICK),
            throttled_cycles: th.total().div_ceil(REPLAY_TICK),
            degraded: f.kind == 1,
        });
        clean_cycles.push(c.total());
    }

    let n = profiles.len();
    let mean_service = profiles
        .iter()
        .map(|p| p.service_cycles as f64)
        .sum::<f64>()
        / n as f64;
    for policy in POLICIES {
        for rho in LOADS {
            let cfg = FleetConfig {
                units: FLEET_UNITS,
                channels: FLEET_CHANNELS,
                policy,
                requests_per_tenant: REQUESTS_PER_TENANT,
                mean_period: ((n as f64 * mean_service) / (rho * FLEET_UNITS as f64)).max(1.0)
                    as Cycle,
                queue_cap: n,
                seed: 0xF1EE_70AD ^ seed,
            };
            let fs = t
                .span("sim.fleet", || run_fleet(&cfg, &profiles))
                .map_err(|e| format!("fleet {fleet} replay failed: {e}"))?;
            totals.issued += (n * REQUESTS_PER_TENANT) as u64;
            totals.rejected += fs.rejected;
            totals.violations += fs.rejected
                + fs.completions
                    .iter()
                    .filter(|c| {
                        c.sojourn() * REPLAY_TICK > clean_cycles[c.tenant].max(1) * SLO_FACTOR
                    })
                    .count() as u64;
            totals.utilization += fs.utilization(FLEET_UNITS);
        }
    }
    Ok(())
}

/// Fleets are set up and served one after another, so the peak host
/// memory is one fleet's; set-up and timed times sum over fleets.
fn fault_fleet(seed: u64, scale: f64, t: &mut Tracer) -> Result<Repeat, String> {
    let specs = tenant_specs(seed, scale);
    let mut st = SimStats::default();
    let (mut setup, mut timed) = (Times::default(), Times::default());
    let mut totals = FleetTotals::default();
    for (fleet, specs) in specs.chunks(TENANTS).enumerate() {
        let clock = Clock::start(t, "bench.setup");
        let mut tenants = build_tenants(t, &mut st, specs);
        setup += clock.stop(t);

        let clock = Clock::start(t, "bench.collect");
        serve_fleet(t, &mut st, seed, fleet, specs, &mut tenants, &mut totals)?;
        timed += clock.stop(t);
    }

    let points = (FLEETS * POLICIES.len() * LOADS.len()) as f64;
    let issued = totals.issued as f64;
    st.gauge("slo_violation_frac", totals.violations as f64 / issued);
    st.gauge("sim.fleet.utilization", totals.utilization / points);
    st.gauge("sim.fleet.rejected_frac", totals.rejected as f64 / issued);
    Ok(Repeat {
        setup,
        timed,
        stats: st,
        first: totals.first,
    })
}
