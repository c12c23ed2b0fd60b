//! `fleet`: multi-tenant GC serving at fleet scale (ROADMAP item 4).
//!
//! Not a paper figure — the production version of §VII's multi-process
//! story. N tenant heaps (streamed shapes: forest, lru-churn, sessions,
//! social-graph, actor-mesh) issue GC requests through a seeded
//! open-loop arrival process into a bounded admission queue served by K
//! traversal units over shared DDR3 channels.
//!
//! Two phases:
//!
//! 1. **Measure**: each tenant's mark is run cycle-exactly three
//!    times — clean at full bandwidth (the SLO baseline), with the
//!    per-tenant seeded fault injection plus a request timeout
//!    (`mark_budget` = 4× the clean service, tripping
//!    [`TrapKind::RequestTimeout`] through the trap/fallback path), and
//!    under the §VII issue throttle (the bandwidth-partitioning
//!    policy's service time). Every degraded tenant is differentially
//!    checked against the reachability oracle inside
//!    `run_faulted_mark_stream`.
//! 2. **Replay** ([`tracegc_sim::fleet`]): the measured service times
//!    drive a deterministic queueing simulation per (policy, offered
//!    load) grid point, sweeping load past saturation.
//!
//! Everything is byte-identical across `--jobs` and both pacings;
//! `tests/fleet_determinism.rs` pins the pacing cross.
//!
//! [`TrapKind::RequestTimeout`]: tracegc_hwgc::TrapKind::RequestTimeout

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_sim::fleet::{run_fleet, FleetConfig, FleetPolicy, FleetStats, TenantProfile};
use tracegc_sim::{Cycle, FaultConfig, StallAccounting};
use tracegc_workloads::{StreamShape, StreamSpec};

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_faulted_mark_stream, FaultedMarkRun, MarkOutcome, MemKind};
use crate::table::Table;

/// Traversal units serving the fleet queue.
const UNITS: usize = 4;
/// Shared DDR3 channels the units are spread over.
const CHANNELS: usize = 2;
/// §VII issue-throttle period for the partitioned policy: with
/// `UNITS / CHANNELS` units per channel, each unit issues at most every
/// that many cycles, leaving the channel's residual bandwidth free.
const THROTTLE: u64 = (UNITS / CHANNELS) as u64;
/// Offered loads swept (aggregate arrival rate / aggregate service
/// rate); past 1.0 the queue saturates and admission control engages.
pub const LOADS: [f64; 4] = [0.25, 0.6, 1.0, 1.5];
/// The admission/scheduling policies compared at every load.
pub const POLICIES: [FleetPolicy; 3] = [
    FleetPolicy::Fifo,
    FleetPolicy::SmallestFirst,
    FleetPolicy::Partitioned,
];
/// A tenant's mark-latency SLO (and its request-timeout budget): this
/// multiple of its own clean full-bandwidth service time.
const SLO_FACTOR: u64 = 4;

/// The tenant population: shapes cycle through every streamed
/// generator, live-set targets vary so smallest-heap-first has real
/// choices to make.
fn tenant_specs(opts: &Options) -> Vec<StreamSpec> {
    let shapes: [(&'static str, StreamShape); 5] = [
        (
            "dacapo-mix",
            StreamShape::Forest {
                mean_refs: 2.2,
                array_fraction: 0.1,
                popularity_s: 1.1,
                hot_fraction: 0.1,
                garbage_factor: 0.5,
            },
        ),
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
    let n_tenants = ((64.0 * opts.scale) as usize).max(8);
    (0..n_tenants)
        .map(|i| {
            let (name, shape) = shapes[i % shapes.len()];
            StreamSpec {
                name,
                shape,
                live_objects: 1200 + (i % 4) * 600,
                window: 512,
                hot_set: 16,
                roots: 32,
                seed: 0xF1EE_0000 + i as u64,
            }
            .scaled(opts.scale)
        })
        .collect()
}

/// The unit configuration for a tenant's measured marks: the paper
/// baseline plus a mark-bit cache and a spill region provisioned so
/// only *injected* faults (never sizing) can trap.
fn unit_cfg(live_objects: usize) -> GcUnitConfig {
    GcUnitConfig {
        markbit_cache: 256,
        spill_bytes: (live_objects as u64 * 16)
            .next_multiple_of(1 << 20)
            .max(4 << 20),
        ..GcUnitConfig::default()
    }
}

/// Derives tenant `i`'s fault stream from the sweep-wide config: same
/// rates, decorrelated seed. `None`/inactive stays inactive, keeping
/// the whole experiment byte-identical to a fault-free run.
fn tenant_fault(base: Option<FaultConfig>, tenant: usize) -> Option<FaultConfig> {
    base.map(|f| FaultConfig {
        seed: f
            .seed
            .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..f
    })
}

/// One tenant's three measured marks.
struct TenantMeasure {
    clean: FaultedMarkRun,
    faulted: FaultedMarkRun,
    throttled: FaultedMarkRun,
}

fn measure_tenant(spec: &StreamSpec, fault: Option<FaultConfig>) -> TenantMeasure {
    let cfg = unit_cfg(spec.live_objects);
    let layout = LayoutKind::Bidirectional;
    let mem = MemKind::ddr3_default();
    let clean = run_faulted_mark_stream(spec, layout, cfg, mem, None);
    let budget = clean.total_cycles() * SLO_FACTOR;
    let faulted = run_faulted_mark_stream(
        spec,
        layout,
        GcUnitConfig {
            mark_budget: budget,
            ..cfg
        },
        mem,
        fault,
    );
    let throttled = run_faulted_mark_stream(
        spec,
        layout,
        GcUnitConfig {
            min_issue_interval: THROTTLE,
            ..cfg
        },
        mem,
        None,
    );
    TenantMeasure {
        clean,
        faulted,
        throttled,
    }
}

/// Percentile over queueing observations (nearest-rank on the sorted
/// sample; 0 for an empty set).
fn percentile(sorted: &[Cycle], p: f64) -> Cycle {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

/// Offered-load sweep over admission policies on measured tenants.
pub fn run(opts: &Options) -> ExperimentOutput {
    let specs = tenant_specs(opts);
    let n_tenants = specs.len();
    let requests_per_tenant = opts.pauses.max(1);

    // Phase 1: measure every tenant.
    let measured: Vec<_> = (0..n_tenants)
        .map(|i| measure_tenant(&specs[i], tenant_fault(opts.fault, i)))
        .collect();

    let mut tenant_table = Table::new(
        "fleet tenants: measured per-tenant mark service",
        &[
            "tenant",
            "shape",
            "live-objects",
            "clean-cycles",
            "throttled-cycles",
            "slo-budget",
            "outcome",
        ],
    );
    let mut metrics = MetricsDoc::new("fleet");
    let (mut degraded, mut failed) = (0u64, 0u64);
    let mut profiles = Vec::with_capacity(n_tenants);
    let (mut unit_stalls, mut fb_stalls) = (StallAccounting::default(), StallAccounting::default());
    for (i, (spec, m)) in specs.iter().zip(&measured).enumerate() {
        let outcome = match &m.faulted.outcome {
            MarkOutcome::Clean => "clean".to_string(),
            MarkOutcome::Fallback(fb) => {
                degraded += 1;
                format!("fallback:{:?}", fb.trap.kind)
            }
            MarkOutcome::Failed(e) => {
                failed += 1;
                format!("failed:{e}")
            }
        };
        // The replayed service: what the tenant's mark actually cost,
        // fallback included when it degraded. A (never-observed)
        // failed measurement falls back to the clean timing so the
        // replay still covers the tenant.
        let service = match &m.faulted.outcome {
            MarkOutcome::Failed(_) => m.clean.total_cycles(),
            _ => m.faulted.total_cycles(),
        };
        profiles.push(TenantProfile {
            shape: spec.name,
            live_objects: m.clean.objects_marked,
            service_cycles: service,
            throttled_cycles: m.throttled.total_cycles(),
            degraded: matches!(m.faulted.outcome, MarkOutcome::Fallback(_)),
        });
        tenant_table.row(vec![
            format!("{i}"),
            spec.name.into(),
            format!("{}", m.clean.objects_marked),
            format!("{}", m.clean.total_cycles()),
            format!("{}", m.throttled.total_cycles()),
            format!("{}", m.clean.total_cycles() * SLO_FACTOR),
            outcome,
        ]);
        for r in [&m.clean, &m.faulted, &m.throttled] {
            metrics.note_faults(&r.stats);
            unit_stalls.merge(&r.unit_stalls);
            fb_stalls.merge(&r.fallback_stalls);
        }
    }
    metrics.phase("tenant_mark", unit_stalls.total(), 1, unit_stalls);
    if fb_stalls.total() > 0 {
        metrics.phase("sw_fallback", fb_stalls.total(), 1, fb_stalls);
    }

    // Phase 2: replay the measured fleet over the (policy, load) grid.
    // The per-tenant arrival period is set so the aggregate offered
    // load (arrival rate x mean service / units) hits each target rho;
    // the same seed per load keeps arrivals identical across policies.
    let mean_service = profiles
        .iter()
        .map(|p| p.service_cycles as f64)
        .sum::<f64>()
        / n_tenants.max(1) as f64;
    let grid: Vec<(FleetPolicy, f64)> = POLICIES
        .iter()
        .flat_map(|&p| LOADS.map(move |rho| (p, rho)))
        .collect();
    let sweeps: Vec<FleetStats> = grid
        .iter()
        .copied()
        .map(|(policy, rho)| {
            let cfg = FleetConfig {
                units: UNITS,
                channels: CHANNELS,
                policy,
                requests_per_tenant,
                mean_period: ((n_tenants as f64 * mean_service) / (rho * UNITS as f64)).max(1.0)
                    as Cycle,
                queue_cap: n_tenants,
                seed: 0xF1EE_70AD,
            };
            run_fleet(&cfg, &profiles).expect("fleet replay cannot deadlock")
        })
        .collect();

    let mut sweep_table = Table::new(
        "fleet sweep: policy x offered load (queueing delay and sojourn in cycles)",
        &[
            "policy",
            "load",
            "requests",
            "completed",
            "rejected",
            "util",
            "qdelay-p50",
            "qdelay-p99",
            "sojourn-p50",
            "sojourn-p99",
            "sojourn-max",
            "slo-viol-%",
            "degraded-%",
            "failed-%",
        ],
    );
    let total_requests = (n_tenants * requests_per_tenant) as u64;
    let tenant_pct =
        |n: u64| -> String { format!("{:.1}%", 100.0 * n as f64 / n_tenants.max(1) as f64) };
    let (mut completed_total, mut rejected_total) = (0u64, 0u64);
    for ((policy, rho), stats) in grid.iter().zip(&sweeps) {
        let mut qdelay: Vec<Cycle> = stats.completions.iter().map(|c| c.queue_delay()).collect();
        let mut sojourn: Vec<Cycle> = stats.completions.iter().map(|c| c.sojourn()).collect();
        qdelay.sort_unstable();
        sojourn.sort_unstable();
        let violations = stats
            .completions
            .iter()
            .filter(|c| c.sojourn() > profiles[c.tenant].service_cycles.max(1) * SLO_FACTOR)
            .count();
        let util = stats.utilization(UNITS);
        sweep_table.row(vec![
            policy.name().into(),
            format!("{rho:.2}"),
            format!("{total_requests}"),
            format!("{}", stats.completions.len()),
            format!("{}", stats.rejected),
            format!("{util:.3}"),
            format!("{}", percentile(&qdelay, 50.0)),
            format!("{}", percentile(&qdelay, 99.0)),
            format!("{}", percentile(&sojourn, 50.0)),
            format!("{}", percentile(&sojourn, 99.0)),
            sojourn.last().map_or("0".into(), |m| format!("{m}")),
            format!(
                "{:.1}%",
                100.0 * violations as f64 / stats.completions.len().max(1) as f64
            ),
            tenant_pct(degraded),
            tenant_pct(failed),
        ]);
        let key = format!("{}_rho{}", policy.name(), (rho * 100.0) as u64);
        metrics.gauge(&format!("{key}.utilization"), util);
        metrics.gauge(
            &format!("{key}.qdelay_p99"),
            percentile(&qdelay, 99.0) as f64,
        );
        metrics.gauge(
            &format!("{key}.slo_violation_rate"),
            violations as f64 / stats.completions.len().max(1) as f64,
        );
        completed_total += stats.completions.len() as u64;
        rejected_total += stats.rejected;
    }
    metrics.gauge(
        "degraded_tenant_fraction",
        degraded as f64 / n_tenants.max(1) as f64,
    );
    metrics.gauge(
        "failed_tenant_fraction",
        failed as f64 / n_tenants.max(1) as f64,
    );
    metrics.counter("tenants", n_tenants as u64);
    metrics.counter("grid_points", grid.len() as u64);
    metrics.counter("requests_completed", completed_total);
    metrics.counter("requests_rejected", rejected_total);
    // Run-outcome counters drive the CLI exit code: one tick per
    // degraded/failed *tenant* (only nonzero values are emitted, so a
    // clean fleet keeps an empty faults section).
    for (name, v) in [("fallback_runs", degraded), ("failed_runs", failed)] {
        if v > 0 {
            metrics.fault(name, v);
        }
    }

    ExperimentOutput {
        id: "fleet",
        title: "Fleet: multi-tenant GC serving with SLOs and admission control",
        tables: vec![tenant_table, sweep_table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            format!(
                "{n_tenants} tenants x {requests_per_tenant} requests on {UNITS} units / \
                 {CHANNELS} DDR3 channels; {degraded} tenant(s) degraded to the software \
                 fallback, {failed} failed.",
            ),
            "Service times are measured cycle-exact per tenant (fallback included when \
             degraded) and replayed through the deterministic queueing layer; every \
             degraded tenant's mark was differentially checked against reachability."
                .into(),
            format!(
                "SLO and request-timeout budget are {SLO_FACTOR}x each tenant's clean \
                 full-bandwidth mark; 'partitioned' replays the section-VII throttled \
                 service (period {THROTTLE}) with no cross-tenant contention factor."
            ),
        ],
    }
}
