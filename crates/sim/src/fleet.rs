//! Fleet-scale GC request queueing: N tenant heaps sharing K traversal
//! units (ROADMAP item 4, the production version of §VII's
//! multi-process story).
//!
//! The paper shows one traversal unit serving multiple processes over
//! shared DDR3; a deployment runs the other direction — hundreds of
//! tenant heaps queueing on a few units. This module models that layer
//! *as scheduled engines* on the same clock discipline as the SoC
//! models: an arrival engine replays a seeded open-loop arrival
//! process (per-tenant exponential interarrivals) into a bounded
//! admission queue, and one server engine per traversal unit drains
//! it under a pluggable [`FleetPolicy`].
//!
//! Service times are **trace-driven**: each tenant's mark was measured
//! cycle-exactly beforehand (clean, faulted and §VII-throttled variants
//! — see the harness's `run_faulted_mark_stream`), and the queueing
//! layer replays those measured [`TenantProfile`]s. Cross-tenant DDR3
//! contention is applied at dispatch: a unit dispatching onto a channel
//! with `b` busy units serves at `b + 1` × the tenant's solo service
//! time ([`FleetPolicy::Partitioned`] instead replays the throttled
//! measurement with no contention factor — bandwidth partitioning buys
//! isolation at the cost of a slower solo mark).
//!
//! Everything is deterministic: arrivals are a pure function of the
//! seed, dispatch order is registration order under both pacings
//! (the arrival engine is registered first so same-cycle arrivals are
//! visible to every server), and the engines uphold the
//! `next_event_at` contract, so lockstep and fast-forward produce
//! byte-identical results.

use std::collections::VecDeque;

use crate::rng::{Rng, StdRng};
use crate::sched::{Engine, Policy, Progress, Scheduler};
use crate::{Cycle, SimError, StallReason};

/// How the fleet admits and orders queued GC requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// First come, first served; contended service on shared channels.
    Fifo,
    /// Smallest live set first (shortest-job-first against the measured
    /// heap size); contended service on shared channels.
    SmallestFirst,
    /// FIFO order, but every unit runs under the §VII issue throttle:
    /// slower solo service, no cross-tenant contention factor.
    Partitioned,
}

impl FleetPolicy {
    /// Stable lower-snake name (CSV rows, metrics keys).
    pub fn name(self) -> &'static str {
        match self {
            FleetPolicy::Fifo => "fifo",
            FleetPolicy::SmallestFirst => "smallest_first",
            FleetPolicy::Partitioned => "partitioned",
        }
    }
}

/// One tenant's measured profile: everything the queueing layer needs
/// to replay its GC requests.
#[derive(Debug, Clone, Copy)]
pub struct TenantProfile {
    /// Workload-shape label (watchdog dumps, reports).
    pub shape: &'static str,
    /// Live objects in the tenant's heap (the smallest-first key).
    pub live_objects: u64,
    /// Measured full-bandwidth mark service time, including any
    /// software-fallback completion after a trap.
    pub service_cycles: Cycle,
    /// Measured service time under the §VII issue throttle (the
    /// [`FleetPolicy::Partitioned`] replay).
    pub throttled_cycles: Cycle,
    /// Whether the measured mark degraded to the software fallback.
    pub degraded: bool,
}

/// Fleet topology and offered load.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Traversal units serving the queue.
    pub units: usize,
    /// Shared DDR3 channels the units are spread over (round-robin).
    pub channels: usize,
    /// Admission/scheduling policy.
    pub policy: FleetPolicy,
    /// GC requests each tenant issues.
    pub requests_per_tenant: usize,
    /// Mean per-tenant interarrival time in cycles (exponential).
    pub mean_period: Cycle,
    /// Admission-queue capacity; arrivals beyond it are rejected.
    pub queue_cap: usize,
    /// Seed for the arrival process.
    pub seed: u64,
}

/// A queued GC request.
#[derive(Debug, Clone, Copy)]
struct Request {
    tenant: usize,
    seq: usize,
    arrived: Cycle,
}

/// One completed GC request, with its full queueing history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The requesting tenant.
    pub tenant: usize,
    /// The tenant's request sequence number.
    pub seq: usize,
    /// Arrival cycle (admission time).
    pub arrived: Cycle,
    /// Dispatch cycle (service start).
    pub started: Cycle,
    /// Completion cycle.
    pub finished: Cycle,
    /// The unit that served it.
    pub unit: usize,
}

impl Completion {
    /// Cycles spent waiting in the admission queue.
    pub fn queue_delay(&self) -> Cycle {
        self.started - self.arrived
    }

    /// Arrival-to-completion latency (the SLO-facing number).
    pub fn sojourn(&self) -> Cycle {
        self.finished - self.arrived
    }
}

/// What one fleet run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Every completed request, in completion order.
    pub completions: Vec<Completion>,
    /// Arrivals rejected by the full admission queue.
    pub rejected: u64,
    /// Total unit-busy cycles (Σ service spans over all units).
    pub busy_cycles: u64,
    /// Last completion cycle.
    pub makespan: Cycle,
}

impl FleetStats {
    /// Aggregate unit utilization over the makespan.
    pub fn utilization(&self, units: usize) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (self.makespan as f64 * units.max(1) as f64)
        }
    }
}

/// Shared state the fleet engines communicate through.
struct FleetCtx {
    queue: VecDeque<Request>,
    queue_cap: usize,
    /// Busy units per channel (the dispatch-time contention factor).
    channel_busy: Vec<u32>,
    arrivals_done: bool,
    completions: Vec<Completion>,
    rejected: u64,
    busy_cycles: u64,
}

/// Replays the precomputed arrival trace into the admission queue.
struct ArrivalEngine {
    /// (cycle, tenant, seq), sorted ascending.
    arrivals: Vec<(Cycle, usize, usize)>,
    next: usize,
}

impl ArrivalEngine {
    /// Seeded open-loop arrivals: each tenant draws
    /// `requests_per_tenant` exponential interarrival gaps around
    /// `mean_period` from its own substream, then the per-tenant
    /// timelines are merged by (cycle, tenant, seq).
    fn new(cfg: &FleetConfig, tenants: usize) -> Self {
        let mut arrivals = Vec::with_capacity(tenants * cfg.requests_per_tenant);
        for tenant in 0..tenants {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut t = 0.0f64;
            for seq in 0..cfg.requests_per_tenant {
                let u = rng.random::<f64>();
                t += -(1.0 - u).ln() * cfg.mean_period.max(1) as f64;
                arrivals.push((t.ceil() as Cycle + 1, tenant, seq));
            }
        }
        arrivals.sort_unstable();
        Self { arrivals, next: 0 }
    }
}

impl Engine<FleetCtx> for ArrivalEngine {
    fn name(&self) -> &'static str {
        "arrivals"
    }

    fn label(&self) -> String {
        format!("arrivals[{} of {} issued]", self.next, self.arrivals.len())
    }

    fn step(&mut self, now: Cycle, ctx: &mut FleetCtx) -> Progress {
        let mut progress = false;
        while self.next < self.arrivals.len() && self.arrivals[self.next].0 <= now {
            let (arrived, tenant, seq) = self.arrivals[self.next];
            self.next += 1;
            progress = true;
            if ctx.queue.len() >= ctx.queue_cap {
                ctx.rejected += 1;
            } else {
                ctx.queue.push_back(Request {
                    tenant,
                    seq,
                    arrived,
                });
            }
        }
        if self.next >= self.arrivals.len() {
            ctx.arrivals_done = true;
            return Progress::Done;
        }
        if progress {
            Progress::Advanced
        } else {
            Progress::Stalled
        }
    }

    fn next_event_at(&self) -> Option<Cycle> {
        self.arrivals.get(self.next).map(|&(t, _, _)| t)
    }
}

/// One traversal unit draining the admission queue.
struct ServerEngine<'a> {
    unit: usize,
    channel: usize,
    policy: FleetPolicy,
    profiles: &'a [TenantProfile],
    serving: Option<(Request, Cycle, Cycle)>, // (req, started, until)
}

impl<'a> ServerEngine<'a> {
    fn new(
        unit: usize,
        channels: usize,
        policy: FleetPolicy,
        profiles: &'a [TenantProfile],
    ) -> Self {
        Self {
            unit,
            channel: unit % channels.max(1),
            policy,
            profiles,
            serving: None,
        }
    }

    /// Picks the next request under the policy. FIFO and Partitioned
    /// take the queue head (arrival order); SmallestFirst scans for the
    /// smallest live set, earliest arrival breaking ties.
    fn pick(&self, queue: &mut VecDeque<Request>) -> Option<Request> {
        match self.policy {
            FleetPolicy::Fifo | FleetPolicy::Partitioned => queue.pop_front(),
            FleetPolicy::SmallestFirst => {
                let best = queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, r)| (self.profiles[r.tenant].live_objects, *i))
                    .map(|(i, _)| i)?;
                queue.remove(best)
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, ctx: &mut FleetCtx) -> bool {
        let Some(req) = self.pick(&mut ctx.queue) else {
            return false;
        };
        let profile = &self.profiles[req.tenant];
        // Contention is fixed at dispatch: `b` units already busy on
        // this channel slow the whole pass by `b + 1`. Partitioned
        // replays the throttled measurement instead — the throttle
        // already leaves residual bandwidth, so no contention factor.
        let service = match self.policy {
            FleetPolicy::Partitioned => profile.throttled_cycles,
            _ => profile.service_cycles * (ctx.channel_busy[self.channel] as Cycle + 1),
        };
        ctx.channel_busy[self.channel] += 1;
        self.serving = Some((req, now, now + service.max(1)));
        true
    }
}

impl<'a> Engine<FleetCtx> for ServerEngine<'a> {
    fn name(&self) -> &'static str {
        "gc-server"
    }

    fn label(&self) -> String {
        match &self.serving {
            Some((req, _, _)) => format!(
                "gc-server[unit {} ch {}] serving tenant {} ({})",
                self.unit, self.channel, req.tenant, self.profiles[req.tenant].shape
            ),
            None => format!("gc-server[unit {} ch {}] idle", self.unit, self.channel),
        }
    }

    fn step(&mut self, now: Cycle, ctx: &mut FleetCtx) -> Progress {
        let mut progress = false;
        if let Some((req, started, until)) = self.serving {
            if now < until {
                return Progress::Stalled;
            }
            ctx.completions.push(Completion {
                tenant: req.tenant,
                seq: req.seq,
                arrived: req.arrived,
                started,
                finished: until,
                unit: self.unit,
            });
            ctx.busy_cycles += until - started;
            ctx.channel_busy[self.channel] -= 1;
            self.serving = None;
            progress = true;
        }
        if self.dispatch(now, ctx) {
            return Progress::Advanced;
        }
        if ctx.arrivals_done {
            return Progress::Done;
        }
        if progress {
            Progress::Advanced
        } else {
            Progress::Stalled
        }
    }

    fn next_event_at(&self) -> Option<Cycle> {
        // Serving: wake at completion. Idle: no self-scheduled wake —
        // the arrival engine's event covers the only state change that
        // can hand this unit work.
        self.serving.map(|(_, _, until)| until)
    }

    fn stall_reason(&self, _now: Cycle) -> StallReason {
        if self.serving.is_some() {
            StallReason::MemLatency
        } else {
            StallReason::Idle
        }
    }
}

/// Runs one fleet configuration over the measured tenant profiles and
/// returns the completed-request history.
///
/// Deterministic under both pacings and any `--jobs`: the queueing
/// layer itself is one single-threaded scheduler run.
pub fn run_fleet(cfg: &FleetConfig, profiles: &[TenantProfile]) -> Result<FleetStats, SimError> {
    assert!(cfg.units > 0, "fleet needs at least one unit");
    let mut ctx = FleetCtx {
        queue: VecDeque::new(),
        queue_cap: cfg.queue_cap.max(1),
        channel_busy: vec![0; cfg.channels.max(1)],
        arrivals_done: false,
        completions: Vec::new(),
        rejected: 0,
        busy_cycles: 0,
    };
    let mut arrivals = ArrivalEngine::new(cfg, profiles.len());
    let mut servers: Vec<ServerEngine<'_>> = (0..cfg.units)
        .map(|u| ServerEngine::new(u, cfg.channels, cfg.policy, profiles))
        .collect();
    // The arrival engine is registered first: a same-cycle arrival is
    // visible to every server in the same service round, identically
    // under lockstep and fast-forward.
    let mut engines: Vec<&mut dyn Engine<FleetCtx>> = Vec::with_capacity(1 + cfg.units);
    engines.push(&mut arrivals);
    for s in &mut servers {
        engines.push(s);
    }
    let report = Scheduler::new(Policy::Lockstep).try_run(&mut engines, &mut ctx, 0)?;
    Ok(FleetStats {
        completions: ctx.completions,
        rejected: ctx.rejected,
        busy_cycles: ctx.busy_cycles,
        makespan: report.end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{with_pacing, Pacing};

    fn profiles(n: usize) -> Vec<TenantProfile> {
        (0..n)
            .map(|i| TenantProfile {
                shape: "test",
                live_objects: 100 + (i as u64 % 5) * 50,
                service_cycles: 1_000 + (i as u64 % 3) * 700,
                throttled_cycles: 2_500 + (i as u64 % 3) * 900,
                degraded: false,
            })
            .collect()
    }

    fn cfg(policy: FleetPolicy, mean_period: Cycle) -> FleetConfig {
        FleetConfig {
            units: 4,
            channels: 2,
            policy,
            requests_per_tenant: 3,
            mean_period,
            queue_cap: 8,
            seed: 0xF1EE_7001,
        }
    }

    #[test]
    fn conserves_requests_and_is_deterministic() {
        let p = profiles(8);
        let c = cfg(FleetPolicy::Fifo, 2_000);
        let a = run_fleet(&c, &p).unwrap();
        let b = run_fleet(&c, &p).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.completions.len() as u64 + a.rejected, 8 * 3);
        assert!(a.utilization(4) > 0.0 && a.utilization(4) <= 1.0);
        for done in &a.completions {
            assert!(done.arrived <= done.started && done.started < done.finished);
        }
    }

    #[test]
    fn lockstep_and_fastforward_agree_exactly() {
        for policy in [
            FleetPolicy::Fifo,
            FleetPolicy::SmallestFirst,
            FleetPolicy::Partitioned,
        ] {
            let p = profiles(12);
            let c = cfg(policy, 900);
            let ls = with_pacing(Pacing::Lockstep, || run_fleet(&c, &p).unwrap());
            let ff = with_pacing(Pacing::FastForward, || run_fleet(&c, &p).unwrap());
            assert_eq!(ls, ff, "{} diverged across pacings", policy.name());
        }
    }

    #[test]
    fn saturation_rejects_arrivals_and_light_load_does_not() {
        let p = profiles(8);
        let light = run_fleet(&cfg(FleetPolicy::Fifo, 50_000), &p).unwrap();
        assert_eq!(light.rejected, 0);
        // Mean service ~1700 cycles × contention on 4 units vs 8
        // tenants arriving every ~10 cycles: the queue must overflow.
        let crushed = run_fleet(&cfg(FleetPolicy::Fifo, 10), &p).unwrap();
        assert!(crushed.rejected > 0, "overload must trip admission control");
        // Queueing delay grows with load.
        let qd = |s: &FleetStats| {
            s.completions.iter().map(|c| c.queue_delay()).sum::<u64>()
                / s.completions.len().max(1) as u64
        };
        assert!(qd(&crushed) > qd(&light));
    }

    #[test]
    fn smallest_first_prefers_small_heaps_under_backlog() {
        // One unit, deep queue: after the first dispatch the queue has
        // a backlog, and smallest-first must serve small tenants ahead
        // of earlier-arrived big ones.
        let mut p = profiles(6);
        for (i, t) in p.iter_mut().enumerate() {
            t.live_objects = if i % 2 == 0 { 10 } else { 10_000 };
            t.service_cycles = 5_000;
            t.throttled_cycles = 9_000;
        }
        let c = FleetConfig {
            units: 1,
            channels: 1,
            policy: FleetPolicy::SmallestFirst,
            requests_per_tenant: 2,
            mean_period: 10,
            queue_cap: 64,
            seed: 3,
        };
        let run = run_fleet(&c, &p).unwrap();
        let small_mean: f64 = mean_sojourn(&run, |t| t % 2 == 0);
        let big_mean: f64 = mean_sojourn(&run, |t| t % 2 == 1);
        assert!(
            small_mean < big_mean,
            "small {small_mean} should beat big {big_mean}"
        );
    }

    fn mean_sojourn(run: &FleetStats, pick: impl Fn(usize) -> bool) -> f64 {
        let picked: Vec<u64> = run
            .completions
            .iter()
            .filter(|c| pick(c.tenant))
            .map(|c| c.sojourn())
            .collect();
        picked.iter().sum::<u64>() as f64 / picked.len().max(1) as f64
    }

    #[test]
    fn partitioned_replays_throttled_service_without_contention() {
        // Saturating load on 2 units / 1 channel: FIFO's contended
        // completions vary with channel occupancy; Partitioned's are
        // exactly the throttled measurement.
        let p = profiles(6);
        let c = FleetConfig {
            units: 2,
            channels: 1,
            policy: FleetPolicy::Partitioned,
            requests_per_tenant: 2,
            mean_period: 100,
            queue_cap: 32,
            seed: 9,
        };
        let run = run_fleet(&c, &p).unwrap();
        for done in &run.completions {
            assert_eq!(
                done.finished - done.started,
                p[done.tenant].throttled_cycles,
                "partitioned service must be the throttled measurement"
            );
        }
    }
}
