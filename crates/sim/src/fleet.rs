//! Fleet-scale GC request queueing: N tenant heaps sharing K traversal
//! units (the production version of §VII's multi-process story).
//!
//! The paper shows one traversal unit serving multiple processes over
//! shared DDR3; a deployment runs the other direction — hundreds of
//! tenant heaps queueing on a few units. This module models that layer
//! as a discrete-event replay: a seeded open-loop arrival process
//! (per-tenant exponential interarrivals) feeds a bounded admission
//! queue, and K traversal units drain it under a pluggable
//! [`FleetPolicy`].
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
//! seed, and the replay's state changes only at arrivals and
//! completions, so [`run_fleet`] jumps from one such event to the next.
//! At each event cycle it first admits the arrivals that are due, so
//! same-cycle arrivals are visible to every unit, then lets each unit
//! in index order finish a request that is due and take the next one.
//! Completions are therefore ordered by (cycle, unit). No scheduler
//! runs the replay, so no pacing reaches it and no watchdog bounds an
//! idle gap.

use std::collections::VecDeque;
use std::convert::Infallible;

use crate::rng::{Rng, StdRng};
use crate::Cycle;

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
    /// Workload-shape label.
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

/// Seeded open-loop arrivals: each tenant draws `requests_per_tenant`
/// exponential interarrival gaps around `mean_period` from its own
/// substream, then the per-tenant timelines are merged by
/// (cycle, tenant, seq).
fn arrivals(cfg: &FleetConfig, tenants: usize) -> Vec<(Cycle, usize, usize)> {
    let mut arrivals = Vec::with_capacity(tenants * cfg.requests_per_tenant);
    for tenant in 0..tenants {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut t = 0.0f64;
        for seq in 0..cfg.requests_per_tenant {
            let u = rng.random::<f64>();
            t += -(1.0 - u).ln() * cfg.mean_period.max(1) as f64;
            arrivals.push((t.ceil() as Cycle + 1, tenant, seq));
        }
    }
    arrivals.sort_unstable();
    arrivals
}

/// Picks the next request under the policy. FIFO and Partitioned take
/// the queue head (arrival order); SmallestFirst scans for the smallest
/// live set, earliest arrival breaking ties.
fn pick(
    policy: FleetPolicy,
    profiles: &[TenantProfile],
    queue: &mut VecDeque<Request>,
) -> Option<Request> {
    match policy {
        FleetPolicy::Fifo | FleetPolicy::Partitioned => queue.pop_front(),
        FleetPolicy::SmallestFirst => {
            let best = queue
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (profiles[r.tenant].live_objects, *i))
                .map(|(i, _)| i)?;
            queue.remove(best)
        }
    }
}

/// Runs one fleet configuration over the measured tenant profiles and
/// returns the completed-request history.
///
/// The replay cannot fail: the error type is [`Infallible`].
///
/// # Panics
///
/// Panics when `cfg.units` is 0.
pub fn run_fleet(cfg: &FleetConfig, profiles: &[TenantProfile]) -> Result<FleetStats, Infallible> {
    assert!(cfg.units > 0, "fleet needs at least one unit");
    let arrivals = arrivals(cfg, profiles.len());
    let queue_cap = cfg.queue_cap.max(1);
    let channels = cfg.channels.max(1);
    // Busy units per channel (the dispatch-time contention factor).
    let mut channel_busy = vec![0 as Cycle; channels];
    // Per unit: the request in service, its start and its completion.
    let mut serving: Vec<Option<(Request, Cycle, Cycle)>> = vec![None; cfg.units];
    let mut queue = VecDeque::new();
    let mut stats = FleetStats {
        completions: Vec::new(),
        rejected: 0,
        busy_cycles: 0,
        makespan: 0,
    };
    let mut next = 0;
    let mut event = arrivals.first().map(|&(t, _, _)| t);
    while let Some(now) = event {
        while let Some(&(arrived, tenant, seq)) = arrivals.get(next).filter(|a| a.0 <= now) {
            next += 1;
            if queue.len() >= queue_cap {
                stats.rejected += 1;
            } else {
                queue.push_back(Request {
                    tenant,
                    seq,
                    arrived,
                });
            }
        }
        for (unit, slot) in serving.iter_mut().enumerate() {
            let channel = unit % channels;
            if let Some((req, started, until)) = *slot {
                if until > now {
                    continue;
                }
                stats.completions.push(Completion {
                    tenant: req.tenant,
                    seq: req.seq,
                    arrived: req.arrived,
                    started,
                    finished: until,
                    unit,
                });
                stats.busy_cycles += until - started;
                channel_busy[channel] -= 1;
                *slot = None;
            }
            let Some(req) = pick(cfg.policy, profiles, &mut queue) else {
                continue;
            };
            let profile = &profiles[req.tenant];
            // Contention is fixed at dispatch: `b` units already busy on
            // this channel slow the whole pass by `b + 1`. Partitioned
            // replays the throttled measurement instead — the throttle
            // already leaves residual bandwidth, so no contention factor.
            let service = match cfg.policy {
                FleetPolicy::Partitioned => profile.throttled_cycles,
                _ => profile.service_cycles * (channel_busy[channel] + 1),
            };
            channel_busy[channel] += 1;
            *slot = Some((req, now, now + service.max(1)));
        }
        // Nothing changes between events: a request waits in the queue
        // only while every unit is busy.
        let next_arrival = arrivals.get(next).map(|&(t, _, _)| t);
        let next_completion = serving.iter().flatten().map(|&(_, _, until)| until).min();
        event = next_arrival.into_iter().chain(next_completion).min();
    }
    stats.makespan = stats.completions.last().map_or(0, |c| c.finished);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn arrival_gaps_past_ten_million_cycles_complete() {
        // Arrivals ~50 M cycles apart on one unit: the fleet idles far
        // longer than a scheduler's 10 M-cycle no-progress watchdog
        // window, and every request is still served at its profiled
        // service time.
        let p = profiles(2);
        let c = FleetConfig {
            units: 1,
            channels: 1,
            policy: FleetPolicy::Fifo,
            requests_per_tenant: 2,
            mean_period: 50_000_000,
            queue_cap: 4,
            seed: 0xF1EE_7001,
        };
        let run = run_fleet(&c, &p).unwrap();
        assert_eq!(run.rejected, 0);
        assert_eq!(run.completions.len(), 4);
        for done in &run.completions {
            assert_eq!(done.finished - done.started, p[done.tenant].service_cycles);
        }
        // The fleet idles past the window before its first arrival and
        // between two later ones.
        let mut arrived: Vec<Cycle> = run.completions.iter().map(|c| c.arrived).collect();
        arrived.sort_unstable();
        assert!(arrived[0] > 10_000_000, "first arrival at {}", arrived[0]);
        assert!(
            arrived.windows(2).any(|w| w[1] - w[0] > 10_000_000),
            "{arrived:?}"
        );
        assert_eq!(run.makespan, run.completions.last().unwrap().finished);
    }
}
