//! Deterministic cycle-level simulation primitives shared by every `tracegc`
//! crate.
//!
//! The tracegc project models the ISCA 2018 garbage-collection accelerator as
//! a set of explicitly ticked state machines operating against a timestamped
//! memory system. This crate provides the vocabulary those models share:
//!
//! * [`Cycle`] — the global clock domain (1 GHz in the paper's Table I).
//! * [`BoundedQueue`] — a fixed-capacity FIFO with back-pressure, the direct
//!   analogue of a Chisel `Queue`.
//! * [`stats`] — latency percentiles and windowed bandwidth time series
//!   used to regenerate the paper's figures.
//! * [`metrics`] — cycle-attributed observability: [`StallReason`]-keyed
//!   stall accounting and a bounded [`EventTrace`] ring (the harness
//!   renders them into its JSON sidecars and Chrome traces).
//! * [`rng`] — the in-tree deterministic PRNG (SplitMix64-seeded
//!   xoshiro256++); the project has no external dependencies, so all
//!   randomness flows through this module.
//! * [`dist`] — seeded random distributions (normal, log-normal, Zipf)
//!   used by the synthetic DaCapo workload generators.
//! * [`fault`] — seeded deterministic fault injection ([`FaultPlan`],
//!   per-site [`FaultInjector`]s) and the structured [`SimError`] every
//!   `try_run_*` driver degrades into instead of panicking.
//! * [`fleet`] — fleet-scale multi-tenant GC request queueing: a
//!   seeded open-loop arrival process, bounded admission, pluggable
//!   scheduling policies and trace-driven replay of measured per-tenant
//!   mark service times over shared traversal units, run as a direct
//!   event loop off the cycle scheduler.
//! * [`lru`] — [`LruMap`], the exact O(1) LRU map behind the TLBs and
//!   the mark-bit cache.
//! * [`sched`] — the SoC composition layer: the cycle-stepped
//!   [`Engine`] trait and the [`Scheduler`] that ticks arbitrary engine
//!   sets on one shared clock under a pluggable [`Policy`].
//!
//! Everything in this crate is deterministic: given the same seed and the
//! same sequence of calls, the results are bit-identical.
//!
//! # Examples
//!
//! ```
//! use tracegc_sim::BoundedQueue;
//!
//! let mut q: BoundedQueue<u64> = BoundedQueue::new(2);
//! assert!(q.try_push(1).is_ok());
//! assert!(q.try_push(2).is_ok());
//! assert!(q.try_push(3).is_err()); // back-pressure
//! assert_eq!(q.pop(), Some(1));
//! ```

pub mod dist;
pub mod fault;
pub mod fleet;
pub mod lru;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod stats;

pub use fault::{
    EccOutcome, FaultConfig, FaultInjector, FaultPlan, FaultSite, FaultStats, SimError,
};
pub use fleet::{Completion, FleetConfig, FleetPolicy, FleetStats, TenantProfile};
pub use lru::LruMap;
pub use metrics::{EventTrace, StallAccounting, StallReason, TraceEvent};
pub use queue::BoundedQueue;
pub use rng::{Rng, SplitMix64, StdRng};
pub use sched::{
    default_exec, default_pacing, run_partitions, set_default_exec, set_default_pacing,
    with_pacing, Engine, Exec, Pacing, Policy, Progress, Scheduler, SocReport,
};
pub use stats::{BandwidthMeter, LatencyRecorder};

/// A point in simulated time, measured in core clock cycles.
///
/// The paper's SoC runs at 1 GHz, so one cycle is one nanosecond; helper
/// conversions live in [`cycles_to_ms`] and [`ns`].
pub type Cycle = u64;

/// The simulated core clock frequency in Hz (1 GHz, per Table I).
pub const CLOCK_HZ: u64 = 1_000_000_000;

/// Converts a cycle count to milliseconds at the simulated 1 GHz clock.
///
/// # Examples
///
/// ```
/// assert_eq!(tracegc_sim::cycles_to_ms(2_000_000), 2.0);
/// ```
pub fn cycles_to_ms(cycles: Cycle) -> f64 {
    cycles as f64 * 1e3 / CLOCK_HZ as f64
}

/// Converts a duration in nanoseconds to cycles at the simulated 1 GHz clock.
///
/// # Examples
///
/// ```
/// assert_eq!(tracegc_sim::ns(14), 14);
/// ```
pub const fn ns(nanos: u64) -> Cycle {
    // 1 GHz: one cycle per nanosecond.
    nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_ms_converts_at_one_ghz() {
        assert_eq!(cycles_to_ms(0), 0.0);
        assert_eq!(cycles_to_ms(1_000_000_000), 1000.0);
        assert!((cycles_to_ms(1234) - 0.001234).abs() < 1e-12);
    }

    #[test]
    fn ns_is_identity_at_one_ghz() {
        assert_eq!(ns(0), 0);
        assert_eq!(ns(47), 47);
    }
}
