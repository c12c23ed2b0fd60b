//! Seeded, deterministic fault injection and the structured error type
//! every `try_run_*` driver degrades into.
//!
//! The paper's unit is designed to survive hostile conditions — the
//! mark queue spills instead of overflowing, and rare or illegal cases
//! trap to a software path rather than wedging the SoC. This module
//! provides the machinery to *exercise* that story deterministically:
//!
//! * [`FaultConfig`] — per-class fault rates plus retry/timeout
//!   parameters, all derived from one master seed.
//! * [`FaultPlan`] / [`FaultInjector`] — each component (memory system,
//!   page-table walker, traversal unit) receives its *own* injector,
//!   seeded from the master seed and a per-site salt, so injection is
//!   independent of scheduling order, worker threads and call
//!   interleaving across components.
//! * [`FaultStats`] — what actually fired, for the harness's metrics
//!   `faults` sidecar section.
//! * [`SimError`] — the structured, non-panicking outcome of a run that
//!   could not complete cleanly (scheduler deadlock, memory timeout,
//!   uncorrectable ECC, page fault, or a traversal-unit trap).
//!
//! # Determinism contract
//!
//! Every injector draws from its own xoshiro256++ stream; a rate of
//! `0.0` never fires and has **no timing side effects**, so a run under
//! an all-zero [`FaultConfig`] is byte-identical to a run with no fault
//! plan at all (pinned by `tests/fault_injection.rs`).
//!
//! # Detectability contract
//!
//! Injected reference corruption flips only bits the traversal unit's
//! sanitizer provably catches: low bits (violating the 8-byte object
//! alignment) or bits at and above [`CORRUPT_REF_HIGH_BIT`] (beyond
//! every mapped space in the default space map). An in-range flipped
//! reference would be indistinguishable from a legal heap edge by any
//! architectural check — guarding against *that* is what the ECC model
//! is for — and would silently violate the differential mark oracle.

use crate::rng::{Rng, SplitMix64, StdRng};
use crate::Cycle;

/// Lowest high bit used for out-of-range reference corruption. Every
/// space in the default map ends below `1 << 36`, so setting any bit at
/// or above 40 is guaranteed to leave the traced spaces.
pub const CORRUPT_REF_HIGH_BIT: u32 = 40;

/// Per-class fault rates and the retry/timeout model, all seeded.
///
/// Rates are per-opportunity probabilities in `[0, 1]`: per memory read
/// for ECC bit flips, per response for drops and delays, per dequeued
/// reference for corruption, per page walk for PTE faults. The default
/// config has every rate at `0.0` (nothing fires) with non-degenerate
/// retry parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; per-site injector streams derive from it.
    pub seed: u64,
    /// Probability a DRAM read suffers a single-bit flip (then
    /// classified by the ECC outcome weights below).
    pub bit_flip_rate: f64,
    /// Of the flips, the fraction ECC can only *detect* (forces a
    /// retry of the read).
    pub ecc_detect_weight: f64,
    /// Of the flips, the fraction that is uncorrectable (poisons the
    /// response and escalates to a trap). The remainder
    /// (`1 - detect - uncorrectable`) is corrected in-line for a small
    /// latency penalty.
    pub ecc_uncorrectable_weight: f64,
    /// Extra response latency charged for an in-line ECC correction.
    pub ecc_correct_cycles: u64,
    /// Probability a memory response is dropped entirely (the requester
    /// times out after [`FaultConfig::timeout_cycles`] and retries).
    pub drop_rate: f64,
    /// Probability a memory response is delayed (but still arrives).
    pub delay_rate: f64,
    /// Extra latency of a delayed response.
    pub delay_cycles: u64,
    /// Probability a reference word observed by the traversal unit's
    /// marker is corrupted (always detectably — see the module docs).
    pub corrupt_ref_rate: f64,
    /// Probability an object header observed by the marker is corrupted
    /// (the reference count is forced past any plausible value).
    pub corrupt_header_rate: f64,
    /// Probability a page walk hits an invalid PTE and faults.
    pub pte_fault_rate: f64,
    /// Cycles a requester waits before declaring a response lost.
    pub timeout_cycles: u64,
    /// Bounded retries after a timeout or an ECC-detected read before
    /// the request escalates to [`SimError::MemTimeout`].
    pub max_retries: u32,
    /// Additional backoff added per successive retry attempt.
    pub retry_backoff_cycles: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            bit_flip_rate: 0.0,
            ecc_detect_weight: 0.25,
            ecc_uncorrectable_weight: 0.05,
            ecc_correct_cycles: 4,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_cycles: 200,
            corrupt_ref_rate: 0.0,
            corrupt_header_rate: 0.0,
            pte_fault_rate: 0.0,
            timeout_cycles: 2_000,
            max_retries: 3,
            retry_backoff_cycles: 500,
        }
    }
}

impl FaultConfig {
    /// An all-zero-rate config with the given seed: attaches injectors
    /// everywhere but can never fire. Used by the byte-identity
    /// property test.
    pub fn zero_rates(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Every fault class at `rate` (what the experiments CLI's
    /// `--fault-rate` selects), every other parameter at its default.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            bit_flip_rate: rate,
            drop_rate: rate,
            delay_rate: rate,
            corrupt_ref_rate: rate,
            corrupt_header_rate: rate,
            pte_fault_rate: rate,
            ..Self::default()
        }
    }

    /// True when any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.bit_flip_rate > 0.0
            || self.drop_rate > 0.0
            || self.delay_rate > 0.0
            || self.corrupt_ref_rate > 0.0
            || self.corrupt_header_rate > 0.0
            || self.pte_fault_rate > 0.0
    }
}

/// Which component an injector is attached to. Each site gets an
/// independent RNG stream derived from the master seed, so the faults
/// one component sees do not depend on how often another rolls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The shared memory controller ([`SimError::MemTimeout`] source).
    Mem,
    /// The page-table walker.
    Ptw,
    /// The traversal unit's marker datapath.
    Traversal,
    /// The CPU collector's load/store path.
    Cpu,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::Mem => 0x6d65_6d00,
            FaultSite::Ptw => 0x7074_7700,
            FaultSite::Traversal => 0x7472_6100,
            FaultSite::Cpu => 0x6370_7500,
        }
    }
}

/// A fault plan: hands out per-site [`FaultInjector`]s for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The shared configuration.
    pub cfg: FaultConfig,
}

impl FaultPlan {
    /// Wraps a config into a plan.
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg }
    }

    /// Creates the injector for `site`, with its own seeded stream and
    /// zeroed stats.
    pub fn injector(&self, site: FaultSite) -> FaultInjector {
        let mut mix = SplitMix64::new(self.cfg.seed ^ site.salt());
        FaultInjector {
            cfg: self.cfg,
            rng: StdRng::seed_from_u64(mix.next_u64()),
            stats: FaultStats::default(),
        }
    }
}

/// ECC classification of a DRAM read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// No bit flip.
    Clean,
    /// Single-bit flip corrected in-line (small latency penalty).
    Corrected,
    /// Flip detected but not correctable: the read must be retried.
    Detected,
    /// Uncorrectable corruption: the response is poisoned.
    Uncorrectable,
}

/// Counters of everything an injector (or the component around it)
/// actually did. Field order matches the sidecar emission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bit flips corrected in-line by ECC.
    pub ecc_corrected: u64,
    /// Bit flips detected (read retried).
    pub ecc_detected: u64,
    /// Uncorrectable bit flips (escalated).
    pub ecc_uncorrectable: u64,
    /// Responses dropped (requester timed out).
    pub dropped: u64,
    /// Responses delayed.
    pub delayed: u64,
    /// Retry attempts issued (timeouts and ECC-detected reads).
    pub retries: u64,
    /// Requests that exhausted their retry budget.
    pub timeouts: u64,
    /// Reference words corrupted in flight.
    pub corrupted_refs: u64,
    /// Object headers corrupted in flight.
    pub corrupted_headers: u64,
    /// Page walks that hit an injected invalid PTE.
    pub pte_faults: u64,
}

impl FaultStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_detected += other.ecc_detected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.corrupted_refs += other.corrupted_refs;
        self.corrupted_headers += other.corrupted_headers;
        self.pte_faults += other.pte_faults;
    }

    /// Named counters in stable emission order (zero entries included;
    /// the harness filters).
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("ecc_corrected", self.ecc_corrected),
            ("ecc_detected", self.ecc_detected),
            ("ecc_uncorrectable", self.ecc_uncorrectable),
            ("dropped", self.dropped),
            ("delayed", self.delayed),
            ("retries", self.retries),
            ("timeouts", self.timeouts),
            ("corrupted_refs", self.corrupted_refs),
            ("corrupted_headers", self.corrupted_headers),
            ("pte_faults", self.pte_faults),
        ]
    }

    /// Total events that fired.
    pub fn total(&self) -> u64 {
        self.entries().iter().map(|(_, v)| v).sum()
    }
}

/// One component's private fault source: its own RNG stream plus the
/// shared [`FaultConfig`] and local [`FaultStats`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// The shared configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// What fired so far at this site.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Rolls a Bernoulli trial; a zero rate never draws (and so has no
    /// side effects at all).
    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.random::<f64>() < rate
    }

    /// Classifies one DRAM read under the ECC model.
    pub fn ecc_read(&mut self) -> EccOutcome {
        if !self.roll(self.cfg.bit_flip_rate) {
            return EccOutcome::Clean;
        }
        let u: f64 = self.rng.random();
        if u < self.cfg.ecc_uncorrectable_weight {
            self.stats.ecc_uncorrectable += 1;
            EccOutcome::Uncorrectable
        } else if u < self.cfg.ecc_uncorrectable_weight + self.cfg.ecc_detect_weight {
            self.stats.ecc_detected += 1;
            EccOutcome::Detected
        } else {
            self.stats.ecc_corrected += 1;
            EccOutcome::Corrected
        }
    }

    /// True when this response is dropped (the requester must retry).
    pub fn drop_response(&mut self) -> bool {
        let hit = self.roll(self.cfg.drop_rate);
        if hit {
            self.stats.dropped += 1;
        }
        hit
    }

    /// Extra latency when this response is delayed.
    pub fn delay_response(&mut self) -> Option<u64> {
        if self.roll(self.cfg.delay_rate) {
            self.stats.delayed += 1;
            Some(self.cfg.delay_cycles)
        } else {
            None
        }
    }

    /// True when this page walk hits an injected invalid PTE.
    pub fn pte_fault(&mut self) -> bool {
        let hit = self.roll(self.cfg.pte_fault_rate);
        if hit {
            self.stats.pte_faults += 1;
        }
        hit
    }

    /// Corrupts a reference word in flight, detectably: flips either a
    /// low bit (breaking 8-byte alignment) or a bit at or above
    /// [`CORRUPT_REF_HIGH_BIT`] (leaving every mapped space).
    pub fn corrupt_ref(&mut self, va: u64) -> Option<u64> {
        if !self.roll(self.cfg.corrupt_ref_rate) {
            return None;
        }
        self.stats.corrupted_refs += 1;
        const BITS: [u32; 6] = [0, 1, 2, 40, 44, 52];
        debug_assert!(BITS
            .iter()
            .all(|&b| !(3..CORRUPT_REF_HIGH_BIT).contains(&b)));
        let bit = BITS[(self.rng.next_u64() % BITS.len() as u64) as usize];
        Some(va ^ (1u64 << bit))
    }

    /// True when the header observed for this object is corrupted (the
    /// component fabricates an implausible reference count).
    pub fn corrupt_header(&mut self) -> bool {
        let hit = self.roll(self.cfg.corrupt_header_rate);
        if hit {
            self.stats.corrupted_headers += 1;
        }
        hit
    }

    /// Records one retry attempt.
    pub fn note_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Records one exhausted retry budget.
    pub fn note_timeout(&mut self) {
        self.stats.timeouts += 1;
    }
}

/// A run that could not complete cleanly: the structured, non-panicking
/// alternative every `try_run_*` driver and the scheduler watchdog degrade
/// into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler wedged: either every engine stalled with no
    /// pending event, or the no-progress watchdog tripped. `dump` is
    /// the full per-engine stall-reason and ledger report.
    Deadlock {
        /// Cycle the scheduler gave up at.
        at: Cycle,
        /// The per-engine dump, starting `scheduler deadlock at ...`.
        dump: String,
    },
    /// A memory request exhausted its retry budget.
    MemTimeout {
        /// Cycle of the final failed attempt.
        at: Cycle,
        /// Physical address of the request.
        addr: u64,
        /// Attempts made (initial issue + retries).
        attempts: u32,
    },
    /// An uncorrectable ECC error poisoned a read response.
    EccUncorrectable {
        /// Cycle of the poisoned response.
        at: Cycle,
        /// Physical address of the read.
        addr: u64,
    },
    /// The traversal unit trapped; `description` carries the trap
    /// taxonomy entry and faulting address.
    Trap {
        /// Cycle the trap was taken.
        at: Cycle,
        /// Human-readable trap description.
        description: String,
    },
}

impl SimError {
    /// The cycle at which the run failed.
    pub fn at(&self) -> Cycle {
        match self {
            SimError::Deadlock { at, .. }
            | SimError::MemTimeout { at, .. }
            | SimError::EccUncorrectable { at, .. }
            | SimError::Trap { at, .. } => *at,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The dump already leads with "scheduler deadlock at cycle
            // ...": print it verbatim.
            SimError::Deadlock { dump, .. } => f.write_str(dump),
            SimError::MemTimeout { at, addr, attempts } => write!(
                f,
                "memory request to {addr:#x} timed out after {attempts} attempts at cycle {at}"
            ),
            SimError::EccUncorrectable { at, addr } => write!(
                f,
                "uncorrectable ECC error on read of {addr:#x} at cycle {at}"
            ),
            SimError::Trap { at, description } => {
                write!(f, "traversal trap at cycle {at}: {description}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            bit_flip_rate: 0.2,
            drop_rate: 0.1,
            delay_rate: 0.1,
            corrupt_ref_rate: 0.3,
            corrupt_header_rate: 0.1,
            pte_fault_rate: 0.1,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn zero_rates_never_fire_and_never_draw() {
        let plan = FaultPlan::new(FaultConfig::zero_rates(7));
        let mut inj = plan.injector(FaultSite::Mem);
        for _ in 0..1000 {
            assert_eq!(inj.ecc_read(), EccOutcome::Clean);
            assert!(!inj.drop_response());
            assert!(inj.delay_response().is_none());
            assert!(!inj.pte_fault());
            assert!(inj.corrupt_ref(0x2000_0000).is_none());
            assert!(!inj.corrupt_header());
        }
        assert_eq!(inj.stats().total(), 0);
        // No draws happened: the stream is still at its seed position.
        let fresh = plan.injector(FaultSite::Mem);
        assert_eq!(format!("{:?}", inj.rng), format!("{:?}", fresh.rng));
    }

    #[test]
    fn same_seed_same_site_same_stream() {
        let plan = FaultPlan::new(active_cfg(42));
        let mut a = plan.injector(FaultSite::Traversal);
        let mut b = plan.injector(FaultSite::Traversal);
        for i in 0..500 {
            assert_eq!(a.corrupt_ref(i * 8), b.corrupt_ref(i * 8));
            assert_eq!(a.corrupt_header(), b.corrupt_header());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::new(active_cfg(42));
        let mut a = plan.injector(FaultSite::Mem);
        let mut b = plan.injector(FaultSite::Ptw);
        let fires_a: Vec<bool> = (0..200).map(|_| a.drop_response()).collect();
        let fires_b: Vec<bool> = (0..200).map(|_| b.drop_response()).collect();
        assert_ne!(fires_a, fires_b);
    }

    #[test]
    fn corrupted_refs_are_always_detectable() {
        let plan = FaultPlan::new(FaultConfig {
            corrupt_ref_rate: 1.0,
            ..active_cfg(3)
        });
        let mut inj = plan.injector(FaultSite::Traversal);
        for i in 0..2000u64 {
            let va = 0x4000_0000 + i * 8; // aligned, in the ms space
            let bad = inj.corrupt_ref(va).expect("rate 1.0 always fires");
            let misaligned = !bad.is_multiple_of(8);
            let out_of_range = bad >= 1 << CORRUPT_REF_HIGH_BIT;
            assert!(
                misaligned || out_of_range,
                "corruption {bad:#x} of {va:#x} is not architecturally detectable"
            );
        }
    }

    #[test]
    fn ecc_outcomes_follow_weights_roughly() {
        let plan = FaultPlan::new(FaultConfig {
            bit_flip_rate: 1.0,
            ecc_detect_weight: 0.5,
            ecc_uncorrectable_weight: 0.25,
            ..FaultConfig::default()
        });
        let mut inj = plan.injector(FaultSite::Mem);
        for _ in 0..4000 {
            inj.ecc_read();
        }
        let s = inj.stats();
        assert_eq!(s.ecc_corrected + s.ecc_detected + s.ecc_uncorrectable, 4000);
        // Loose bounds: the split should be near 25/50/25.
        assert!(s.ecc_uncorrectable > 700 && s.ecc_uncorrectable < 1300);
        assert!(s.ecc_detected > 1600 && s.ecc_detected < 2400);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = FaultStats {
            retries: 2,
            dropped: 1,
            ..FaultStats::default()
        };
        let b = FaultStats {
            retries: 3,
            pte_faults: 4,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 5);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.pte_faults, 4);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn sim_error_display_is_descriptive() {
        let e = SimError::MemTimeout {
            at: 10,
            addr: 0x40,
            attempts: 4,
        };
        assert!(e.to_string().contains("timed out after 4 attempts"));
        let d = SimError::Deadlock {
            at: 5,
            dump: "scheduler deadlock at cycle 5: every engine is stalled".into(),
        };
        assert!(d.to_string().starts_with("scheduler deadlock at cycle 5"));
        assert_eq!(d.at(), 5);
    }
}
