//! The translation pipeline: per-requester L1 TLBs, a shared L2 TLB, and
//! the (by default blocking) page-table walker with its own cache.
//!
//! The walker's cache is [`TlbConfig::ptw_cache`]: the dedicated 8 KiB
//! PTW cache of the partitioned design (§V-C), or, in the shared
//! topology of Fig. 18a, the traversal unit's one 16 KiB cache, which
//! then also fronts every unit request through
//! [`Translator::cache_mut`].
//!
//! §VI-A: "as the TLB and page table walker are blocking, TLB misses can
//! serialize execution. Future work should therefore introduce a
//! non-blocking TLB that can perform multiple page-table walks
//! concurrently while still serving requests that hit in the TLB." Both
//! behaviours are implemented: [`TlbConfig::concurrent_walks`] = 1 is the
//! paper's prototype; larger values are the proposed extension measured
//! by the `ablC` ablation.

use tracegc_mem::cache::issue;
use tracegc_mem::{Cache, CacheConfig, MemReq, MemSystem, PhysMem, Source};
use tracegc_sim::fault::{FaultInjector, FaultStats};
use tracegc_sim::{Cycle, StallReason};

use crate::pagetable::AddressSpace;
use crate::tlb::Tlb;

/// Which unit is asking for a translation. Each requester owns a private
/// L1 TLB, mirroring the marker/tracer split in the paper's Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// The traversal unit's marker.
    Marker,
    /// The traversal unit's tracer.
    Tracer,
    /// A reclamation-unit block sweeper.
    Sweeper,
    /// The CPU core's data accesses.
    Cpu,
}

impl Requester {
    fn index(self) -> usize {
        match self {
            Requester::Marker => 0,
            Requester::Tracer => 1,
            Requester::Sweeper => 2,
            Requester::Cpu => 3,
        }
    }

    /// Number of distinct requesters.
    pub const COUNT: usize = 4;
}

/// TLB/PTW sizing (defaults = the paper's prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Entries in each requester's private L1 TLB (paper: 32).
    pub l1_entries: usize,
    /// Entries in the shared L2 TLB (paper: 128).
    pub l2_entries: usize,
    /// Added latency of an L2 TLB hit.
    pub l2_hit_latency: Cycle,
    /// Concurrent page-table walks (1 = the paper's blocking PTW).
    pub concurrent_walks: usize,
    /// Whether a requester's pipeline freezes during its own walk (the
    /// paper's prototype; §VI-A). `false` models the proposed
    /// non-blocking TLB "that can perform multiple page-table walks
    /// concurrently while still serving requests that hit in the TLB".
    pub blocking_requesters: bool,
    /// Geometry of the walker's cache: the PTW's dedicated 8 KiB cache
    /// by default (§V-C); the unit's 16 KiB shared cache in the shared
    /// topology (Fig. 18a).
    pub ptw_cache: CacheConfig,
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self {
            l1_entries: 32,
            l2_entries: 128,
            l2_hit_latency: 4,
            concurrent_walks: 1,
            blocking_requesters: true,
            ptw_cache: CacheConfig::ptw_cache(),
        }
    }
}

/// A translation attempt on an unmapped address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslateFault {
    /// The faulting virtual address.
    pub va: u64,
}

impl std::fmt::Display for TranslateFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page fault at virtual address {:#x}", self.va)
    }
}

impl std::error::Error for TranslateFault {}

/// Translation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslatorStats {
    /// L1 TLB hits across all requesters.
    pub l1_hits: u64,
    /// Shared L2 TLB hits.
    pub l2_hits: u64,
    /// Full page-table walks performed.
    pub walks: u64,
    /// Cycles some requester spent waiting for a busy walker (the
    /// serialization the paper calls out).
    pub walker_wait_cycles: u64,
    /// Cycles spent inside page-table walks themselves (PTE fetches
    /// through the PTW cache), excluding walker-queue waits.
    pub walk_cycles: u64,
}

/// The shared translation machinery of the traversal unit (and, reused,
/// of the CPU model).
#[derive(Debug)]
pub struct Translator {
    aspace: AddressSpace,
    cfg: TlbConfig,
    l1: Vec<Tlb>,
    l2: Tlb,
    /// The walker's cache ([`TlbConfig::ptw_cache`]).
    cache: Cache,
    /// Completion times of in-flight walks (bounded by
    /// `concurrent_walks`).
    walks_inflight: Vec<Cycle>,
    stats: TranslatorStats,
    /// How the most recent translation was served
    /// ([`Translator::last_walk`]).
    last_walk: Option<StallReason>,
    /// Optional fault source ([`FaultSite::Ptw`]); rolls once per walk
    /// for an injected invalid PTE.
    ///
    /// [`FaultSite::Ptw`]: tracegc_sim::fault::FaultSite::Ptw
    fault: Option<FaultInjector>,
}

impl Translator {
    /// Creates the translator for `aspace`.
    pub fn new(aspace: AddressSpace, cfg: TlbConfig) -> Self {
        Self {
            aspace,
            l1: (0..Requester::COUNT)
                .map(|_| Tlb::new(cfg.l1_entries))
                .collect(),
            l2: Tlb::new(cfg.l2_entries),
            cache: Cache::new(cfg.ptw_cache),
            walks_inflight: Vec::new(),
            cfg,
            stats: TranslatorStats::default(),
            last_walk: None,
            fault: None,
        }
    }

    /// Attaches a fault injector: each page-table walk rolls once for
    /// an injected invalid PTE, which surfaces as a [`TranslateFault`].
    /// Zero-rate injectors never draw and never perturb a clean run.
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.fault = Some(inj);
    }

    /// What fired so far at this site, when an injector is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// The active configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TranslatorStats {
        self.stats
    }

    /// Drops all TLB contents (address-space switch / new GC pass).
    pub fn flush(&mut self) {
        for tlb in &mut self.l1 {
            tlb.flush();
        }
        self.l2.flush();
        self.walks_inflight.clear();
    }

    /// The cache the walker reads PTEs through (the configured
    /// [`TlbConfig::ptw_cache`]).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The walker's cache, mutably: in the shared topology of Fig. 18a
    /// the traversal unit's data, root and spill requests go through it
    /// too.
    pub fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    /// How the most recent [`Translator::translate`] was served: `None`
    /// for an L1 or L2 TLB hit, [`StallReason::TlbMiss`] for a walk that
    /// started at once, [`StallReason::PtwBusy`] for a walk that first
    /// waited behind a busy walker (exactly when `walker_wait_cycles`
    /// grew).
    pub fn last_walk(&self) -> Option<StallReason> {
        self.last_walk
    }

    /// Translates `va` for `who` starting at `now`.
    ///
    /// Returns the physical address and the cycle at which it is
    /// available. TLB hits cost nothing (L1) or `l2_hit_latency`; misses
    /// walk the real page table in `phys` through the walker's cache,
    /// issuing PTE fills into `mem`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault`] when `va` is unmapped.
    pub fn translate(
        &mut self,
        who: Requester,
        va: u64,
        now: Cycle,
        mem: &mut MemSystem,
        phys: &PhysMem,
    ) -> Result<(u64, Cycle), TranslateFault> {
        self.last_walk = None;
        if let Some(pa) = self.l1[who.index()].lookup(va) {
            self.stats.l1_hits += 1;
            return Ok((pa, now));
        }
        if let Some(pa) = self.l2.lookup(va) {
            self.stats.l2_hits += 1;
            self.l1[who.index()].fill(va, pa, crate::PAGE_SIZE);
            return Ok((pa, now + self.cfg.l2_hit_latency));
        }

        // Walk. The walker has a bounded number of concurrent walks; the
        // paper's prototype has exactly one, serializing misses.
        let mut start = now + self.cfg.l2_hit_latency;
        self.walks_inflight.retain(|&t| t > start);
        self.last_walk = Some(StallReason::TlbMiss);
        if self.walks_inflight.len() >= self.cfg.concurrent_walks {
            let earliest = *self
                .walks_inflight
                .iter()
                .min()
                .expect("inflight walks non-empty");
            // Every walk left in flight ends after `start`, so the wait
            // is never zero.
            self.stats.walker_wait_cycles += earliest.saturating_sub(start);
            start = earliest;
            self.walks_inflight.retain(|&t| t > start);
            self.last_walk = Some(StallReason::PtwBusy);
        }

        // Injected invalid PTE: the walk runs but ends in a fault, exactly
        // as a corrupted page table would surface architecturally.
        let injected_fault = self.fault.as_mut().is_some_and(|inj| inj.pte_fault());

        let walk = self.aspace.walk(phys, va);
        let mut t = start;
        for &pte_pa in walk.path() {
            let pte = MemReq::read(pte_pa, 8, Source::Ptw);
            t = issue(mem, Some(&mut self.cache), &pte, t);
        }
        self.stats.walks += 1;
        self.stats.walk_cycles += t.saturating_sub(start);
        self.walks_inflight.push(t);

        if injected_fault {
            return Err(TranslateFault { va });
        }
        let (pa, page_bytes) = walk.leaf.ok_or(TranslateFault { va })?;
        // Superpage mappings install reach-appropriate TLB entries. Both
        // lookups above missed `va`, so neither TLB holds it.
        self.l2.fill(va, pa, page_bytes);
        self.l1[who.index()].fill(va, pa, page_bytes);
        Ok((pa, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::{FrameAlloc, PAGE_SIZE};

    fn setup(pages: u64) -> (PhysMem, AddressSpace, MemSystem, u64) {
        let mut phys = PhysMem::new(64 * 1024 * 1024);
        let mut falloc = FrameAlloc::new(0, 64 * 1024 * 1024);
        let aspace = AddressSpace::new(&mut phys, &mut falloc);
        let base_va = 0x4000_0000;
        aspace.map_range(&mut phys, &mut falloc, base_va, pages * PAGE_SIZE);
        let mem = MemSystem::pipe(Default::default());
        (phys, aspace, mem, base_va)
    }

    #[test]
    fn translation_matches_oracle() {
        let (phys, aspace, mut mem, base) = setup(16);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        for i in 0..16 {
            let va = base + i * PAGE_SIZE + 0x18;
            let (pa, _) = tr
                .translate(Requester::Marker, va, 0, &mut mem, &phys)
                .unwrap();
            assert_eq!(Some(pa), aspace.translate(&phys, va));
        }
    }

    #[test]
    fn l1_hit_is_free_after_first_walk() {
        let (phys, aspace, mut mem, base) = setup(1);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        let (_, t1) = tr
            .translate(Requester::Marker, base, 0, &mut mem, &phys)
            .unwrap();
        assert!(t1 > 0, "first access walks");
        assert_eq!(tr.last_walk(), Some(StallReason::TlbMiss));
        let (_, t2) = tr
            .translate(Requester::Marker, base + 8, t1, &mut mem, &phys)
            .unwrap();
        assert_eq!(t2, t1, "L1 hit adds no latency");
        assert_eq!(tr.last_walk(), None);
        assert_eq!(tr.stats().walks, 1);
        assert_eq!(tr.stats().l1_hits, 1);
    }

    #[test]
    fn l2_serves_cross_requester_sharing() {
        let (phys, aspace, mut mem, base) = setup(1);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        tr.translate(Requester::Marker, base, 0, &mut mem, &phys)
            .unwrap();
        let (_, t) = tr
            .translate(Requester::Tracer, base, 1000, &mut mem, &phys)
            .unwrap();
        assert_eq!(t, 1000 + tr.config().l2_hit_latency);
        assert_eq!(tr.stats().walks, 1);
        assert_eq!(tr.stats().l2_hits, 1);
    }

    #[test]
    fn blocking_walker_serializes_misses() {
        let (phys, aspace, mut mem, base) = setup(64);
        let blocking = TlbConfig::default();
        let mut tr = Translator::new(aspace, blocking);
        // Two misses presented at the same cycle: second waits.
        let (_, t0) = tr
            .translate(Requester::Marker, base, 0, &mut mem, &phys)
            .unwrap();
        let (_, t1) = tr
            .translate(Requester::Tracer, base + PAGE_SIZE, 0, &mut mem, &phys)
            .unwrap();
        assert!(t1 >= t0, "second walk must wait for the first");
        assert!(tr.stats().walker_wait_cycles > 0);
        assert_eq!(tr.last_walk(), Some(StallReason::PtwBusy));
    }

    #[test]
    fn nonblocking_walker_overlaps_misses() {
        let (phys, aspace, mut mem, base) = setup(64);
        let cfg = TlbConfig {
            concurrent_walks: 4,
            ..TlbConfig::default()
        };
        let mut tr = Translator::new(aspace, cfg);
        let (_, t0) = tr
            .translate(Requester::Marker, base, 0, &mut mem, &phys)
            .unwrap();
        let (_, t1) = tr
            .translate(Requester::Tracer, base + PAGE_SIZE, 0, &mut mem, &phys)
            .unwrap();
        // With PTW-cache hits on the upper levels, the second walk's
        // completion should be well before a fully serialized walk.
        assert!(t1 < t0 * 2, "walks should overlap: {t0} {t1}");
        assert_eq!(tr.stats().walker_wait_cycles, 0);
        assert_eq!(tr.last_walk(), Some(StallReason::TlbMiss));
    }

    #[test]
    fn fault_on_unmapped() {
        let (phys, aspace, mut mem, _) = setup(1);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        let err = tr
            .translate(Requester::Marker, 0xdead_0000, 0, &mut mem, &phys)
            .unwrap_err();
        assert_eq!(err.va, 0xdead_0000);
    }

    #[test]
    fn flush_forces_rewalk() {
        let (phys, aspace, mut mem, base) = setup(1);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        tr.translate(Requester::Marker, base, 0, &mut mem, &phys)
            .unwrap();
        tr.flush();
        tr.translate(Requester::Marker, base, 100, &mut mem, &phys)
            .unwrap();
        assert_eq!(tr.stats().walks, 2);
    }

    #[test]
    fn injected_pte_fault_surfaces_as_page_fault() {
        use tracegc_sim::fault::{FaultConfig, FaultPlan, FaultSite};
        let (phys, aspace, mut mem, base) = setup(4);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        tr.set_fault_injector(
            FaultPlan::new(FaultConfig {
                pte_fault_rate: 1.0,
                ..FaultConfig::default()
            })
            .injector(FaultSite::Ptw),
        );
        let err = tr
            .translate(Requester::Marker, base, 0, &mut mem, &phys)
            .unwrap_err();
        assert_eq!(err.va, base);
        assert_eq!(tr.fault_stats().unwrap().pte_faults, 1);
        // The faulting translation is not cached: nothing was installed.
        let err2 = tr
            .translate(Requester::Marker, base, 100, &mut mem, &phys)
            .unwrap_err();
        assert_eq!(err2.va, base);
    }

    #[test]
    fn zero_rate_injector_leaves_translation_timing_unchanged() {
        use tracegc_sim::fault::{FaultConfig, FaultPlan, FaultSite};
        let (phys_a, aspace_a, mut mem_a, base) = setup(16);
        let (phys_b, aspace_b, mut mem_b, _) = setup(16);
        let mut clean = Translator::new(aspace_a, TlbConfig::default());
        let mut faulted = Translator::new(aspace_b, TlbConfig::default());
        faulted.set_fault_injector(
            FaultPlan::new(FaultConfig::zero_rates(1)).injector(FaultSite::Ptw),
        );
        for i in 0..16 {
            let va = base + i * PAGE_SIZE;
            let a = clean
                .translate(Requester::Tracer, va, i * 3, &mut mem_a, &phys_a)
                .unwrap();
            let b = faulted
                .translate(Requester::Tracer, va, i * 3, &mut mem_b, &phys_b)
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(faulted.fault_stats().unwrap().pte_faults, 0);
    }

    #[test]
    fn ptw_cache_absorbs_upper_levels() {
        let (phys, aspace, mut mem, base) = setup(64);
        let mut tr = Translator::new(aspace, TlbConfig::default());
        let mut t = 0;
        for i in 0..64 {
            let (_, done) = tr
                .translate(Requester::Marker, base + i * PAGE_SIZE, t, &mut mem, &phys)
                .unwrap();
            t = done;
        }
        // 64 walks * 3 levels = 192 PTE reads, but the root/interior PTEs
        // are cached: far fewer than 192 memory requests.
        let ptw_fills = mem.stats().requests(Source::Ptw);
        assert!(ptw_fills < 64, "PTW cache ineffective: {ptw_fills} fills");
    }
}
