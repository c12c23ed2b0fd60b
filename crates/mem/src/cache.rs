//! Set-associative write-back caches with MSHRs.
//!
//! Used in three places, mirroring the paper:
//! * the Rocket CPU's 16 KiB L1 D-cache and 256 KiB L2 (Table I),
//! * the traversal unit's 16 KiB *shared* cache in the unpartitioned
//!   configuration of Fig. 18a (where PTW traffic drowns out everyone
//!   else): the translator's walker cache, which [`issue`] also sends
//!   every unit request through, and
//! * the 8 KiB PTW cache holding the top page-table levels (§V-C).
//!
//! The model is timestamp-passing: an access consults the tag array
//! immediately, and misses are charged the fill latency returned by the
//! next level. The MSHR file bounds the number of outstanding fills — the
//! very limit (§IV-A: "a typical L1 cache design has 32 MSHRs") that
//! motivates the accelerator's custom marker.

use tracegc_sim::Cycle;

use crate::req::{AccessKind, MemReq, Source};
use crate::system::MemSystem;

/// The fixed cache-line size used throughout the SoC.
pub const LINE_BYTES: u64 = 64;

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Latency of a hit, in cycles.
    pub hit_latency: Cycle,
    /// Number of miss-status holding registers (outstanding fills).
    pub mshrs: usize,
}

impl CacheConfig {
    /// The Rocket L1 D-cache of Table I: 16 KiB, 4-way, 2-cycle hits.
    pub fn rocket_l1d() -> Self {
        Self {
            size_bytes: 16 * 1024,
            ways: 4,
            hit_latency: 2,
            mshrs: 2,
        }
    }

    /// The Rocket L2 of Table I: 256 KiB, 8-way.
    pub fn rocket_l2() -> Self {
        Self {
            size_bytes: 256 * 1024,
            ways: 8,
            hit_latency: 14,
            mshrs: 8,
        }
    }

    /// The traversal unit's shared 16 KiB cache (pre-partitioning, §V-C).
    pub fn hwgc_shared() -> Self {
        Self {
            size_bytes: 16 * 1024,
            ways: 4,
            hit_latency: 2,
            mshrs: 8,
        }
    }

    /// The PTW's dedicated 8 KiB cache (§V-C: "backed by an 8KB cache, to
    /// hold the top levels of the page table").
    pub fn ptw_cache() -> Self {
        Self {
            size_bytes: 8 * 1024,
            ways: 4,
            hit_latency: 1,
            mshrs: 1,
        }
    }
}

/// Per-cache statistics, split by requesting [`Source`] for Fig. 18a.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Hits per source.
    pub hits_by_source: [u64; Source::ALL.len()],
    /// Misses per source.
    pub misses_by_source: [u64; Source::ALL.len()],
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits_by_source.iter().sum()
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses_by_source.iter().sum()
    }

    /// Total accesses (requests reaching the cache) per source — the
    /// quantity plotted in Fig. 18a.
    pub fn accesses(&self, source: Source) -> u64 {
        self.hits_by_source[source.index()] + self.misses_by_source[source.index()]
    }
}

/// A level below a cache that can fill lines and absorb write-backs.
pub trait Backing {
    /// Requests the 64-byte line at `line_addr`, presented at `at`;
    /// returns the cycle the line data is available.
    fn fill(&mut self, line_addr: u64, at: Cycle) -> Cycle;

    /// Writes back the dirty 64-byte line at `line_addr`. Write-backs are
    /// posted (they do not delay the triggering access).
    fn writeback(&mut self, line_addr: u64, at: Cycle);
}

/// Adapts a [`MemSystem`] as the backing store of the last-level cache,
/// tagging its traffic with a fixed [`Source`].
#[derive(Debug)]
pub struct MemBacking<'a> {
    /// The memory controller.
    pub mem: &'a mut MemSystem,
    /// Source label applied to fills and write-backs.
    pub source: Source,
}

impl Backing for MemBacking<'_> {
    fn fill(&mut self, line_addr: u64, at: Cycle) -> Cycle {
        self.mem
            .schedule(&MemReq::read(line_addr, LINE_BYTES as u32, self.source), at)
    }

    fn writeback(&mut self, line_addr: u64, at: Cycle) {
        self.mem.schedule(
            &MemReq::write(line_addr, LINE_BYTES as u32, self.source),
            at,
        );
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line_addr: u64,
    completion: Cycle,
}

/// A set-associative, write-allocate, write-back cache with a bounded
/// MSHR file.
///
/// # Examples
///
/// ```
/// use tracegc_mem::{Cache, CacheConfig, MemSystem, Source};
/// use tracegc_mem::cache::MemBacking;
///
/// let mut mem = MemSystem::pipe(Default::default());
/// let mut l1 = Cache::new(CacheConfig::rocket_l1d());
/// let mut backing = MemBacking { mem: &mut mem, source: Source::Cpu };
/// let miss = l1.access(0x80, false, 0, Source::Cpu, &mut backing);
/// let hit = l1.access(0x80, false, miss, Source::Cpu, &mut backing);
/// assert!(hit - miss < miss);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    num_sets: u64,
    mshrs: Vec<Mshr>,
    use_counter: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/MSHRs, capacity not
    /// a multiple of `ways * 64`, or a non-power-of-two set count).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.mshrs > 0, "cache must have at least one MSHR");
        let line_capacity = cfg.size_bytes / LINE_BYTES;
        assert!(
            line_capacity.is_multiple_of(cfg.ways as u64),
            "capacity must divide evenly into ways"
        );
        let num_sets = line_capacity / cfg.ways as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            sets: vec![vec![Line::default(); cfg.ways]; num_sets as usize],
            num_sets,
            cfg,
            mshrs: Vec::new(),
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / LINE_BYTES) & (self.num_sets - 1)) as usize
    }

    fn prune_mshrs(&mut self, now: Cycle) {
        self.mshrs.retain(|m| m.completion > now);
    }

    /// Performs an access at `now`; returns the cycle the data is
    /// available to the requester. Misses are filled from `backing`.
    pub fn access(
        &mut self,
        addr: u64,
        write: bool,
        now: Cycle,
        source: Source,
        backing: &mut dyn Backing,
    ) -> Cycle {
        let line_addr = addr & !(LINE_BYTES - 1);
        let set_idx = self.set_index(line_addr);
        self.use_counter += 1;
        let stamp = self.use_counter;

        // Hit path.
        if let Some(way) = self.sets[set_idx]
            .iter()
            .position(|l| l.valid && l.tag == line_addr)
        {
            let line = &mut self.sets[set_idx][way];
            line.last_use = stamp;
            line.dirty |= write;
            self.stats.hits_by_source[source.index()] += 1;
            return now + self.cfg.hit_latency;
        }

        self.stats.misses_by_source[source.index()] += 1;
        self.prune_mshrs(now);

        // Secondary miss: a fill for this line is already in flight.
        if let Some(m) = self.mshrs.iter().find(|m| m.line_addr == line_addr) {
            let ready = m.completion.max(now) + self.cfg.hit_latency;
            // The line will be installed by the primary miss; just record
            // the write intent.
            if write {
                if let Some(way) = self.sets[set_idx]
                    .iter()
                    .position(|l| l.valid && l.tag == line_addr)
                {
                    self.sets[set_idx][way].dirty = true;
                }
            }
            return ready;
        }

        // Structural stall: all MSHRs busy.
        let mut now = now;
        if self.mshrs.len() >= self.cfg.mshrs {
            let earliest = self
                .mshrs
                .iter()
                .map(|m| m.completion)
                .min()
                .expect("mshr file non-empty");
            now = now.max(earliest);
            self.prune_mshrs(now);
        }

        // Victim selection: invalid way first, else LRU.
        let set = &mut self.sets[set_idx];
        let way = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("non-empty set")
        });
        if set[way].valid && set[way].dirty {
            let victim = set[way].tag;
            self.stats.writebacks += 1;
            backing.writeback(victim, now);
        }

        let fill_done = backing.fill(line_addr, now);
        let set = &mut self.sets[set_idx];
        set[way] = Line {
            tag: line_addr,
            valid: true,
            dirty: write,
            last_use: stamp,
        };
        self.mshrs.push(Mshr {
            line_addr,
            completion: fill_done,
        });
        fill_done + self.cfg.hit_latency
    }

    /// Invalidates every line without writing anything back. Used between
    /// independent experiment runs.
    pub fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
        self.mshrs.clear();
    }
}

/// Issues `req` at `at` and returns the cycle its response is ready:
/// through `cache` when one is given (a write or AMO dirties the line,
/// misses fill from `mem` under `req.source`), straight to `mem`
/// otherwise. The page-table walker, the traversal unit and its spill
/// engine issue every request here, so the unit's cache topology
/// (Fig. 18a) is only whether a cache is passed.
pub fn issue(mem: &mut MemSystem, cache: Option<&mut Cache>, req: &MemReq, at: Cycle) -> Cycle {
    match cache {
        Some(cache) => {
            let write = req.kind != AccessKind::Read;
            let mut backing = MemBacking {
                mem,
                source: req.source,
            };
            cache.access(req.addr, write, at, req.source, &mut backing)
        }
        None => mem.schedule(req, at),
    }
}

/// A two-level hierarchy adapter: presents an L2 cache backed by memory as
/// the [`Backing`] of an L1 cache.
#[derive(Debug)]
pub struct L2Backing<'a> {
    /// The second-level cache.
    pub l2: &'a mut Cache,
    /// The memory controller behind the L2.
    pub mem: &'a mut MemSystem,
    /// Source label for L2 fill/write-back traffic.
    pub source: Source,
}

impl Backing for L2Backing<'_> {
    fn fill(&mut self, line_addr: u64, at: Cycle) -> Cycle {
        let mut backing = MemBacking {
            mem: self.mem,
            source: self.source,
        };
        self.l2
            .access(line_addr, false, at, self.source, &mut backing)
    }

    fn writeback(&mut self, line_addr: u64, at: Cycle) {
        let mut backing = MemBacking {
            mem: self.mem,
            source: self.source,
        };
        // Write-back allocates in L2 (write-allocate policy).
        self.l2
            .access(line_addr, true, at, self.source, &mut backing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::PipeConfig;

    fn harness() -> (MemSystem, Cache) {
        (
            MemSystem::pipe(PipeConfig::default()),
            Cache::new(CacheConfig::rocket_l1d()),
        )
    }

    #[test]
    fn second_access_hits() {
        let (mut mem, mut c) = harness();
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        let t1 = c.access(0x1000, false, 0, Source::Cpu, &mut b);
        let t2 = c.access(0x1008, false, t1, Source::Cpu, &mut b); // same line
        assert_eq!(t2 - t1, c.config().hit_latency);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn miss_latency_exceeds_hit_latency() {
        let (mut mem, mut c) = harness();
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        let miss = c.access(0, false, 0, Source::Cpu, &mut b);
        assert!(miss > c.config().hit_latency);
    }

    #[test]
    fn dirty_victim_is_written_back() {
        let cfg = CacheConfig {
            size_bytes: 2 * 64, // 2 lines
            ways: 1,            // direct-mapped, 2 sets
            hit_latency: 1,
            mshrs: 4,
        };
        let mut c = Cache::new(cfg);
        let mut mem = MemSystem::pipe(PipeConfig::default());
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        // Write line 0, then read a conflicting line (same set).
        c.access(0, true, 0, Source::Cpu, &mut b);
        c.access(128, false, 100, Source::Cpu, &mut b);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn mshr_limit_stalls() {
        let cfg = CacheConfig {
            size_bytes: 64 * 64,
            ways: 4,
            hit_latency: 1,
            mshrs: 1,
        };
        let mut c = Cache::new(cfg);
        let mut mem = MemSystem::pipe(PipeConfig {
            latency: 100,
            bytes_per_cycle: 64,
        });
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        let d0 = c.access(0, false, 0, Source::Cpu, &mut b);
        // Second miss to a different line at the same time must wait for
        // the single MSHR.
        let d1 = c.access(4096, false, 0, Source::Cpu, &mut b);
        assert!(d1 >= d0);
    }

    #[test]
    fn secondary_miss_shares_fill() {
        let (mut mem, mut c) = harness();
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        let d0 = c.access(0x40, false, 0, Source::Cpu, &mut b);
        // Another access to the same line before the fill completes.
        let d1 = c.access(0x48, false, 1, Source::Cpu, &mut b);
        assert!(d1 <= d0 + c.config().hit_latency);
        // Only one fill went to memory.
        assert_eq!(mem.stats().total_requests, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cfg = CacheConfig {
            size_bytes: 2 * 64,
            ways: 2, // one set, two ways
            hit_latency: 1,
            mshrs: 4,
        };
        let mut c = Cache::new(cfg);
        let mut mem = MemSystem::pipe(PipeConfig::default());
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        c.access(0, false, 0, Source::Cpu, &mut b); // A
        c.access(64, false, 10, Source::Cpu, &mut b); // B
        c.access(0, false, 20, Source::Cpu, &mut b); // touch A
        c.access(128, false, 30, Source::Cpu, &mut b); // C evicts B
        let hits_before = c.stats().hits();
        c.access(0, false, 40, Source::Cpu, &mut b); // A still resident
        assert_eq!(c.stats().hits(), hits_before + 1);
    }

    #[test]
    fn per_source_accounting_for_fig18a() {
        let (mut mem, mut c) = harness();
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        c.access(0, false, 0, Source::Ptw, &mut b);
        c.access(0, false, 10, Source::Ptw, &mut b);
        c.access(4096, false, 20, Source::Marker, &mut b);
        assert_eq!(c.stats().accesses(Source::Ptw), 2);
        assert_eq!(c.stats().accesses(Source::Marker), 1);
    }

    #[test]
    fn two_level_hierarchy_l2_absorbs_l1_misses() {
        let mut l1 = Cache::new(CacheConfig::rocket_l1d());
        let mut l2 = Cache::new(CacheConfig::rocket_l2());
        let mut mem = MemSystem::pipe(PipeConfig::default());
        // First access: misses both levels, one DRAM fill.
        {
            let mut b = L2Backing {
                l2: &mut l2,
                mem: &mut mem,
                source: Source::Cpu,
            };
            l1.access(0x2000, false, 0, Source::Cpu, &mut b);
        }
        // Evict from L1 by filling its set, then re-access: should hit L2.
        l1.invalidate_all();
        let before = mem.stats().total_requests;
        {
            let mut b = L2Backing {
                l2: &mut l2,
                mem: &mut mem,
                source: Source::Cpu,
            };
            l1.access(0x2000, false, 1000, Source::Cpu, &mut b);
        }
        assert_eq!(
            mem.stats().total_requests,
            before,
            "L2 should absorb the fill"
        );
    }

    #[test]
    fn invalidate_all_clears_contents() {
        let (mut mem, mut c) = harness();
        let mut b = MemBacking {
            mem: &mut mem,
            source: Source::Cpu,
        };
        c.access(0, false, 0, Source::Cpu, &mut b);
        c.invalidate_all();
        c.access(0, false, 100, Source::Cpu, &mut b);
        assert_eq!(c.stats().misses(), 2);
    }
}
