//! Differential walls for the flat structures: the cache's flat tag
//! arrays against the `Vec`-per-set cache they replaced, and the page
//! view against word reads.
//!
//! `cargo test` runs a trimmed seed pool; release builds run the full
//! pool (`cargo test --release -p tracegc-mem`).

use std::collections::BTreeSet;

use tracegc_sim::rng::{Rng, StdRng};
use tracegc_sim::Cycle;

use crate::cache::{reference, Backing, Cache, CacheConfig, CacheStats, MemBacking, LINE_BYTES};
use crate::ddr3::Ddr3Config;
use crate::phys::{PhysMem, CHUNK_BYTES, PAGE_WORDS};
use crate::req::Source;
use crate::system::MemSystem;

/// Seeded access streams per cache configuration.
const SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 48 };
/// Accesses per stream.
const ACCESSES: usize = if cfg!(debug_assertions) {
    2_000
} else {
    20_000
};

/// The flat cache and its reference behind one interface.
trait Model: Sized {
    fn build(cfg: CacheConfig) -> Self;
    fn access(
        &mut self,
        addr: u64,
        write: bool,
        now: Cycle,
        source: Source,
        backing: &mut dyn Backing,
    ) -> Cycle;
    fn stats(&self) -> &CacheStats;
    fn invalidate_all(&mut self);
}

impl Model for Cache {
    fn build(cfg: CacheConfig) -> Self {
        Cache::new(cfg)
    }
    fn access(
        &mut self,
        addr: u64,
        write: bool,
        now: Cycle,
        source: Source,
        backing: &mut dyn Backing,
    ) -> Cycle {
        Cache::access(self, addr, write, now, source, backing)
    }
    fn stats(&self) -> &CacheStats {
        Cache::stats(self)
    }
    fn invalidate_all(&mut self) {
        Cache::invalidate_all(self)
    }
}

impl Model for reference::Cache {
    fn build(cfg: CacheConfig) -> Self {
        reference::Cache::new(cfg)
    }
    fn access(
        &mut self,
        addr: u64,
        write: bool,
        now: Cycle,
        source: Source,
        backing: &mut dyn Backing,
    ) -> Cycle {
        reference::Cache::access(self, addr, write, now, source, backing)
    }
    fn stats(&self) -> &CacheStats {
        reference::Cache::stats(self)
    }
    fn invalidate_all(&mut self) {
        reference::Cache::invalidate_all(self)
    }
}

/// A request that reached the level below a cache: `(level it left,
/// write-back, line, cycle)`, level 1 for the L1's, 2 for the L2's.
type Event = (u8, bool, u64, Cycle);

/// A cache, or an L1 over an L2 (as `L2Backing` composes them), over a
/// DDR3 model, logging every fill and write-back in order.
struct Hierarchy<C> {
    l1: C,
    l2: Option<C>,
    mem: MemSystem,
    log: Vec<Event>,
}

impl<C: Model> Hierarchy<C> {
    fn new(l1: CacheConfig, l2: Option<CacheConfig>) -> Self {
        Self {
            l1: C::build(l1),
            l2: l2.map(C::build),
            mem: MemSystem::ddr3(Ddr3Config::default()),
            log: Vec::new(),
        }
    }

    fn access(&mut self, addr: u64, write: bool, now: Cycle, source: Source) -> Cycle {
        let mut below = Below {
            level: 1,
            l2: self.l2.as_mut(),
            mem: &mut self.mem,
            log: &mut self.log,
        };
        self.l1.access(addr, write, now, source, &mut below)
    }
}

/// The level below a cache: the L2 when there is one, else DRAM.
struct Below<'a, C> {
    level: u8,
    l2: Option<&'a mut C>,
    mem: &'a mut MemSystem,
    log: &'a mut Vec<Event>,
}

impl<C: Model> Below<'_, C> {
    fn dram(&mut self) -> MemBacking<'_> {
        MemBacking {
            mem: self.mem,
            source: Source::Cpu,
        }
    }

    /// Sends a fill or a write-back on: through the L2 (a write-back
    /// allocates there) or straight to DRAM.
    fn send(&mut self, line_addr: u64, write: bool, at: Cycle) -> Cycle {
        self.log.push((self.level, write, line_addr, at));
        match self.l2.take() {
            Some(l2) => {
                let mut dram = Below::<C> {
                    level: 2,
                    l2: None,
                    mem: self.mem,
                    log: self.log,
                };
                let done = l2.access(line_addr, write, at, Source::Cpu, &mut dram);
                self.l2 = Some(l2);
                done
            }
            None if write => {
                self.dram().writeback(line_addr, at);
                at
            }
            None => self.dram().fill(line_addr, at),
        }
    }
}

impl<C: Model> Backing for Below<'_, C> {
    fn fill(&mut self, line_addr: u64, at: Cycle) -> Cycle {
        self.send(line_addr, false, at)
    }

    fn writeback(&mut self, line_addr: u64, at: Cycle) {
        self.send(line_addr, true, at);
    }
}

/// One step of a seeded access stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// An access issued `gap` cycles after the previous one, or when its
    /// data arrived if `dependent`.
    Access {
        addr: u64,
        write: bool,
        source: Source,
        gap: Cycle,
        dependent: bool,
    },
    Invalidate,
}

/// A seeded stream in phases of 16 accesses: a hot set, a working set
/// four times the cache, lines that all map to one set, bursts of
/// same-cycle misses to that set (so fills are evicted while in flight
/// and the MSHR file fills up), and strided runs.
fn stream(seed: u64, cfg: &CacheConfig) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets = cfg.size_bytes / LINE_BYTES / cfg.ways as u64;
    let ways = cfg.ways as u64;
    let base = rng.random_range(0..1u64 << 20) * LINE_BYTES;
    let mut stride_at = base;
    let mut ops = Vec::with_capacity(ACCESSES);
    while ops.len() < ACCESSES {
        if rng.random_range(0..64u32) == 0 {
            ops.push(Op::Invalidate);
        }
        let phase = rng.random_range(0..5u32);
        for _ in 0..16 {
            let addr = match phase {
                0 => base + rng.random_range(0..16u64) * LINE_BYTES,
                1 => base + rng.random_range(0..4 * cfg.size_bytes / 8) * 8,
                2 => base + rng.random_range(0..3 * ways) * sets * LINE_BYTES,
                3 => base + rng.random_range(0..ways + 2) * sets * LINE_BYTES,
                _ => {
                    stride_at += rng.random_range(1..4u64) * 8;
                    stride_at
                }
            };
            let burst = phase == 3 || rng.random_range(0..8u32) == 0;
            ops.push(Op::Access {
                addr,
                write: rng.random_range(0..10u32) < 3,
                source: Source::ALL[rng.random_range(0..Source::ALL.len())],
                gap: if burst { 0 } else { rng.random_range(0..12) },
                dependent: !burst && rng.random_range(0..3u32) == 0,
            });
        }
    }
    ops
}

/// What one stream did to a hierarchy.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// The cycle each access returned.
    cycles: Vec<Cycle>,
    log: Vec<Event>,
    l1: CacheStats,
    l2: Option<CacheStats>,
    /// L1 misses that joined a fill in flight: no request left the L1.
    secondary_misses: u64,
}

/// Runs `ops` on a fresh hierarchy.
fn run<C: Model>(ops: &[Op], l1: CacheConfig, l2: Option<CacheConfig>) -> Outcome {
    let hit_latency = l1.hit_latency;
    let mut h = Hierarchy::<C>::new(l1, l2);
    let mut now = 0;
    let mut cycles = Vec::with_capacity(ops.len());
    let mut secondary_misses = 0;
    for &op in ops {
        match op {
            Op::Access {
                addr,
                write,
                source,
                gap,
                dependent,
            } => {
                now += gap;
                let sent = h.log.len();
                let done = h.access(addr, write, now, source);
                secondary_misses += u64::from(h.log.len() == sent && done != now + hit_latency);
                if dependent {
                    now = now.max(done);
                }
                cycles.push(done);
            }
            Op::Invalidate => h.l1.invalidate_all(),
        }
    }
    Outcome {
        cycles,
        l1: h.l1.stats().clone(),
        l2: h.l2.as_ref().map(|c| c.stats().clone()),
        log: h.log,
        secondary_misses,
    }
}

/// Every returned cycle, every fill and write-back in order, and the
/// statistics of the flat cache equal the reference's: on each of the
/// four configurations alone and on the Rocket L1 over its L2.
#[test]
fn flat_caches_match_the_nested_reference() {
    let rocket = (CacheConfig::rocket_l1d(), Some(CacheConfig::rocket_l2()));
    let setups = [
        ("rocket_l1d", (CacheConfig::rocket_l1d(), None)),
        ("rocket_l2", (CacheConfig::rocket_l2(), None)),
        ("hwgc_shared", (CacheConfig::hwgc_shared(), None)),
        ("ptw_cache", (CacheConfig::ptw_cache(), None)),
        ("rocket_l1d over rocket_l2", rocket),
    ];
    let (mut writebacks, mut secondary_misses) = (0, 0);
    for (name, (l1, l2)) in setups {
        for seed in 0..SEEDS {
            let ops = stream(0xCAC4_E000 + seed, &l1);
            let flat = run::<Cache>(&ops, l1, l2);
            let nested = run::<reference::Cache>(&ops, l1, l2);
            let at = |what: &str| format!("{name}, seed {seed}: {what}");
            let diverged = flat
                .cycles
                .iter()
                .zip(&nested.cycles)
                .position(|(a, b)| a != b);
            if let Some(i) = diverged {
                panic!("{}", at(&format!("access {i} returned a different cycle")));
            }
            assert_eq!(flat.log, nested.log, "{}", at("fills and write-backs"));
            assert_eq!(flat.l1, nested.l1, "{}", at("L1 stats"));
            assert_eq!(flat.l2, nested.l2, "{}", at("L2 stats"));
            assert_eq!(flat, nested, "{}", at("outcome"));
            writebacks += flat.l1.writebacks;
            secondary_misses += flat.secondary_misses;
        }
    }
    assert!(
        writebacks > 0 && secondary_misses > 0,
        "{writebacks} dirty evictions, {secondary_misses} secondary misses"
    );
}

/// A page view is `None` exactly when no nonzero word ever reached its
/// chunk, and otherwise holds the words `read_u64` reads; taking views
/// allocates nothing.
#[test]
fn page_views_match_word_reads() {
    const SIZE: u64 = CHUNK_BYTES * 8;
    const PAGE: u64 = PAGE_WORDS as u64 * 8;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x9A6E_0000 + seed);
        let mut mem = PhysMem::new(SIZE);
        let mut touched = BTreeSet::new();
        for _ in 0..rng.random_range(1..400usize) {
            let addr = rng.random_range(0..SIZE / 8) * 8;
            if rng.random_range(0..4u32) == 0 {
                let len = rng.random_range(1..PAGE / 8 * 3).min((SIZE - addr) / 8) * 8;
                mem.zero_range(addr, len);
            } else {
                let value = if rng.random::<bool>() {
                    0
                } else {
                    rng.random()
                };
                mem.write_u64(addr, value);
                if value != 0 {
                    touched.insert(addr / CHUNK_BYTES);
                }
            }
        }
        let chunks = mem.allocated_chunks();
        for page in (0..SIZE).step_by(PAGE as usize) {
            let view = mem.page(page);
            assert_eq!(
                view.is_some(),
                touched.contains(&(page / CHUNK_BYTES)),
                "seed {seed}: page {page:#x}"
            );
            for (i, &word) in view.unwrap_or(&[0; PAGE_WORDS]).iter().enumerate() {
                let addr = page + i as u64 * 8;
                assert_eq!(word, mem.read_u64(addr), "seed {seed}: {addr:#x}");
            }
        }
        assert_eq!(mem.allocated_chunks(), chunks, "seed {seed}");
    }
}
