//! Property-based tests for the memory system: TileLink decomposition,
//! DDR3 timing sanity and cache coherence of the timestamp model.
//! Each property runs ~100 randomized cases from fixed seeds.

use tracegc_mem::cache::{Backing, MemBacking};
use tracegc_mem::ddr3::{Ddr3Config, Ddr3Model};
use tracegc_mem::pipe::{PipeConfig, PipeModel};
use tracegc_mem::req::decompose_aligned;
use tracegc_mem::{Cache, CacheConfig, MemReq, MemSystem, Source};
use tracegc_sim::rng::{Rng, StdRng};

const CASES: u64 = 100;

fn case_rng(property: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x3E30_0000 + property * 10_007 + case)
}

#[test]
fn decomposition_covers_exactly_and_legally() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let start = rng.random_range(0u64..1 << 30) & !7;
        let words = rng.random_range(1u64..64);
        let len = words * 8;
        let chunks = decompose_aligned(start, len);
        // Contiguous, covering, non-overlapping.
        let mut cursor = start;
        for (addr, bytes) in &chunks {
            assert_eq!(*addr, cursor, "case {case}");
            cursor += *bytes as u64;
            // TileLink legality.
            let req = MemReq::read(*addr, *bytes, Source::Tracer);
            assert!(
                req.is_aligned(),
                "case {case}: illegal chunk {addr:#x}+{bytes}"
            );
        }
        assert_eq!(cursor, start + len, "case {case}");
    }
}

#[test]
fn ddr3_completion_always_after_presentation() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let mut model = Ddr3Model::new(Ddr3Config::default());
        let mut now = 0;
        for _ in 0..rng.random_range(1usize..64) {
            let addr = rng.random_range(0u64..1 << 26) & !63;
            now += rng.random_range(0u64..50);
            let done = model.schedule(&MemReq::read(addr, 64, Source::Cpu), now);
            assert!(
                done > now,
                "case {case}: completion {done} <= presentation {now}"
            );
        }
    }
}

#[test]
fn ddr3_single_stream_completions_are_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        // One agent issuing strictly after each completion must observe
        // monotone completions.
        let mut model = Ddr3Model::new(Ddr3Config::default());
        let mut now = 0;
        let mut last_done = 0;
        for _ in 0..rng.random_range(2usize..64) {
            let addr = rng.random_range(0u64..1 << 26) & !63;
            let done = model.schedule(&MemReq::read(addr, 64, Source::Cpu), now);
            assert!(done >= last_done, "case {case}");
            last_done = done;
            now = done;
        }
    }
}

#[test]
fn ddr3_bandwidth_never_exceeds_the_bus() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = rng.random_range(16usize..128);
        let mut model = Ddr3Model::new(Ddr3Config::default());
        let mut last = 0u64;
        for _ in 0..n {
            let addr = rng.random_range(0u64..1 << 26) & !63;
            last = last.max(model.schedule(&MemReq::read(addr, 64, Source::Cpu), 0));
        }
        // 16 bytes per cycle is the physical DDR3-2000 limit.
        let bytes = n as u64 * 64;
        assert!(
            bytes <= last * 16,
            "case {case}: {bytes} bytes in {last} cycles"
        );
    }
}

#[test]
fn pipe_respects_configured_bandwidth() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let sizes: Vec<u32> = (0..rng.random_range(8usize..64))
            .map(|_| [8u32, 16, 32, 64][rng.random_range(0usize..4)])
            .collect();
        let mut pipe = PipeModel::new(PipeConfig::default());
        let mut last = 0;
        for (i, &s) in sizes.iter().enumerate() {
            last = pipe.schedule(&MemReq::read(i as u64 * 64, s, Source::Tracer), 0);
        }
        let bytes: u64 = sizes.iter().map(|&s| s as u64).sum();
        assert!(
            bytes <= last * 8,
            "case {case}: {bytes} bytes by cycle {last} exceeds 8 B/cyc"
        );
    }
}

#[test]
fn cache_hits_after_fill_and_never_loses_data() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let mut cache = Cache::new(CacheConfig::rocket_l1d());
        let mut mem = MemSystem::pipe(PipeConfig::default());
        let mut now = 0;
        for _ in 0..rng.random_range(1usize..64) {
            let addr = rng.random_range(0u64..1 << 16) & !7;
            let mut backing = MemBacking {
                mem: &mut mem,
                source: Source::Cpu,
            };
            now = cache.access(addr, false, now, Source::Cpu, &mut backing);
            // Immediate re-access is a hit costing exactly hit latency.
            let mut backing = MemBacking {
                mem: &mut mem,
                source: Source::Cpu,
            };
            let again = cache.access(addr, false, now, Source::Cpu, &mut backing);
            assert_eq!(again, now + cache.config().hit_latency, "case {case}");
            now = again;
        }
    }
}

#[test]
fn cache_timing_is_monotone_for_one_agent() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let mut cache = Cache::new(CacheConfig::rocket_l1d());
        let mut mem = MemSystem::ddr3(Ddr3Config::default());
        let mut now = 0;
        for _ in 0..rng.random_range(2usize..96) {
            let addr = rng.random_range(0u64..1 << 20) & !7;
            let write = rng.random::<bool>();
            let mut backing = MemBacking {
                mem: &mut mem,
                source: Source::Cpu,
            };
            let done = cache.access(addr, write, now, Source::Cpu, &mut backing);
            assert!(done >= now, "case {case}");
            now = done;
        }
    }
}

#[test]
fn writeback_preserves_stats_consistency() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        // Tiny cache to force evictions.
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            hit_latency: 1,
            mshrs: 4,
        });
        let mut mem = MemSystem::pipe(PipeConfig::default());
        let mut now = 0;
        let n = rng.random_range(8usize..128);
        for _ in 0..n {
            let addr = rng.random_range(0u64..1 << 14) & !7;
            let mut backing = MemBacking {
                mem: &mut mem,
                source: Source::Cpu,
            };
            now = cache.access(addr, true, now, Source::Cpu, &mut backing);
        }
        let s = cache.stats();
        assert_eq!(s.hits() + s.misses(), n as u64, "case {case}");
        assert!(s.writebacks <= s.misses(), "case {case}");
    }
}

/// A backing that records fills, for structural checks.
#[derive(Default)]
struct CountingBacking {
    fills: u64,
}

impl Backing for CountingBacking {
    fn fill(&mut self, _line: u64, at: u64) -> u64 {
        self.fills += 1;
        at + 10
    }
    fn writeback(&mut self, _line: u64, _at: u64) {}
}

#[test]
fn at_most_one_fill_per_distinct_line() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        // A cache big enough to never evict: each distinct line fills
        // exactly once no matter the access pattern.
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 64 * 64,
            ways: 4,
            hit_latency: 1,
            mshrs: 8,
        });
        let mut backing = CountingBacking::default();
        let mut now = 0;
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..rng.random_range(1usize..64) {
            let line = rng.random_range(0u64..32);
            distinct.insert(line);
            now = cache.access(line * 64, false, now, Source::Cpu, &mut backing);
        }
        assert_eq!(backing.fills, distinct.len() as u64, "case {case}");
    }
}

// --- Sparse PhysMem vs a flat model ------------------------------------
//
// The sparse chunked backing must be observationally identical to a flat
// Vec<u64>: same words on every read, same panics on every out-of-range
// access, while allocating storage only for chunks actually written with
// nonzero data.

use tracegc_mem::phys::CHUNK_BYTES;
use tracegc_mem::PhysMem;

/// The flat reference: one `u64` per word of the address space.
struct Flat(Vec<u64>);

impl Flat {
    fn new(bytes: u64) -> Self {
        Self(vec![0; (bytes / 8) as usize])
    }
    fn read_u64(&self, addr: u64) -> u64 {
        self.0[(addr / 8) as usize]
    }
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.0[(addr / 8) as usize] = value;
    }
    fn fetch_or_u64(&mut self, addr: u64, bits: u64) -> u64 {
        let old = self.read_u64(addr);
        self.write_u64(addr, old | bits);
        old
    }
    fn zero_range(&mut self, addr: u64, len: u64) {
        self.0[(addr / 8) as usize..((addr + len) / 8) as usize].fill(0);
    }
}

#[test]
fn sparse_matches_flat_on_random_access_patterns() {
    const SIZE: u64 = CHUNK_BYTES * 16;
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let mut sparse = PhysMem::new(SIZE);
        let mut flat = Flat::new(SIZE);
        for _ in 0..rng.random_range(64usize..512) {
            let addr = rng.random_range(0u64..SIZE / 8) * 8;
            match rng.random_range(0u32..5) {
                0 => {
                    // Bias toward zero writes to exercise the sparse
                    // backing's zero-write elision.
                    let v = if rng.random_range(0u32..4) == 0 {
                        0
                    } else {
                        rng.random()
                    };
                    sparse.write_u64(addr, v);
                    flat.write_u64(addr, v);
                }
                1 => {
                    // The accelerator's single-AMO mark operation.
                    let bits = 1u64 << rng.random_range(0u32..64);
                    assert_eq!(
                        sparse.fetch_or_u64(addr, bits),
                        flat.fetch_or_u64(addr, bits),
                        "case {case}: fetch_or old value diverged at {addr:#x}"
                    );
                }
                2 => {
                    // A fault-injection bit-flip site: read-modify-write
                    // with a single flipped bit, as the DRAM fault model
                    // does to in-flight words.
                    let bit = 1u64 << rng.random_range(0u32..64);
                    let flipped = sparse.read_u64(addr) ^ bit;
                    assert_eq!(
                        flat.read_u64(addr) ^ bit,
                        flipped,
                        "case {case}: pre-flip word diverged at {addr:#x}"
                    );
                    sparse.write_u64(addr, flipped);
                    flat.write_u64(addr, flipped);
                }
                3 => {
                    let words = rng.random_range(1u64..64).min(SIZE / 8 - addr / 8);
                    sparse.zero_range(addr, words * 8);
                    flat.zero_range(addr, words * 8);
                }
                _ => {
                    assert_eq!(
                        sparse.read_u64(addr),
                        flat.read_u64(addr),
                        "case {case}: read diverged at {addr:#x}"
                    );
                }
            }
        }
        // Word-for-word sweep of the whole address space.
        for a in (0..SIZE).step_by(8) {
            assert_eq!(
                sparse.read_u64(a),
                flat.read_u64(a),
                "case {case}: final state diverged at {a:#x}"
            );
        }
    }
}

#[test]
fn sparse_and_flat_panic_on_the_same_out_of_range_accesses() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const SIZE: u64 = CHUNK_BYTES * 2;
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        // Addresses straddling the boundary: in-range must succeed on
        // both, out-of-range must panic on both.
        let addr = rng.random_range(0u64..SIZE / 4) * 8 + SIZE - CHUNK_BYTES / 2;
        let sparse = PhysMem::new(SIZE);
        let flat = Flat::new(SIZE);
        let s = catch_unwind(AssertUnwindSafe(|| sparse.read_u64(addr))).is_err();
        let f = catch_unwind(AssertUnwindSafe(|| flat.read_u64(addr))).is_err();
        assert_eq!(s, f, "case {case}: panic behavior diverged at {addr:#x}");
        assert_eq!(s, addr >= SIZE, "case {case}: wrong bounds at {addr:#x}");
    }
}

#[test]
fn untouched_ranges_allocate_zero_chunks() {
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let mut mem = PhysMem::new(CHUNK_BYTES * 1024);
        // Reads, zero writes and zero_range never allocate.
        for _ in 0..64 {
            let addr = rng.random_range(0u64..mem.size_bytes() / 8) * 8;
            match rng.random_range(0u32..3) {
                0 => assert_eq!(mem.read_u64(addr), 0),
                1 => mem.write_u64(addr, 0),
                _ => {
                    let len = rng.random_range(1u64..32) * 8;
                    if addr + len <= mem.size_bytes() {
                        mem.zero_range(addr, len);
                    }
                }
            }
        }
        assert_eq!(mem.allocated_chunks(), 0, "case {case}");
        assert_eq!(mem.resident_bytes(), 0, "case {case}");
        // Nonzero writes allocate exactly the touched chunks.
        let mut touched = std::collections::BTreeSet::new();
        for _ in 0..rng.random_range(1usize..32) {
            let addr = rng.random_range(0u64..mem.size_bytes() / 8) * 8;
            mem.write_u64(addr, 1 + rng.random_range(0u64..1000));
            touched.insert(addr / CHUNK_BYTES);
        }
        assert_eq!(mem.allocated_chunks(), touched.len(), "case {case}");
        assert_eq!(
            mem.resident_bytes(),
            touched.len() as u64 * CHUNK_BYTES,
            "case {case}"
        );
    }
}
