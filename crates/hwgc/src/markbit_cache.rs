//! The mark-bit cache (§V-C, Fig. 21).
//!
//! "About 10% of mark operations access the same 56 objects in our
//! benchmarks. We therefore conclude that a small mark bit cache that
//! stores a set of recently accessed objects can be efficient at
//! reducing traffic." The cache is a tiny fully-associative LRU set of
//! recently *marked* references; a hit means the mark AMO can be
//! filtered before it ever reaches the memory system.

use tracegc_sim::LruMap;

/// A small LRU filter over recently marked object references.
///
/// A capacity of zero disables filtering (every lookup misses). Lookup,
/// touch and eviction are O(1) ([`LruMap`]), as in the one-cycle
/// hardware cache.
///
/// # Examples
///
/// ```
/// use tracegc_hwgc::MarkBitCache;
///
/// let mut cache = MarkBitCache::new(64);
/// assert!(!cache.filter(0x4000_0010)); // first sight: not filtered
/// assert!(cache.filter(0x4000_0010)); // hot object: filtered
/// ```
#[derive(Debug, Clone)]
pub struct MarkBitCache {
    map: LruMap<()>,
    hits: u64,
    misses: u64,
}

impl MarkBitCache {
    /// Creates a cache holding `capacity` references (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: LruMap::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `va` and inserts it on a miss. Returns `true` when the
    /// reference was recently marked and the AMO can be skipped.
    pub fn filter(&mut self, va: u64) -> bool {
        if self.map.capacity() == 0 {
            self.misses += 1;
            return false;
        }
        if let Some(pos) = self.map.find(va) {
            self.map.touch(pos);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.map.insert(va, ());
        false
    }

    /// Lookups that hit (mark operations filtered).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups filtered, 0.0 when unused.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Empties the cache (between GC passes).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// The linear reference [`MarkBitCache`] was written against.
#[cfg(test)]
struct LinearMarkBitCache {
    entries: Vec<(u64, u64)>, // (ref, last_use)
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

#[cfg(test)]
impl LinearMarkBitCache {
    fn filter(&mut self, va: u64) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == va) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("full cache non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((va, self.clock));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_sim::rng::{Rng, StdRng};

    /// Seeded reference streams with a hot set and a cold tail, against
    /// the linear reference: every answer, the counts and the contents.
    #[test]
    fn matches_linear_reference() {
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x3A2B_0000 + case);
            let capacity = rng.random_range(0usize..257);
            let hot = rng.random_range(1..capacity as u64 + 2);
            let cold = rng.random_range(1..8 * capacity as u64 + 2);
            let mut fast = MarkBitCache::new(capacity);
            let mut slow = LinearMarkBitCache {
                entries: Vec::new(),
                capacity,
                clock: 0,
                hits: 0,
                misses: 0,
            };
            for op in 0..3000 {
                let obj = if rng.random::<bool>() {
                    rng.random_range(0..hot)
                } else {
                    hot + rng.random_range(0..cold)
                };
                let va = 0x4000_0000 + 8 * obj;
                assert_eq!(fast.filter(va), slow.filter(va), "case {case} op {op}");
                assert_eq!(fast.map.len(), slow.entries.len(), "case {case} op {op}");
            }
            assert_eq!((fast.hits, fast.misses), (slow.hits, slow.misses));
            let want: Vec<u64> = slow.entries.iter().map(|e| e.0).collect();
            let got: Vec<u64> = fast.map.iter().map(|(va, _)| va).collect();
            assert_eq!(got, want, "case {case}: final contents");
        }
    }

    #[test]
    fn disabled_cache_never_filters() {
        let mut c = MarkBitCache::new(0);
        assert!(!c.filter(8));
        assert!(!c.filter(8));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn repeated_reference_is_filtered() {
        let mut c = MarkBitCache::new(4);
        assert!(!c.filter(16));
        assert!(c.filter(16));
        assert!(c.filter(16));
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_keeps_hot_entries() {
        let mut c = MarkBitCache::new(2);
        c.filter(8); // A
        c.filter(16); // B
        c.filter(8); // touch A -> B is LRU
        c.filter(24); // C evicts B
        assert!(c.filter(8), "hot entry evicted");
        assert!(!c.filter(16), "cold entry retained");
    }

    #[test]
    fn hit_ratio_reflects_skew() {
        let mut c = MarkBitCache::new(8);
        // One hot object referenced 90 times among 10 cold ones.
        for i in 0..100u64 {
            let va = if i % 10 == 0 { 8 * (i + 1000) } else { 0x100 };
            c.filter(va);
        }
        assert!(c.hit_ratio() > 0.8, "ratio {}", c.hit_ratio());
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        let mut c = MarkBitCache::new(2);
        c.filter(8);
        c.clear();
        assert!(!c.filter(8));
        assert_eq!(c.misses(), 2);
    }
}
