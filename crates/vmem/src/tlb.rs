//! Fully-associative LRU translation look-aside buffers.
//!
//! The traversal unit carries 32-entry L1 TLBs in the marker and tracer
//! and a 128-entry shared L2 TLB (§VI-A). At these sizes hardware TLBs
//! are fully associative and answer in one cycle; the model answers in
//! O(1) too: an [`LruMap`] keyed by each entry's base VA tagged with its
//! page size, probed once per page size resident.

use tracegc_sim::LruMap;

/// The map key of an entry: its base VA (aligned to `2^shift` bytes,
/// `shift >= 6`) with `shift` in the low six bits, so entries of
/// different sizes over the same base never collide.
fn tag(base_va: u64, shift: u32) -> u64 {
    base_va | u64::from(shift)
}

/// A fully-associative, LRU-replaced TLB.
///
/// Entries may differ in page size (4 KiB by default; 2 MiB for
/// superpages, §VII). Two entries of different sizes can cover the same
/// VA — an L1 receives a 4 KiB entry on an L2 hit and a 2 MiB one from a
/// later walk — and a lookup then answers with the entry at the lowest
/// vector position, the first match a linear scan would find.
///
/// # Examples
///
/// ```
/// use tracegc_vmem::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// tlb.insert(0x4000_0000, 0x1000);
/// assert_eq!(tlb.lookup(0x4000_0123), Some(0x1123));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Base PA of each entry, keyed by [`tag`].
    map: LruMap<u64>,
    /// Resident entries per page size, indexed by log2 of the size.
    per_size: [u32; 64],
    /// Bit `s` is set while any `2^s`-byte entry is resident.
    sizes: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Self {
            map: LruMap::new(capacity),
            per_size: [0; 64],
            sizes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `va`; on a hit returns the full physical address.
    pub fn lookup(&mut self, va: u64) -> Option<u64> {
        let mut best: Option<(usize, u32)> = None;
        let mut sizes = self.sizes;
        while sizes != 0 {
            let shift = sizes.trailing_zeros();
            sizes &= sizes - 1;
            let base_va = va & !((1u64 << shift) - 1);
            if let Some(pos) = self.map.find(tag(base_va, shift)) {
                if best.is_none_or(|(b, _)| pos < b) {
                    best = Some((pos, shift));
                }
            }
        }
        let Some((pos, shift)) = best else {
            self.misses += 1;
            return None;
        };
        self.map.touch(pos);
        self.hits += 1;
        Some(self.map.value(pos) + (va & ((1u64 << shift) - 1)))
    }

    /// Installs a 4 KiB translation for the page containing `va`,
    /// evicting the LRU entry when full.
    pub fn insert(&mut self, va: u64, pa: u64) {
        self.insert_sized(va, pa, crate::PAGE_SIZE);
    }

    /// Installs a translation with an explicit page size (superpage
    /// entries cover far more reach per TLB slot — the §VII argument).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two of at least 64.
    pub fn insert_sized(&mut self, va: u64, pa: u64, page_bytes: u64) {
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= 64,
            "page size must be a power of two of at least 64 bytes"
        );
        let key = tag(va & !(page_bytes - 1), page_bytes.trailing_zeros());
        if let Some(pos) = self.map.find(key) {
            *self.map.value_mut(pos) = pa & !(page_bytes - 1);
            self.map.touch(pos);
            return;
        }
        self.fill(va, pa, page_bytes);
    }

    /// Installs a translation right after [`Tlb::lookup`] of the same
    /// `va` missed. No resident entry of any size covers `va` then, so
    /// unlike [`Tlb::insert_sized`] this does not probe for one
    /// ([`LruMap::insert`] debug-asserts that the key is absent).
    pub(crate) fn fill(&mut self, va: u64, pa: u64, page_bytes: u64) {
        let shift = page_bytes.trailing_zeros();
        let base_pa = pa & !(page_bytes - 1);
        let key = tag(va & !(page_bytes - 1), shift);
        if let Some((victim, _)) = self.map.insert(key, base_pa) {
            let s = (victim & 63) as usize;
            self.per_size[s] -= 1;
            if self.per_size[s] == 0 {
                self.sizes &= !(1 << s);
            }
        }
        self.per_size[shift as usize] += 1;
        self.sizes |= 1 << shift;
    }

    /// Drops every entry (e.g. on address-space switch).
    pub fn flush(&mut self) {
        self.map.clear();
        self.per_size = [0; 64];
        self.sizes = 0;
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The linear reference [`Tlb`] was written against: a scan for the
/// first match in vector order and a `min_by_key(last_use)` victim.
#[cfg(test)]
mod linear {
    #[derive(Debug, Clone, Copy)]
    pub struct Entry {
        pub base_va: u64,
        pub base_pa: u64,
        pub page_bytes: u64,
        last_use: u64,
    }

    #[derive(Debug, Clone)]
    pub struct LinearTlb {
        pub entries: Vec<Entry>,
        capacity: usize,
        clock: u64,
        pub hits: u64,
        pub misses: u64,
    }

    impl LinearTlb {
        pub fn new(capacity: usize) -> Self {
            Self {
                entries: Vec::with_capacity(capacity),
                capacity,
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        pub fn lookup(&mut self, va: u64) -> Option<u64> {
            self.clock += 1;
            if let Some(e) = self
                .entries
                .iter_mut()
                .find(|e| va & !(e.page_bytes - 1) == e.base_va)
            {
                e.last_use = self.clock;
                self.hits += 1;
                Some(e.base_pa + (va & (e.page_bytes - 1)))
            } else {
                self.misses += 1;
                None
            }
        }

        pub fn insert_sized(&mut self, va: u64, pa: u64, page_bytes: u64) {
            self.clock += 1;
            let base_va = va & !(page_bytes - 1);
            let base_pa = pa & !(page_bytes - 1);
            if let Some(e) = self
                .entries
                .iter_mut()
                .find(|e| e.base_va == base_va && e.page_bytes == page_bytes)
            {
                e.base_pa = base_pa;
                e.last_use = self.clock;
                return;
            }
            if self.entries.len() == self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("full TLB is non-empty");
                self.entries.swap_remove(lru);
            }
            self.entries.push(Entry {
                base_va,
                base_pa,
                page_bytes,
                last_use: self.clock,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(4);
        tlb.insert(0x4000_0000, 7 * PAGE_SIZE);
        assert_eq!(tlb.lookup(0x4000_0ab0), Some(7 * PAGE_SIZE + 0xab0));
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn miss_on_unknown_page() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(0x1000), None);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut tlb = Tlb::new(2);
        tlb.insert(0, 0);
        tlb.insert(PAGE_SIZE, PAGE_SIZE);
        // Touch page 0 so page 1 becomes LRU.
        tlb.lookup(0);
        tlb.insert(2 * PAGE_SIZE, 2 * PAGE_SIZE);
        assert!(tlb.lookup(0).is_some());
        assert!(tlb.lookup(PAGE_SIZE).is_none());
        assert!(tlb.lookup(2 * PAGE_SIZE).is_some());
    }

    #[test]
    fn reinsert_updates_mapping() {
        let mut tlb = Tlb::new(2);
        tlb.insert(0, 0);
        tlb.insert(0, 5 * PAGE_SIZE);
        assert_eq!(tlb.lookup(0x10), Some(5 * PAGE_SIZE + 0x10));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn flush_empties() {
        let mut tlb = Tlb::new(2);
        tlb.insert(0, 0);
        tlb.flush();
        assert!(tlb.is_empty());
        assert_eq!(tlb.lookup(0), None);
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(3);
        for i in 0..10u64 {
            tlb.insert(i * PAGE_SIZE, i * PAGE_SIZE);
        }
        assert_eq!(tlb.len(), 3);
    }
}

#[cfg(test)]
mod superpage_tests {
    use super::*;
    use crate::pagetable::MEGAPAGE_SIZE;
    use crate::PAGE_SIZE;

    #[test]
    fn one_superpage_entry_covers_two_mib() {
        let mut tlb = Tlb::new(2);
        tlb.insert_sized(0x4000_0000, 0x80_0000, MEGAPAGE_SIZE);
        // Any 4 KiB page inside the megapage hits the single entry.
        for off in [0u64, PAGE_SIZE, 511 * PAGE_SIZE, MEGAPAGE_SIZE - 8] {
            assert_eq!(
                tlb.lookup(0x4000_0000 + off),
                Some(0x80_0000 + off),
                "offset {off:#x}"
            );
        }
        assert_eq!(tlb.lookup(0x4000_0000 + MEGAPAGE_SIZE), None);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn mixed_sizes_coexist() {
        let mut tlb = Tlb::new(4);
        tlb.insert_sized(0, 0x10_0000, PAGE_SIZE);
        tlb.insert_sized(MEGAPAGE_SIZE, 0x80_0000, MEGAPAGE_SIZE);
        assert_eq!(tlb.lookup(0x10), Some(0x10_0010));
        assert_eq!(tlb.lookup(MEGAPAGE_SIZE + 0x1234), Some(0x80_1234));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_panics() {
        let mut tlb = Tlb::new(1);
        tlb.insert_sized(0, 0, 3000);
    }

    #[test]
    #[should_panic(expected = "at least 64")]
    fn sub_64_byte_page_panics() {
        let mut tlb = Tlb::new(1);
        tlb.insert_sized(0, 0, 32);
    }
}

#[cfg(test)]
mod differential {
    use super::linear::LinearTlb;
    use super::*;
    use crate::pagetable::MEGAPAGE_SIZE;
    use crate::PAGE_SIZE;
    use tracegc_sim::rng::{Rng, StdRng};

    fn contents(tlb: &Tlb) -> Vec<(u64, u64, u64)> {
        tlb.map
            .iter()
            .map(|(key, &pa)| (key & !63, pa, 1u64 << (key & 63)))
            .collect()
    }

    #[test]
    fn mixed_sizes_answer_with_the_first_in_vector_order() {
        let mut tlb = Tlb::new(4);
        tlb.insert_sized(0, 0x80_0000, MEGAPAGE_SIZE);
        tlb.insert(PAGE_SIZE, 0x10_0000);
        // Both entries cover 0x1010; the superpage sits first.
        assert_eq!(tlb.lookup(PAGE_SIZE + 0x10), Some(0x80_1010));
    }

    /// A fill after a missed lookup installs exactly what
    /// `insert_sized` installs there, in both page sizes.
    #[test]
    fn fill_after_a_miss_matches_linear_reference() {
        let base = 0x4000_0000u64;
        for case in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(0xF111_0000 + case);
            let capacity = rng.random_range(1usize..65);
            let mut fast = Tlb::new(capacity);
            let mut slow = LinearTlb::new(capacity);
            for op in 0..2000 {
                let va = base + rng.random_range(0..4 * capacity as u64 + 1) * PAGE_SIZE;
                let got = fast.lookup(va);
                assert_eq!(got, slow.lookup(va), "case {case} op {op}: {va:#x}");
                if got.is_none() {
                    let size = if rng.random_range(0..8u32) == 0 {
                        MEGAPAGE_SIZE
                    } else {
                        PAGE_SIZE
                    };
                    let pa = (1 << 32) + (va - base);
                    fast.fill(va, pa, size);
                    slow.insert_sized(va, pa, size);
                }
                assert_eq!(contents(&fast), slow_contents(&slow), "case {case} op {op}");
            }
        }
    }

    fn slow_contents(slow: &LinearTlb) -> Vec<(u64, u64, u64)> {
        slow.entries
            .iter()
            .map(|e| (e.base_va, e.base_pa, e.page_bytes))
            .collect()
    }

    /// Seeded mixes of lookups and inserts against the linear reference.
    /// One insert in eight is a 2 MiB entry over the same VAs as the
    /// 4 KiB ones but with a different PA, so answering from the wrong
    /// one of two covering entries shows in the returned address.
    #[test]
    fn tlb_matches_linear_reference() {
        let base = 0x4000_0000u64;
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x71B0_0000 + case);
            let capacity = rng.random_range(1usize..257);
            let pages = rng.random_range(1..4 * capacity as u64 + 1);
            let mut fast = Tlb::new(capacity);
            let mut slow = LinearTlb::new(capacity);
            for op in 0..3000 {
                let va = base
                    + rng.random_range(0..pages) * PAGE_SIZE
                    + rng.random_range(0..PAGE_SIZE / 8) * 8;
                match rng.random_range(0..16u32) {
                    0..8 => {
                        let got = fast.lookup(va);
                        assert_eq!(got, slow.lookup(va), "case {case} op {op}: {va:#x}");
                    }
                    8..15 => {
                        let generation = rng.random_range(0..2u64);
                        let pa = ((1 + generation) << 32) + (va - base);
                        fast.insert(va, pa);
                        slow.insert_sized(va, pa, PAGE_SIZE);
                    }
                    _ => {
                        let pa = (3 << 32) + (va - base);
                        fast.insert_sized(va, pa, MEGAPAGE_SIZE);
                        slow.insert_sized(va, pa, MEGAPAGE_SIZE);
                    }
                }
                if rng.random_range(0..1024u32) == 0 {
                    fast.flush();
                    slow.entries.clear();
                }
                assert_eq!(fast.len(), slow.entries.len(), "case {case} op {op}");
                assert_eq!(
                    (fast.hits(), fast.misses()),
                    (slow.hits, slow.misses),
                    "case {case} op {op}"
                );
            }
            let want: Vec<(u64, u64, u64)> = slow
                .entries
                .iter()
                .map(|e| (e.base_va, e.base_pa, e.page_bytes))
                .collect();
            assert_eq!(contents(&fast), want, "case {case}: final contents");
        }
    }
}
