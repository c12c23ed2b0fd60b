//! An exact, constant-time LRU map for small fully-associative
//! structures (the TLBs and the mark-bit cache).
//!
//! Those structures were first written as a `Vec` of entries: a lookup
//! is a linear scan that returns the first match in vector order, every
//! touch stamps the entry with a fresh, strictly increasing clock value,
//! and a full structure evicts `min_by_key(last_use)` with
//! `swap_remove` before pushing the newcomer. [`LruMap`] reproduces that
//! reference position for position, in O(1) per operation:
//!
//! * entries live in a `Vec` whose positions follow the reference's
//!   `push`/`swap_remove` history, so "first match in vector order"
//!   means the same thing here;
//! * an open-addressing index (multiplicative hash, linear probing,
//!   backward-shift deletion) maps a key to its position;
//! * an intrusive doubly-linked recency list orders the entries by last
//!   touch. Every touch in the reference gets a strictly larger stamp,
//!   so `min_by_key(last_use)` has a unique minimum, and that minimum is
//!   the list's tail.

/// The null link / empty index slot.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<V> {
    key: u64,
    value: V,
    /// The index slot that holds this entry's position.
    slot: u32,
    /// The next more recently used entry (`NIL` at the head).
    newer: u32,
    /// The next less recently used entry (`NIL` at the tail).
    older: u32,
}

/// One open-addressing slot: `pos` is the entry's vector position, or
/// `NIL` when the slot is empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    pos: u32,
}

const EMPTY: Slot = Slot { key: 0, pos: NIL };

/// A bounded map from `u64` keys to values with exact LRU replacement.
///
/// # Examples
///
/// ```
/// use tracegc_sim::lru::LruMap;
///
/// let mut m = LruMap::new(2);
/// m.insert(10, 'a');
/// m.insert(20, 'b');
/// m.touch(m.find(10).unwrap()); // 20 is now least recently used
/// assert_eq!(m.insert(30, 'c'), Some((20, 'b')));
/// assert_eq!(m.find(30), Some(1)); // the newcomer is pushed at the end
/// assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), [10, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<V> {
    entries: Vec<Entry<V>>,
    index: Box<[Slot]>,
    /// `64 - log2(index.len())`: the hash keeps the product's top bits.
    shift: u32,
    capacity: usize,
    /// The most recently used entry.
    head: u32,
    /// The least recently used entry: the eviction victim.
    tail: u32,
}

impl<V> LruMap<V> {
    /// Creates an empty map holding at most `capacity` entries. A
    /// zero-capacity map finds nothing and accepts no insert.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < NIL as usize, "LRU map capacity out of range");
        // At most half the slots are ever occupied.
        let slots = (capacity.max(1) * 2).next_power_of_two();
        Self {
            entries: Vec::with_capacity(capacity),
            index: vec![EMPTY; slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            capacity,
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The vector position of `key`, without touching it.
    pub fn find(&self, key: u64) -> Option<usize> {
        self.slot_of(key).map(|i| self.index[i].pos as usize)
    }

    /// Marks the entry at `pos` most recently used.
    pub fn touch(&mut self, pos: usize) {
        let p = pos as u32;
        if self.head != p {
            self.unlink(p);
            self.push_head(p);
        }
    }

    /// The value at `pos`.
    pub fn value(&self, pos: usize) -> &V {
        &self.entries[pos].value
    }

    /// The value at `pos`, mutably.
    pub fn value_mut(&mut self, pos: usize) -> &mut V {
        &mut self.entries[pos].value
    }

    /// Appends `key` (which must be absent) as the most recently used
    /// entry. A full map first evicts its least recently used entry and
    /// returns it; like `Vec::swap_remove`, the last entry moves into
    /// the victim's position.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        assert!(self.capacity > 0, "insert into a zero-capacity LRU map");
        debug_assert!(self.find(key).is_none(), "key {key:#x} already present");
        let evicted = (self.entries.len() == self.capacity).then(|| {
            let victim = self.tail as usize;
            self.swap_remove(victim)
        });
        let pos = self.entries.len() as u32;
        let mask = self.index.len() - 1;
        let mut i = self.home(key);
        while self.index[i].pos != NIL {
            i = (i + 1) & mask;
        }
        self.index[i] = Slot { key, pos };
        self.entries.push(Entry {
            key,
            value,
            slot: i as u32,
            newer: NIL,
            older: NIL,
        });
        self.push_head(pos);
        evicted
    }

    /// Removes the entry at `pos` the way `Vec::swap_remove` does: the
    /// last entry moves into `pos`.
    fn swap_remove(&mut self, pos: usize) -> (u64, V) {
        let p = pos as u32;
        self.unlink(p);
        self.delete_slot(self.entries[pos].slot as usize);
        let last = self.entries.len() - 1;
        if pos != last {
            // Re-point the moving entry's index slot and list neighbours.
            let moved = &self.entries[last];
            let (slot, newer, older) = (moved.slot, moved.newer, moved.older);
            self.index[slot as usize].pos = p;
            match newer {
                NIL => self.head = p,
                n => self.entries[n as usize].older = p,
            }
            match older {
                NIL => self.tail = p,
                o => self.entries[o as usize].newer = p,
            }
        }
        let e = self.entries.swap_remove(pos);
        (e.key, e.value)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(EMPTY);
        self.head = NIL;
        self.tail = NIL;
    }

    /// `(key, value)` pairs in vector order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|e| (e.key, &e.value))
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn slot_of(&self, key: u64) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = self.index[i];
            if s.pos == NIL {
                return None;
            }
            if s.key == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Empties index slot `hole`, shifting later members of its probe
    /// run back so every key stays reachable from its home slot.
    fn delete_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.index[j];
            if s.pos == NIL {
                break;
            }
            // `s` may fill the hole unless its home lies cyclically
            // after the hole, i.e. nearer to `j` than the hole is.
            let home = self.home(s.key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                self.entries[s.pos as usize].slot = hole as u32;
                hole = j;
            }
        }
        self.index[hole] = EMPTY;
    }

    fn unlink(&mut self, p: u32) {
        let e = &self.entries[p as usize];
        let (newer, older) = (e.newer, e.older);
        match newer {
            NIL => self.head = older,
            n => self.entries[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.entries[o as usize].newer = newer,
        }
    }

    fn push_head(&mut self, p: u32) {
        let old_head = self.head;
        let e = &mut self.entries[p as usize];
        e.newer = NIL;
        e.older = old_head;
        match old_head {
            NIL => self.tail = p,
            h => self.entries[h as usize].newer = p,
        }
        self.head = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    /// The linear reference: a `Vec` scanned front to back, a fresh
    /// stamp per touch, `min_by_key` + `swap_remove` eviction.
    struct VecModel {
        entries: Vec<(u64, u64, u64)>, // (key, value, last_use)
        capacity: usize,
        clock: u64,
    }

    impl VecModel {
        fn find(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }
        fn touch(&mut self, pos: usize) {
            self.clock += 1;
            self.entries[pos].2 = self.clock;
        }
        fn insert(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
            self.clock += 1;
            let evicted = (self.entries.len() == self.capacity).then(|| {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].2)
                    .expect("full model is non-empty");
                let (k, v, _) = self.entries.swap_remove(lru);
                (k, v)
            });
            self.entries.push((key, value, self.clock));
            evicted
        }
        fn swap_remove(&mut self, pos: usize) -> (u64, u64) {
            let (k, v, _) = self.entries.swap_remove(pos);
            (k, v)
        }
    }

    fn contents(m: &LruMap<u64>) -> Vec<(u64, u64)> {
        m.iter().map(|(k, &v)| (k, v)).collect()
    }

    #[test]
    fn matches_the_vec_reference_position_for_position() {
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x1_2000 + case);
            let capacity = rng.random_range(1usize..257);
            // Keys from a universe a little larger than the capacity,
            // spread so that many share a probe run.
            let universe = rng.random_range(1..3 * capacity as u64 + 1);
            let stride = [1u64, 8, 4096, 1 << 21][rng.random_range(0..4usize)];
            let mut m = LruMap::new(capacity);
            let mut r = VecModel {
                entries: Vec::new(),
                capacity,
                clock: 0,
            };
            for op in 0..3000u64 {
                let key = rng.random_range(0..universe) * stride;
                let found = m.find(key);
                assert_eq!(found, r.find(key), "case {case} op {op}: find {key:#x}");
                match (found, rng.random_range(0..16u32)) {
                    (Some(pos), 0) => {
                        assert_eq!(
                            m.swap_remove(pos),
                            r.swap_remove(pos),
                            "case {case} op {op}"
                        );
                    }
                    (Some(pos), _) => {
                        m.touch(pos);
                        r.touch(pos);
                        *m.value_mut(pos) += 1;
                        r.entries[pos].1 += 1;
                    }
                    (None, _) => {
                        assert_eq!(m.insert(key, op), r.insert(key, op), "case {case} op {op}");
                    }
                }
                assert_eq!(m.len(), r.entries.len(), "case {case} op {op}");
                if rng.random_range(0..512u32) == 0 {
                    m.clear();
                    r.entries.clear();
                }
            }
            let want: Vec<(u64, u64)> = r.entries.iter().map(|e| (e.0, e.1)).collect();
            assert_eq!(contents(&m), want, "case {case}: final contents");
            for (pos, &(key, _)) in want.iter().enumerate() {
                assert_eq!(m.find(key), Some(pos), "case {case}: index of {key:#x}");
            }
        }
    }

    #[test]
    fn swap_remove_moves_the_last_entry_into_the_hole() {
        let mut m = LruMap::new(4);
        for k in [1u64, 2, 3, 4] {
            m.insert(k, k * 10);
        }
        assert_eq!(m.swap_remove(1), (2, 20));
        assert_eq!(contents(&m), [(1, 10), (4, 40), (3, 30)]);
        assert_eq!(m.find(4), Some(1));
        assert_eq!(m.find(2), None);
        // Recency survived the move: 1 is still least recently used.
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(6, 60), Some((1, 10)));
        assert_eq!(contents(&m), [(5, 50), (4, 40), (3, 30), (6, 60)]);
    }

    #[test]
    fn zero_capacity_finds_nothing() {
        let m: LruMap<()> = LruMap::new(0);
        assert_eq!(m.find(0), None);
        assert!(m.is_empty());
    }
}
