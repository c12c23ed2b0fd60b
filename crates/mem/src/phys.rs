//! Simulated physical memory.
//!
//! A word-addressed memory standing in for the 2 GiB DRAM of the paper's
//! Table I. Both the CPU collector model and the accelerator operate
//! *functionally* on this memory: the heap, the page tables, the spill
//! region and the root region all live here, so the marked-object sets
//! produced by every agent can be compared bit-for-bit.
//!
//! The backing is **sparse**: the address space is divided into
//! [`CHUNK_BYTES`]-sized chunks held in a dense chunk table, and a chunk
//! is allocated only on the first write of a nonzero word into it. Reads
//! of untouched chunks observe zeros (zero-page semantics), and writing
//! a zero — including [`PhysMem::zero_range`] — never allocates. A 4 GiB
//! address space with a 300 MB live footprint therefore costs roughly
//! 300 MB of host RSS plus one table slot (16 bytes) per chunk. The
//! differential wall in `tests/properties.rs` pins it word for word
//! against a flat `Vec<u64>` model.

/// Sparse-chunk granularity: 64 KiB, matching the heap's block size so a
/// touched heap block maps onto exactly one resident chunk.
pub const CHUNK_BYTES: u64 = 64 * 1024;
const CHUNK_WORDS: u64 = CHUNK_BYTES / 8;

/// Words in the 4 KiB page [`PhysMem::page`] views; a page never spans
/// two chunks.
pub const PAGE_WORDS: usize = 512;

/// Byte-addressed simulated physical memory backed by 64-bit words.
///
/// All accesses are 8-byte aligned 64-bit word operations — the paper's
/// heap stores references, headers and free-list links as 64-bit words,
/// and the accelerator's functional work is entirely word-granular.
///
/// # Examples
///
/// ```
/// use tracegc_mem::PhysMem;
///
/// let mut mem = PhysMem::new(4096);
/// mem.write_u64(16, 0xdead_beef);
/// assert_eq!(mem.read_u64(16), 0xdead_beef);
/// ```
#[derive(Clone)]
pub struct PhysMem {
    len_words: u64,
    /// Dense table of lazily allocated chunks; `None` reads as zeros.
    chunks: Vec<Option<Box<[u64]>>>,
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The chunk table would dump megabytes of zeros; summarize.
        f.debug_struct("PhysMem")
            .field("size_bytes", &self.size_bytes())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

impl PhysMem {
    /// Creates a zeroed sparse memory of `bytes` bytes. No chunk storage
    /// is allocated until the first nonzero write.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of 8.
    pub fn new(bytes: u64) -> Self {
        assert!(
            bytes.is_multiple_of(8),
            "physical memory size must be word-aligned"
        );
        let len_words = bytes / 8;
        let n_chunks = len_words.div_ceil(CHUNK_WORDS) as usize;
        Self {
            len_words,
            chunks: vec![None; n_chunks],
        }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len_words * 8
    }

    /// Number of chunks currently backed by host storage.
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Bytes of chunk storage resident on the host — the memory actually
    /// paid for, as opposed to [`PhysMem::size_bytes`] addressable.
    pub fn resident_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .filter_map(|c| c.as_ref().map(|w| w.len() as u64 * 8))
            .sum()
    }

    #[inline]
    fn index(&self, paddr: u64) -> u64 {
        debug_assert!(
            paddr.is_multiple_of(8),
            "unaligned word access at {paddr:#x}"
        );
        let idx = paddr / 8;
        assert!(
            idx < self.len_words,
            "physical address {paddr:#x} out of range ({} bytes)",
            self.size_bytes()
        );
        idx
    }

    /// Reads the word at byte address `paddr`. Untouched chunks read as
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is unaligned (debug builds) or out of range.
    #[inline]
    pub fn read_u64(&self, paddr: u64) -> u64 {
        let idx = self.index(paddr);
        match &self.chunks[(idx / CHUNK_WORDS) as usize] {
            Some(words) => words[(idx % CHUNK_WORDS) as usize],
            None => 0,
        }
    }

    /// The 4 KiB page at the page-aligned `paddr`, read-only: its words,
    /// or `None` when its chunk is untouched and the page reads as zeros.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is not page-aligned, or the page is out of range
    /// or not whole.
    #[inline]
    pub fn page(&self, paddr: u64) -> Option<&[u64; PAGE_WORDS]> {
        assert!(
            paddr.is_multiple_of(PAGE_WORDS as u64 * 8),
            "unaligned page at {paddr:#x}"
        );
        let idx = self.index(paddr);
        let words = self.chunks[(idx / CHUNK_WORDS) as usize].as_deref()?;
        let lo = (idx % CHUNK_WORDS) as usize;
        let page = words.get(lo..lo + PAGE_WORDS);
        Some(page.and_then(|w| w.try_into().ok()).unwrap_or_else(|| {
            panic!(
                "page at {paddr:#x} is not whole ({} bytes)",
                self.size_bytes()
            )
        }))
    }

    /// Writes the word at byte address `paddr`. Writing zero into an
    /// untouched chunk is elided — it never allocates storage.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is unaligned (debug builds) or out of range.
    #[inline]
    pub fn write_u64(&mut self, paddr: u64, value: u64) {
        let idx = self.index(paddr);
        let ci = (idx / CHUNK_WORDS) as usize;
        let len_words = self.len_words;
        let words = match &mut self.chunks[ci] {
            Some(words) => words,
            None if value == 0 => return,
            absent => {
                let len = (len_words - ci as u64 * CHUNK_WORDS).min(CHUNK_WORDS) as usize;
                absent.insert(vec![0u64; len].into_boxed_slice())
            }
        };
        words[(idx % CHUNK_WORDS) as usize] = value;
    }

    /// Atomically ORs `bits` into the word at `paddr` and returns the *old*
    /// value — the accelerator's single-AMO mark operation (§IV-A.II).
    #[inline]
    pub fn fetch_or_u64(&mut self, paddr: u64, bits: u64) -> u64 {
        let old = self.read_u64(paddr);
        let new = old | bits;
        if new != old {
            self.write_u64(paddr, new);
        }
        old
    }

    /// Zeroes `len` bytes starting at `paddr` (word-aligned, word-sized).
    /// Untouched sparse chunks stay unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or out of bounds.
    pub fn zero_range(&mut self, paddr: u64, len: u64) {
        assert!(
            len.is_multiple_of(8),
            "zero_range length must be word-aligned"
        );
        if len == 0 {
            return;
        }
        // Bounds-check both ends up front so partial ranges never write.
        let first = self.index(paddr);
        let last = self.index(paddr + len - 8);
        // Zero whole resident chunks at once; skip absent ones.
        let mut idx = first;
        while idx <= last {
            let ci = (idx / CHUNK_WORDS) as usize;
            let lo = (idx % CHUNK_WORDS) as usize;
            let chunk_end = ((ci as u64 + 1) * CHUNK_WORDS - 1).min(last);
            if let Some(words) = &mut self.chunks[ci] {
                let hi = (chunk_end % CHUNK_WORDS) as usize;
                words[lo..=hi].fill(0);
            }
            idx = chunk_end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let mut mem = PhysMem::new(64);
        mem.write_u64(0, 1);
        mem.write_u64(56, u64::MAX);
        assert_eq!(mem.read_u64(0), 1);
        assert_eq!(mem.read_u64(56), u64::MAX);
        assert_eq!(mem.read_u64(8), 0);
    }

    #[test]
    fn fetch_or_returns_old_value() {
        let mut mem = PhysMem::new(16);
        mem.write_u64(8, 0b100);
        let old = mem.fetch_or_u64(8, 0b011);
        assert_eq!(old, 0b100);
        assert_eq!(mem.read_u64(8), 0b111);
    }

    #[test]
    fn zero_range_clears_words() {
        let mut mem = PhysMem::new(64);
        for a in (0..64).step_by(8) {
            mem.write_u64(a, 7);
        }
        mem.zero_range(16, 24);
        assert_eq!(mem.read_u64(8), 7);
        assert_eq!(mem.read_u64(16), 0);
        assert_eq!(mem.read_u64(32), 0);
        assert_eq!(mem.read_u64(40), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mem = PhysMem::new(8);
        let _ = mem.read_u64(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_range_end_out_of_range_panics() {
        let mut mem = PhysMem::new(64);
        mem.zero_range(32, 64);
    }

    #[test]
    fn size_reports_bytes() {
        assert_eq!(PhysMem::new(4096).size_bytes(), 4096);
    }

    #[test]
    fn untouched_memory_allocates_no_chunks() {
        let mem = PhysMem::new(1 << 30);
        assert_eq!(mem.allocated_chunks(), 0);
        assert_eq!(mem.resident_bytes(), 0);
        assert_eq!(mem.read_u64(1 << 29), 0);
        assert_eq!(mem.allocated_chunks(), 0);
    }

    #[test]
    fn zero_writes_are_elided() {
        let mut mem = PhysMem::new(1 << 30);
        mem.write_u64(0, 0);
        mem.zero_range(CHUNK_BYTES * 3, CHUNK_BYTES * 2);
        assert_eq!(mem.fetch_or_u64(CHUNK_BYTES * 7, 0), 0);
        assert_eq!(mem.allocated_chunks(), 0);
        mem.write_u64(CHUNK_BYTES * 9 + 8, 42);
        assert_eq!(mem.allocated_chunks(), 1);
        assert_eq!(mem.resident_bytes(), CHUNK_BYTES);
    }

    #[test]
    fn writes_straddling_chunks_are_independent() {
        let mut mem = PhysMem::new(CHUNK_BYTES * 4);
        mem.write_u64(CHUNK_BYTES - 8, 1);
        mem.write_u64(CHUNK_BYTES, 2);
        assert_eq!(mem.allocated_chunks(), 2);
        assert_eq!(mem.read_u64(CHUNK_BYTES - 8), 1);
        assert_eq!(mem.read_u64(CHUNK_BYTES), 2);
        mem.zero_range(0, CHUNK_BYTES * 2);
        assert_eq!(mem.read_u64(CHUNK_BYTES - 8), 0);
        assert_eq!(mem.read_u64(CHUNK_BYTES), 0);
    }

    #[test]
    fn page_views_read_like_words() {
        let mut mem = PhysMem::new(CHUNK_BYTES * 2);
        mem.write_u64(CHUNK_BYTES + 4096 + 8, 5);
        assert_eq!(mem.page(0), None);
        let page = mem.page(CHUNK_BYTES + 4096).expect("touched chunk");
        assert_eq!((page[0], page[1]), (0, 5));
        // An untouched page of a touched chunk is all zeros.
        assert_eq!(mem.page(CHUNK_BYTES), Some(&[0; PAGE_WORDS]));
        assert_eq!(mem.allocated_chunks(), 1);
    }

    #[test]
    #[should_panic(expected = "not whole")]
    fn a_short_tail_page_has_no_view() {
        let mut mem = PhysMem::new(4096 + 16);
        mem.write_u64(4096, 1);
        let _ = mem.page(4096);
    }

    #[test]
    fn short_tail_chunk_is_addressable() {
        let bytes = CHUNK_BYTES + 16;
        let mut mem = PhysMem::new(bytes);
        mem.write_u64(bytes - 8, 99);
        assert_eq!(mem.read_u64(bytes - 8), 99);
        assert_eq!(mem.resident_bytes(), 16);
    }
}
