//! Sv39-style three-level page tables built inside simulated physical
//! memory.
//!
//! The Linux driver in the paper reads the process's page-table base
//! register and hands it to the GC unit so the unit "can operate in the
//! same address space as the process on the CPU" (§V-E). Here the
//! workload builder plays the role of the OS: it allocates frames, builds
//! a real radix page table in [`PhysMem`], and hands the root to the
//! unit's [`Translator`](crate::Translator).
//!
//! PTE format (RISC-V flavoured): bit 0 = valid, bit 1 = leaf, physical
//! page number in bits 10 and up.

use tracegc_mem::PhysMem;

/// Page size in bytes (the paper uses standard 4 KiB pages; §VII notes
/// superpages as future work).
pub const PAGE_SIZE: u64 = 4096;

/// Megapage (level-1 superpage) size: 2 MiB, as in Sv39. §VII: "large
/// heaps could use superpages instead of 4KB pages" to relieve TLB and
/// PTW-cache pressure.
pub const MEGAPAGE_SIZE: u64 = 2 << 20;

/// Bits of virtual page number consumed per level.
const VPN_BITS: u32 = 9;
/// Number of radix levels (Sv39).
const LEVELS: u32 = 3;
/// Entries per page-table node.
const ENTRIES: u64 = 1 << VPN_BITS;

const PTE_VALID: u64 = 1 << 0;
const PTE_LEAF: u64 = 1 << 1;
const PTE_PPN_SHIFT: u32 = 10;

/// A bump allocator for physical page frames.
///
/// # Examples
///
/// ```
/// use tracegc_vmem::FrameAlloc;
///
/// let mut falloc = FrameAlloc::new(0x1000, 0x10000);
/// let f0 = falloc.alloc();
/// let f1 = falloc.alloc();
/// assert_eq!(f1 - f0, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAlloc {
    start: u64,
    next: u64,
    limit: u64,
}

impl FrameAlloc {
    /// Creates an allocator handing out frames in `[start, limit)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not page-aligned or empty.
    pub fn new(start: u64, limit: u64) -> Self {
        assert!(start.is_multiple_of(PAGE_SIZE) && limit.is_multiple_of(PAGE_SIZE));
        assert!(start < limit, "empty frame region");
        Self {
            start,
            next: start,
            limit,
        }
    }

    /// Allocates the next frame.
    ///
    /// # Panics
    ///
    /// Panics when the region is exhausted.
    pub fn alloc(&mut self) -> u64 {
        assert!(self.next < self.limit, "out of physical frames");
        let frame = self.next;
        self.next += PAGE_SIZE;
        frame
    }

    /// Allocates `bytes` of physically contiguous memory aligned to
    /// `align` (e.g. a 2 MiB superpage frame), returning its base.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power-of-two multiple of the page size
    /// or the region is exhausted.
    pub fn alloc_region(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two() && align >= PAGE_SIZE);
        let base = self.next.next_multiple_of(align);
        let end = base + bytes.next_multiple_of(PAGE_SIZE);
        assert!(end <= self.limit, "out of physical frames");
        self.next = end;
        base
    }

    /// Frames drawn since [`FrameAlloc::new`], including any skipped to
    /// align a region, so `allocated() + remaining()` is the region's
    /// frame count.
    pub fn allocated(&self) -> u64 {
        (self.next - self.start) / PAGE_SIZE
    }

    /// Remaining capacity in frames.
    pub fn remaining(&self) -> u64 {
        (self.limit - self.next) / PAGE_SIZE
    }
}

/// A three-level radix page table rooted in simulated physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    root_pa: u64,
}

impl AddressSpace {
    /// Creates an empty address space, allocating the root node.
    pub fn new(mem: &mut PhysMem, falloc: &mut FrameAlloc) -> Self {
        let root_pa = falloc.alloc();
        mem.zero_range(root_pa, PAGE_SIZE);
        Self { root_pa }
    }

    /// Physical address of the root page-table node (the value the Linux
    /// driver would read from the process's `satp`).
    pub fn root(&self) -> u64 {
        self.root_pa
    }

    #[inline]
    fn vpn(va: u64, level: u32) -> u64 {
        // level 0 is the root (highest) level.
        (va >> (12 + VPN_BITS * (LEVELS - 1 - level))) & (ENTRIES - 1)
    }

    /// Walks the table for `va` once, the way the hardware walker does:
    /// root first, stopping at the first invalid or leaf PTE.
    #[inline]
    pub(crate) fn walk(&self, mem: &PhysMem, va: u64) -> Walk {
        let mut ptes = [0; LEVELS as usize];
        let mut node = self.root_pa;
        for level in 0..LEVELS {
            let pte_pa = node + Self::vpn(va, level) * 8;
            ptes[level as usize] = pte_pa;
            let pte = mem.read_u64(pte_pa);
            let leaf = if pte & PTE_VALID == 0 {
                None
            } else if pte & PTE_LEAF != 0 {
                let page_bytes = PAGE_SIZE << (VPN_BITS * (LEVELS - 1 - level));
                let ppn = pte >> PTE_PPN_SHIFT;
                Some((ppn * PAGE_SIZE + (va % page_bytes), page_bytes))
            } else {
                node = (pte >> PTE_PPN_SHIFT) * PAGE_SIZE;
                continue;
            };
            return Walk {
                ptes,
                len: level as usize + 1,
                leaf,
            };
        }
        Walk {
            ptes,
            len: LEVELS as usize,
            leaf: None,
        }
    }

    /// Physical addresses of the PTEs visited when walking `va`, root
    /// first. This is exactly the sequence of reads the hardware walker
    /// performs.
    pub fn walk_path(&self, mem: &PhysMem, va: u64) -> Vec<u64> {
        self.walk(mem, va).path().to_vec()
    }

    /// Maps the page containing `va` to the frame containing `pa`,
    /// creating intermediate nodes as needed.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped to a different frame.
    pub fn map_page(&self, mem: &mut PhysMem, falloc: &mut FrameAlloc, va: u64, pa: u64) {
        let mut node = self.root_pa;
        for level in 0..LEVELS - 1 {
            let pte_pa = node + Self::vpn(va, level) * 8;
            let pte = mem.read_u64(pte_pa);
            if pte & PTE_VALID == 0 {
                let child = falloc.alloc();
                mem.zero_range(child, PAGE_SIZE);
                mem.write_u64(pte_pa, ((child / PAGE_SIZE) << PTE_PPN_SHIFT) | PTE_VALID);
                node = child;
            } else {
                assert!(pte & PTE_LEAF == 0, "superpage in the middle of a walk");
                node = (pte >> PTE_PPN_SHIFT) * PAGE_SIZE;
            }
        }
        let leaf_pa = node + Self::vpn(va, LEVELS - 1) * 8;
        let ppn = pa / PAGE_SIZE;
        let new_pte = (ppn << PTE_PPN_SHIFT) | PTE_VALID | PTE_LEAF;
        let existing = mem.read_u64(leaf_pa);
        assert!(
            existing & PTE_VALID == 0 || existing == new_pte,
            "page {va:#x} already mapped elsewhere"
        );
        mem.write_u64(leaf_pa, new_pte);
    }

    /// Maps `len` bytes starting at `va` to consecutive frames from
    /// `falloc`, returning the physical address of the first frame.
    pub fn map_range(&self, mem: &mut PhysMem, falloc: &mut FrameAlloc, va: u64, len: u64) -> u64 {
        assert!(va.is_multiple_of(PAGE_SIZE), "range must be page-aligned");
        let pages = len.div_ceil(PAGE_SIZE);
        let mut first = None;
        for i in 0..pages {
            let frame = falloc.alloc();
            first.get_or_insert(frame);
            self.map_page(mem, falloc, va + i * PAGE_SIZE, frame);
        }
        first.expect("map_range of zero length")
    }

    /// Maps a 2 MiB superpage at `va` to the 2 MiB frame at `pa`
    /// (level-1 leaf PTE).
    ///
    /// # Panics
    ///
    /// Panics if `va` or `pa` is not megapage-aligned, or the slot is
    /// already occupied.
    pub fn map_superpage(&self, mem: &mut PhysMem, falloc: &mut FrameAlloc, va: u64, pa: u64) {
        assert!(
            va.is_multiple_of(MEGAPAGE_SIZE),
            "superpage VA must be 2 MiB aligned"
        );
        assert!(
            pa.is_multiple_of(MEGAPAGE_SIZE),
            "superpage PA must be 2 MiB aligned"
        );
        // Walk/create the root level only.
        let root_pte_pa = self.root_pa + Self::vpn(va, 0) * 8;
        let root_pte = mem.read_u64(root_pte_pa);
        let mid = if root_pte & PTE_VALID == 0 {
            let child = falloc.alloc();
            mem.zero_range(child, PAGE_SIZE);
            mem.write_u64(
                root_pte_pa,
                ((child / PAGE_SIZE) << PTE_PPN_SHIFT) | PTE_VALID,
            );
            child
        } else {
            assert!(root_pte & PTE_LEAF == 0, "gigapage in the way");
            (root_pte >> PTE_PPN_SHIFT) * PAGE_SIZE
        };
        let leaf_pa = mid + Self::vpn(va, 1) * 8;
        let new_pte = ((pa / PAGE_SIZE) << PTE_PPN_SHIFT) | PTE_VALID | PTE_LEAF;
        let existing = mem.read_u64(leaf_pa);
        assert!(
            existing & PTE_VALID == 0 || existing == new_pte,
            "superpage slot at {va:#x} already mapped"
        );
        mem.write_u64(leaf_pa, new_pte);
    }

    /// Functional translation oracle: walks the table in one step, no
    /// timing. Returns `None` for unmapped addresses.
    pub fn translate(&self, mem: &PhysMem, va: u64) -> Option<u64> {
        self.translate_entry(mem, va).map(|(pa, _)| pa)
    }

    /// Like [`AddressSpace::translate`], but also reports the size of
    /// the mapping's page (4 KiB, 2 MiB or 1 GiB) so TLBs can install
    /// reach-appropriate entries.
    pub fn translate_entry(&self, mem: &PhysMem, va: u64) -> Option<(u64, u64)> {
        self.walk(mem, va).leaf
    }
}

/// One page-table walk: the PTEs read and the mapping they yield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Walk {
    ptes: [u64; LEVELS as usize],
    len: usize,
    /// `(pa, page_bytes)` from the last PTE read, when it is a valid
    /// leaf; `None` when `va` is unmapped.
    pub(crate) leaf: Option<(u64, u64)>,
}

impl Walk {
    /// Physical addresses of the PTEs read, root first.
    pub(crate) fn path(&self) -> &[u64] {
        &self.ptes[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAlloc, AddressSpace) {
        let mut mem = PhysMem::new(8 * 1024 * 1024);
        let mut falloc = FrameAlloc::new(0, 8 * 1024 * 1024);
        let aspace = AddressSpace::new(&mut mem, &mut falloc);
        (mem, falloc, aspace)
    }

    #[test]
    fn translate_roundtrip_single_page() {
        let (mut mem, mut falloc, aspace) = setup();
        let frame = falloc.alloc();
        aspace.map_page(&mut mem, &mut falloc, 0x4000_0000, frame);
        assert_eq!(aspace.translate(&mem, 0x4000_0000), Some(frame));
        assert_eq!(aspace.translate(&mem, 0x4000_0123), Some(frame + 0x123));
    }

    #[test]
    fn unmapped_is_none() {
        let (mem, _, aspace) = setup();
        assert_eq!(aspace.translate(&mem, 0x1234_5000), None);
    }

    #[test]
    fn map_range_is_contiguous_per_page() {
        let (mut mem, mut falloc, aspace) = setup();
        let base_va = 0x8000_0000;
        aspace.map_range(&mut mem, &mut falloc, base_va, 4 * PAGE_SIZE);
        for i in 0..4 {
            let va = base_va + i * PAGE_SIZE;
            assert!(aspace.translate(&mem, va).is_some(), "page {i} unmapped");
        }
        assert_eq!(aspace.translate(&mem, base_va + 4 * PAGE_SIZE), None);
    }

    #[test]
    fn distinct_vas_get_distinct_frames() {
        let (mut mem, mut falloc, aspace) = setup();
        aspace.map_range(&mut mem, &mut falloc, 0x4000_0000, 8 * PAGE_SIZE);
        let mut frames: Vec<u64> = (0..8)
            .map(|i| aspace.translate(&mem, 0x4000_0000 + i * PAGE_SIZE).unwrap())
            .collect();
        frames.sort_unstable();
        frames.dedup();
        assert_eq!(frames.len(), 8);
    }

    #[test]
    fn walk_path_has_three_levels_when_mapped() {
        let (mut mem, mut falloc, aspace) = setup();
        let frame = falloc.alloc();
        aspace.map_page(&mut mem, &mut falloc, 0x4000_0000, frame);
        let path = aspace.walk_path(&mem, 0x4000_0000);
        assert_eq!(path.len(), 3);
        // The leaf PTE on the path must decode to the mapped frame.
        let leaf = mem.read_u64(path[2]);
        assert_eq!((leaf >> 10) * PAGE_SIZE, frame);
    }

    #[test]
    fn walk_path_stops_early_when_unmapped() {
        let (mem, _, aspace) = setup();
        let path = aspace.walk_path(&mem, 0xdead_beef << 12);
        assert_eq!(path.len(), 1); // invalid at the root
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn remapping_to_a_different_frame_panics() {
        let (mut mem, mut falloc, aspace) = setup();
        let f0 = falloc.alloc();
        let f1 = falloc.alloc();
        aspace.map_page(&mut mem, &mut falloc, 0x4000_0000, f0);
        aspace.map_page(&mut mem, &mut falloc, 0x4000_0000, f1);
    }

    #[test]
    fn frame_alloc_exhaustion_is_detected() {
        let mut falloc = FrameAlloc::new(0, 2 * PAGE_SIZE);
        falloc.alloc();
        assert_eq!(falloc.remaining(), 1);
        falloc.alloc();
        assert_eq!(falloc.remaining(), 0);
    }

    #[test]
    fn allocated_counts_frames_from_a_nonzero_start() {
        let mut falloc = FrameAlloc::new(0x1000, 0x40_0000);
        assert_eq!(falloc.allocated(), 0);
        falloc.alloc();
        falloc.alloc();
        assert_eq!(falloc.allocated(), 2);
        // An aligned region counts the frames skipped to align it.
        falloc.alloc_region(MEGAPAGE_SIZE, MEGAPAGE_SIZE);
        assert_eq!(falloc.allocated(), 0x40_0000 / PAGE_SIZE - 1);
        assert_eq!(
            falloc.allocated() + falloc.remaining(),
            0x3F_F000 / PAGE_SIZE
        );
    }

    #[test]
    fn sibling_pages_share_interior_nodes() {
        let (mut mem, mut falloc, aspace) = setup();
        let before = falloc.allocated();
        aspace.map_range(&mut mem, &mut falloc, 0x4000_0000, 16 * PAGE_SIZE);
        let used = falloc.allocated() - before;
        // 16 data frames + at most 2 interior nodes (L1 + L2 created once).
        assert!(used <= 18, "used {used} frames");
    }
}

#[cfg(test)]
mod superpage_tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAlloc, AddressSpace) {
        let mut mem = PhysMem::new(32 * 1024 * 1024);
        let mut falloc = FrameAlloc::new(0, 32 * 1024 * 1024);
        let aspace = AddressSpace::new(&mut mem, &mut falloc);
        (mem, falloc, aspace)
    }

    #[test]
    fn superpage_translates_across_its_whole_span() {
        let (mut mem, mut falloc, aspace) = setup();
        let pa = 4 * MEGAPAGE_SIZE;
        aspace.map_superpage(&mut mem, &mut falloc, 0x4000_0000, pa);
        for off in [0u64, 0x1000, 0x1F_F000, MEGAPAGE_SIZE - 8] {
            assert_eq!(aspace.translate(&mem, 0x4000_0000 + off), Some(pa + off));
        }
        assert_eq!(aspace.translate(&mem, 0x4000_0000 + MEGAPAGE_SIZE), None);
    }

    #[test]
    fn translate_entry_reports_page_size() {
        let (mut mem, mut falloc, aspace) = setup();
        aspace.map_superpage(&mut mem, &mut falloc, 0x4000_0000, 2 * MEGAPAGE_SIZE);
        let frame = falloc.alloc();
        aspace.map_page(&mut mem, &mut falloc, 0x5000_0000, frame);
        assert_eq!(
            aspace.translate_entry(&mem, 0x4000_0000).map(|e| e.1),
            Some(MEGAPAGE_SIZE)
        );
        assert_eq!(
            aspace.translate_entry(&mem, 0x5000_0000).map(|e| e.1),
            Some(PAGE_SIZE)
        );
        // The timed walker's single walk yields the same mappings.
        for va in [0x4000_0123, 0x401F_FFF8, 0x5000_0008, 0x6000_0000] {
            assert_eq!(aspace.walk(&mem, va).leaf, aspace.translate_entry(&mem, va));
        }
    }

    #[test]
    fn superpage_walk_path_is_two_levels() {
        let (mut mem, mut falloc, aspace) = setup();
        aspace.map_superpage(&mut mem, &mut falloc, 0x4000_0000, 2 * MEGAPAGE_SIZE);
        assert_eq!(aspace.walk_path(&mem, 0x4000_0000).len(), 2);
    }

    #[test]
    #[should_panic(expected = "2 MiB aligned")]
    fn misaligned_superpage_panics() {
        let (mut mem, mut falloc, aspace) = setup();
        aspace.map_superpage(&mut mem, &mut falloc, 0x4000_1000, 0);
    }
}
