//! The heap proper: spaces, blocks, size classes, segregated free lists
//! and the functional object API shared by every timed agent.

use std::collections::{BTreeSet, HashMap};

use tracegc_mem::phys::PAGE_WORDS;
use tracegc_mem::PhysMem;
use tracegc_vmem::pagetable::MEGAPAGE_SIZE;
use tracegc_vmem::{AddressSpace, FrameAlloc, PAGE_SIZE};

use crate::layout::{
    bidi, conv, decode_cell_start, encode_free_cell_start, encode_live_cell_start, CellStart,
    Header, LayoutKind, ObjRef, HEADER_MARK_BIT, WORD,
};
use crate::space::SpaceMap;

/// Heap construction parameters.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Simulated physical memory size in bytes.
    pub phys_bytes: u64,
    /// Object layout (bidirectional by default, per the paper).
    pub layout: LayoutKind,
    /// Virtual address-space map.
    pub spaces: SpaceMap,
    /// Map heap memory with 2 MiB superpages instead of 4 KiB pages
    /// (§VII: "large heaps could use superpages instead of 4KB pages").
    pub superpages: bool,
    /// Block size in bytes (JikesRVM uses 64 KiB blocks).
    pub block_bytes: u64,
    /// Segregated-free-list cell sizes in bytes, ascending.
    pub size_classes: Vec<u64>,
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self {
            phys_bytes: 256 << 20,
            layout: LayoutKind::Bidirectional,
            spaces: SpaceMap::default(),
            superpages: false,
            block_bytes: 64 * 1024,
            size_classes: vec![
                16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 8192,
            ],
        }
    }
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No space left in the requested space.
    OutOfMemory,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => f.write_str("heap space exhausted"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Metadata for one mark-sweep block — the unit of work the reclamation
/// unit's block sweepers consume (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Virtual address of the block's first cell.
    pub base_va: u64,
    /// Cell size in bytes (the block's size class).
    pub cell_bytes: u64,
    /// Number of cells in the block.
    pub ncells: u64,
    /// Index into the size-class table.
    pub class: usize,
    /// VA of the first free cell, 0 when none.
    pub free_head: u64,
    /// Number of free cells.
    pub free_cells: u64,
}

/// A large-object-space allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LosObject {
    /// The object.
    pub obj: ObjRef,
    /// Pages occupied.
    pub pages: u64,
}

/// Running allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated since heap creation.
    pub objects_allocated: u64,
    /// Bytes requested by those allocations.
    pub bytes_allocated: u64,
    /// Mark-sweep blocks created.
    pub blocks_created: u64,
    /// Large objects allocated.
    pub los_objects: u64,
}

/// A shadow table entry for a page that is not mapped.
const UNMAPPED: u64 = u64::MAX;

/// 4 KiB pages per 2 MiB superpage.
const PAGES_PER_MEGAPAGE: u64 = MEGAPAGE_SIZE / PAGE_SIZE;

/// The frame of every mapped 4 KiB page of one VA region, indexed by
/// page within the region. A region is mapped from its base up (each
/// space grows by bump allocation), so the table is dense up to the
/// highest page mapped so far.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShadowRegion {
    first_page: u64,
    pages: u64,
    frames: Vec<u64>,
}

impl ShadowRegion {
    /// The region of `[va, va + len)`, rounded out to 2 MiB.
    fn new(va: u64, len: u64) -> Self {
        let first_page = va / MEGAPAGE_SIZE * PAGES_PER_MEGAPAGE;
        let end_page = (va + len).div_ceil(MEGAPAGE_SIZE) * PAGES_PER_MEGAPAGE;
        Self {
            first_page,
            pages: end_page - first_page,
            frames: Vec::new(),
        }
    }

    /// The index of `page` in the region, when the region holds it.
    #[inline]
    fn index(&self, page: u64) -> Option<usize> {
        let i = page.wrapping_sub(self.first_page);
        (i < self.pages).then_some(i as usize)
    }
}

/// An exact copy of what the heap's page tables say, answered without
/// walking them: the heap's only record of which pages are mapped.
///
/// Its regions are the four spaces and every range passed to
/// [`Heap::ensure_mapped_region`], each rounded out to 2 MiB so that no
/// superpage reaches past them; a page belongs to the first region that
/// holds it. [`Heap::ensure_mapped`] is the only code that maps pages
/// into a heap's tables. It asks the shadow whether a page is mapped,
/// maps only unmapped pages, and records every page it maps here (each
/// 4 KiB page of a superpage included). Nothing else writes page-table
/// frames, so the shadow and the walk agree on every VA, and a VA
/// outside every region is unmapped; debug builds assert it on every
/// translation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shadow {
    /// Mark-sweep, LOS, immortal and hwgc, the hottest first. A fixed
    /// array, so that the lookup of a heap VA is four unrolled compares:
    /// one `Vec` of every region made `read_va` about 1 ns slower.
    spaces: [ShadowRegion; 4],
    /// The ranges of `ensure_mapped_region`, in call order.
    scratch: Vec<ShadowRegion>,
}

impl Shadow {
    fn new(map: &SpaceMap) -> Self {
        Self {
            spaces: [
                ShadowRegion::new(map.ms_base, map.ms_size),
                ShadowRegion::new(map.los_base, map.los_size),
                ShadowRegion::new(map.immortal_base, map.immortal_size),
                ShadowRegion::new(map.hwgc_base, map.hwgc_size),
            ],
            scratch: Vec::new(),
        }
    }

    /// Adds `[va, va + len)`, rounded out to 2 MiB, as a region, unless
    /// one region already holds all of it.
    fn cover(&mut self, va: u64, len: u64) {
        let new = ShadowRegion::new(va, len);
        let end = |r: &ShadowRegion| r.first_page + r.pages;
        if !self
            .spaces
            .iter()
            .chain(&self.scratch)
            .any(|r| r.first_page <= new.first_page && end(&new) <= end(r))
        {
            self.scratch.push(new);
        }
    }

    /// The frame `page` maps to, `None` when it is unmapped.
    #[inline]
    fn frame(&self, page: u64) -> Option<u64> {
        let frame = self.spaces.iter().chain(&self.scratch).find_map(|r| {
            r.index(page)
                .map(|i| r.frames.get(i).copied().unwrap_or(UNMAPPED))
        })?;
        (frame != UNMAPPED).then_some(frame)
    }

    /// The physical address of `va`, `None` when it is unmapped.
    #[inline]
    fn translate(&self, va: u64) -> Option<u64> {
        self.frame(va / PAGE_SIZE)
            .map(|frame| frame + va % PAGE_SIZE)
    }

    /// The first region that holds `page`, and the page's index in it.
    ///
    /// # Panics
    ///
    /// Panics if no region holds `page`.
    fn region(&self, page: u64) -> (&ShadowRegion, usize) {
        self.spaces
            .iter()
            .chain(&self.scratch)
            .find_map(|r| r.index(page).map(|i| (r, i)))
            .unwrap_or_else(|| panic!("page {page:#x} lies outside every shadow region"))
    }

    /// [`Shadow::region`], mutably.
    fn region_mut(&mut self, page: u64) -> (&mut ShadowRegion, usize) {
        self.spaces
            .iter_mut()
            .chain(&mut self.scratch)
            .find_map(|r| r.index(page).map(|i| (r, i)))
            .unwrap_or_else(|| panic!("page {page:#x} lies outside every shadow region"))
    }

    /// The first run of unmapped pages in `[page, end)`, a range inside
    /// one 2 MiB span, as its first page and length; `None` when every
    /// page is mapped. A region holds whole spans, so one lookup answers
    /// for the range.
    ///
    /// # Panics
    ///
    /// Panics if no region holds `page`.
    fn unmapped_run(&self, page: u64, end: u64) -> Option<(u64, u64)> {
        let (region, i) = self.region(page);
        let mapped = |j: usize| region.frames.get(j).is_some_and(|&f| f != UNMAPPED);
        let end = i + (end - page) as usize;
        let start = (i..end).find(|&j| !mapped(j))?;
        let stop = (start..end).find(|&j| mapped(j)).unwrap_or(end);
        Some((region.first_page + start as u64, (stop - start) as u64))
    }

    /// Records that the `n` pages from `page`, inside one 2 MiB span, now
    /// map to `first` and then to consecutive frames from `rest`: one
    /// region lookup and at most one resize.
    ///
    /// # Panics
    ///
    /// Panics if no region holds `page`.
    fn record_run(&mut self, page: u64, n: u64, first: u64, rest: u64) {
        let (region, i) = self.region_mut(page);
        let end = i + n as usize;
        if region.frames.len() < end {
            region.frames.resize(end, UNMAPPED);
        }
        region.frames[i] = first;
        for (k, frame) in region.frames[i + 1..end].iter_mut().enumerate() {
            *frame = rest + k as u64 * PAGE_SIZE;
        }
    }
}

/// The objects reachable from the roots: one bit per word over the
/// allocated extents of the mark-sweep space and the LOS, the only
/// places an object's header can be, and a set for any other address
/// a malformed heap references.
pub(crate) struct Reach {
    /// `(base VA, bytes, first bit)` of each extent, in address order.
    extents: [(u64, u64, usize); 2],
    bits: Vec<u64>,
    /// Visited objects outside both extents; empty on every heap whose
    /// references all come from [`Heap::alloc`].
    others: BTreeSet<ObjRef>,
    /// Objects visited.
    count: u64,
}

impl Reach {
    fn new(heap: &Heap) -> Self {
        let s = heap.spaces();
        let mut extents = [
            (s.ms_base, heap.ms_next_va - s.ms_base, 0),
            (s.los_base, heap.los_next_va - s.los_base, 0),
        ];
        extents.sort_unstable();
        // Each extent starts on a fresh bitmap word.
        extents[1].2 = ((extents[0].1 / WORD) as usize).next_multiple_of(64);
        let words = extents[1].2 + (extents[1].1 / WORD) as usize;
        Self {
            extents,
            bits: vec![0; words.div_ceil(64)],
            others: BTreeSet::new(),
            count: 0,
        }
    }

    /// The bit of the word at `va`, when the bitmap covers it.
    #[inline]
    fn bit(&self, va: u64) -> Option<usize> {
        self.extents.iter().find_map(|&(base, bytes, first)| {
            let off = va.wrapping_sub(base);
            (off < bytes).then_some(first + (off / WORD) as usize)
        })
    }

    /// Visits `obj`: `true` when it was not visited before.
    #[inline]
    fn insert(&mut self, obj: ObjRef) -> bool {
        let new = match self.bit(obj.addr()) {
            Some(b) => {
                let (word, mask) = (b / 64, 1u64 << (b % 64));
                let new = self.bits[word] & mask == 0;
                self.bits[word] |= mask;
                new
            }
            None => self.others.insert(obj),
        };
        self.count += u64::from(new);
        new
    }

    /// Whether `obj` was visited.
    pub(crate) fn contains(&self, obj: ObjRef) -> bool {
        match self.bit(obj.addr()) {
            Some(b) => self.bits[b / 64] & (1 << (b % 64)) != 0,
            None => self.others.contains(&obj),
        }
    }

    /// Number of objects visited.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The visited objects.
    pub(crate) fn objects(&self) -> impl Iterator<Item = ObjRef> + '_ {
        let extents = self.extents.iter().flat_map(move |&(base, bytes, first)| {
            let words = &self.bits[first / 64..(first + (bytes / WORD) as usize).div_ceil(64)];
            words
                .iter()
                .enumerate()
                .filter(|&(_, &bits)| bits != 0)
                .flat_map(move |(w, &bits)| {
                    (0..64)
                        .filter(move |b| bits & (1 << b) != 0)
                        .map(move |b| ObjRef::new(base + (w * 64 + b) as u64 * WORD))
                })
        });
        extents.chain(self.others.iter().copied())
    }
}

/// Reads a heap's words a 4 KiB page at a time: the translation and the
/// chunk lookup are paid once per page, not once per word. A page whose
/// chunk is untouched reads as zeros, as [`PhysMem::read_u64`] does.
pub(crate) struct PageReader<'h> {
    heap: &'h Heap,
    /// VA of the page held; `u64::MAX` before the first read.
    page_va: u64,
    /// The page's words; `None` for an untouched chunk.
    words: Option<&'h [u64; PAGE_WORDS]>,
}

impl PageReader<'_> {
    /// The word at `va`, as [`Heap::read_va`] reads it.
    ///
    /// # Panics
    ///
    /// Panics as [`Heap::read_va`] does when `va` is unmapped, naming
    /// `va` itself.
    #[inline]
    pub(crate) fn read(&mut self, va: u64) -> u64 {
        let page_va = va & !(PAGE_SIZE - 1);
        if page_va != self.page_va {
            let pa = self.heap.va_to_pa(va);
            self.words = self.heap.phys.page(pa - va % PAGE_SIZE);
            self.page_va = page_va;
        }
        self.words
            .map_or(0, |words| words[(va % PAGE_SIZE / WORD) as usize])
    }
}

/// A walk over every object, reading through one [`PageReader`]: the
/// live cells of the mark-sweep blocks in order, then the LOS objects.
struct ObjectCursor<'h> {
    words: PageReader<'h>,
    block: usize,
    cell: u64,
    los: usize,
}

impl<'h> ObjectCursor<'h> {
    fn new(heap: &'h Heap) -> Self {
        Self {
            words: heap.page_reader(),
            block: 0,
            cell: 0,
            los: 0,
        }
    }

    /// The next object in the order of [`Heap::iter_objects`].
    #[inline]
    fn next_object(&mut self) -> Option<ObjRef> {
        let heap = self.words.heap;
        while let Some(block) = heap.blocks.get(self.block) {
            while self.cell < block.ncells {
                let cell = block.base_va + self.cell * block.cell_bytes;
                self.cell += 1;
                if let CellStart::Live { nrefs, .. } = decode_cell_start(self.words.read(cell)) {
                    let header = match heap.cfg.layout {
                        LayoutKind::Bidirectional => bidi::header_of_cell(cell, nrefs),
                        LayoutKind::Conventional => conv::header_of_cell(cell),
                    };
                    return Some(ObjRef::new(header));
                }
            }
            self.block += 1;
            self.cell = 0;
        }
        let los = heap.los_objects.get(self.los)?;
        self.los += 1;
        Some(los.obj)
    }
}

/// The simulated JVM heap.
///
/// Owns the physical memory, the page tables and all space metadata. The
/// API is purely functional (no timing): timed agents read and write the
/// same [`PhysMem`] through their own cost models.
#[derive(Debug, Clone)]
pub struct Heap {
    /// Simulated physical memory; agents access it directly.
    ///
    /// Only the heap maps pages, and it keeps an exact shadow of its
    /// page tables for functional translation. Writing page-table frames
    /// through `phys` is unsupported: the shadow would no longer match.
    pub phys: PhysMem,
    cfg: HeapConfig,
    aspace: AddressSpace,
    shadow: Shadow,
    falloc: FrameAlloc,
    blocks: Vec<BlockInfo>,
    /// Per-class stack of block indices that still have free cells.
    class_avail: Vec<Vec<usize>>,
    ms_next_va: u64,
    los_next_va: u64,
    immortal_next_va: u64,
    los_objects: Vec<LosObject>,
    roots: Vec<ObjRef>,
    /// Conventional mode: TIB address per (nrefs, fields, is_array) shape.
    tib_cache: HashMap<(u32, u32, bool), u64>,
    stats: HeapStats,
}

impl Heap {
    /// Creates an empty heap with fresh page tables.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no size classes,
    /// non-word-aligned classes, or classes too small for the minimal
    /// cell).
    pub fn new(cfg: HeapConfig) -> Self {
        assert!(!cfg.size_classes.is_empty(), "need at least one size class");
        assert!(
            cfg.size_classes.windows(2).all(|w| w[0] < w[1]),
            "size classes must be ascending"
        );
        assert!(
            cfg.size_classes
                .iter()
                .all(|&c| c % WORD == 0 && c >= 2 * WORD),
            "size classes must be word multiples >= 16"
        );
        assert!(
            cfg.block_bytes.is_multiple_of(PAGE_SIZE),
            "block size must be page-aligned"
        );
        let mut phys = PhysMem::new(cfg.phys_bytes);
        let mut falloc = FrameAlloc::new(0, cfg.phys_bytes);
        let aspace = AddressSpace::new(&mut phys, &mut falloc);
        let class_avail = vec![Vec::new(); cfg.size_classes.len()];
        let spaces = cfg.spaces;
        Self {
            phys,
            aspace,
            shadow: Shadow::new(&spaces),
            falloc,
            blocks: Vec::new(),
            class_avail,
            ms_next_va: spaces.ms_base,
            los_next_va: spaces.los_base,
            immortal_next_va: spaces.immortal_base,
            los_objects: Vec::new(),
            roots: Vec::new(),
            tib_cache: HashMap::new(),
            stats: HeapStats::default(),
            cfg,
        }
    }

    /// The heap's configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// The object layout in use.
    pub fn layout(&self) -> LayoutKind {
        self.cfg.layout
    }

    /// The page tables (hand the root to a
    /// [`Translator`](tracegc_vmem::Translator)).
    pub fn address_space(&self) -> AddressSpace {
        self.aspace
    }

    /// The space map.
    pub fn spaces(&self) -> &SpaceMap {
        &self.cfg.spaces
    }

    /// Allocation statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Mark-sweep block metadata, indexed by block id.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// Large objects currently allocated.
    pub fn los_objects(&self) -> &[LosObject] {
        &self.los_objects
    }

    /// The current root set.
    pub fn roots(&self) -> &[ObjRef] {
        &self.roots
    }

    /// Maps every unmapped page of `[va, va + len)`, which must lie in
    /// a shadow region; in 2 MiB mode, every unmapped superpage it
    /// touches. In 4 KiB mode it maps runs of unmapped pages, each ending
    /// at a 2 MiB span boundary or at a mapped page, one
    /// [`AddressSpace::map_run`] each; frames are drawn as one page at a
    /// time would draw them.
    fn ensure_mapped(&mut self, va: u64, len: u64) {
        if self.cfg.superpages {
            let first = va / MEGAPAGE_SIZE;
            let last = (va + len - 1) / MEGAPAGE_SIZE;
            for mp in first..=last {
                let base_page = mp * PAGES_PER_MEGAPAGE;
                if self.shadow.frame(base_page).is_none() {
                    let frame = self.falloc.alloc_region(MEGAPAGE_SIZE, MEGAPAGE_SIZE);
                    self.aspace.map_superpage(
                        &mut self.phys,
                        &mut self.falloc,
                        mp * MEGAPAGE_SIZE,
                        frame,
                    );
                    self.shadow
                        .record_run(base_page, PAGES_PER_MEGAPAGE, frame, frame + PAGE_SIZE);
                }
            }
            return;
        }
        let mut page = va / PAGE_SIZE;
        let end = (va + len - 1) / PAGE_SIZE + 1;
        while page < end {
            let span_end = ((page / PAGES_PER_MEGAPAGE + 1) * PAGES_PER_MEGAPAGE).min(end);
            let Some((run, pages)) = self.shadow.unmapped_run(page, span_end) else {
                page = span_end;
                continue;
            };
            let (first, rest) =
                self.aspace
                    .map_run(&mut self.phys, &mut self.falloc, run * PAGE_SIZE, pages);
            self.shadow.record_run(run, pages, first, rest);
            page = run + pages;
        }
    }

    /// Maps (if needed) an arbitrary virtual region — used for scratch
    /// structures like the software collector's mark stack, which in a
    /// real system the runtime would have mapped long before a GC. The
    /// shadow covers the region from then on.
    pub fn ensure_mapped_region(&mut self, va: u64, len: u64) {
        self.shadow.cover(va, len);
        self.ensure_mapped(va, len);
    }

    /// Translates a virtual address through the heap's own page tables
    /// (the zero-latency oracle used by functional accesses), answered
    /// from their shadow.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unmapped — functional accesses must never fault.
    #[inline]
    pub fn va_to_pa(&self, va: u64) -> u64 {
        self.try_va_to_pa(va)
            .unwrap_or_else(|| panic!("unmapped virtual address {va:#x}"))
    }

    /// [`Heap::va_to_pa`], with `None` for an unmapped `va`.
    #[inline]
    pub(crate) fn try_va_to_pa(&self, va: u64) -> Option<u64> {
        let pa = self.shadow.translate(va);
        debug_assert_eq!(
            pa,
            self.aspace.translate(&self.phys, va),
            "shadow translation of {va:#x} diverged from the page-table walk"
        );
        pa
    }

    /// Reads the word at virtual address `va`.
    #[inline]
    pub fn read_va(&self, va: u64) -> u64 {
        self.phys.read_u64(self.va_to_pa(va))
    }

    /// A reader of this heap's words a page at a time.
    pub(crate) fn page_reader(&self) -> PageReader<'_> {
        PageReader {
            heap: self,
            page_va: u64::MAX,
            words: None,
        }
    }

    /// Writes the word at virtual address `va`.
    pub fn write_va(&mut self, va: u64, value: u64) {
        let pa = self.va_to_pa(va);
        self.phys.write_u64(pa, value);
    }

    /// Allocates a contiguous physical region of whole pages (e.g. the
    /// driver's 4 MiB spill region, §V-E) and returns its physical base
    /// address.
    pub fn alloc_phys_region(&mut self, bytes: u64) -> u64 {
        self.falloc.alloc_region(bytes, PAGE_SIZE)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Bytes a cell must provide for an object of this shape under the
    /// heap's layout.
    pub fn cell_bytes_needed(&self, nrefs: u32, scalars: u32) -> u64 {
        match self.cfg.layout {
            LayoutKind::Bidirectional => bidi::cell_words(nrefs, scalars) * WORD,
            LayoutKind::Conventional => conv::cell_words(nrefs, scalars) * WORD,
        }
    }

    /// Allocates an object with `nrefs` reference slots (all initialized
    /// to null) and `scalars` scalar words (zeroed).
    ///
    /// Objects larger than the largest size class go to the large-object
    /// space; everything else goes through the segregated free lists.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when the target space is full,
    /// or when the conventional layout needs a new TIB for this shape and
    /// the immortal space cannot hold it.
    pub fn alloc(
        &mut self,
        nrefs: u32,
        scalars: u32,
        is_array: bool,
    ) -> Result<ObjRef, AllocError> {
        if self.cfg.layout == LayoutKind::Conventional && !self.tib_fits(nrefs, scalars, is_array) {
            return Err(AllocError::OutOfMemory);
        }
        let needed = self.cell_bytes_needed(nrefs, scalars);
        let obj = if needed > *self.cfg.size_classes.last().expect("non-empty classes") {
            self.alloc_los(nrefs, scalars, is_array, needed)?
        } else {
            let class = self
                .cfg
                .size_classes
                .iter()
                .position(|&c| c >= needed)
                .expect("needed fits the largest class");
            let cell = self.pop_free_cell(class)?;
            self.format_object(cell, nrefs, scalars, is_array)
        };
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += needed;
        Ok(obj)
    }

    fn pop_free_cell(&mut self, class: usize) -> Result<u64, AllocError> {
        loop {
            if let Some(&bidx) = self.class_avail[class].last() {
                let block = &mut self.blocks[bidx];
                if block.free_cells == 0 {
                    self.class_avail[class].pop();
                    continue;
                }
                let cell = block.free_head;
                debug_assert!(cell != 0, "free_cells > 0 but empty list");
                block.free_cells -= 1;
                let next = match decode_cell_start(self.read_va(cell)) {
                    CellStart::Free { next } => next,
                    CellStart::Live { .. } => panic!("allocating a live cell at {cell:#x}"),
                };
                self.blocks[bidx].free_head = next;
                return Ok(cell);
            }
            self.new_block(class)?;
        }
    }

    fn new_block(&mut self, class: usize) -> Result<(), AllocError> {
        let spaces = self.cfg.spaces;
        if self.ms_next_va + self.cfg.block_bytes > spaces.ms_base + spaces.ms_size {
            return Err(AllocError::OutOfMemory);
        }
        let base_va = self.ms_next_va;
        self.ms_next_va += self.cfg.block_bytes;
        self.ensure_mapped(base_va, self.cfg.block_bytes);
        let cell_bytes = self.cfg.size_classes[class];
        let ncells = self.cfg.block_bytes / cell_bytes;
        // Thread the initial free list through the cells in address order.
        for i in 0..ncells {
            let cell = base_va + i * cell_bytes;
            let next = if i + 1 < ncells { cell + cell_bytes } else { 0 };
            self.write_va(cell, encode_free_cell_start(next));
        }
        let bidx = self.blocks.len();
        self.blocks.push(BlockInfo {
            base_va,
            cell_bytes,
            ncells,
            class,
            free_head: base_va,
            free_cells: ncells,
        });
        self.class_avail[class].push(bidx);
        self.stats.blocks_created += 1;
        Ok(())
    }

    fn alloc_los(
        &mut self,
        nrefs: u32,
        scalars: u32,
        is_array: bool,
        needed: u64,
    ) -> Result<ObjRef, AllocError> {
        let spaces = self.cfg.spaces;
        let pages = needed.div_ceil(PAGE_SIZE);
        if self.los_next_va + pages * PAGE_SIZE > spaces.los_base + spaces.los_size {
            return Err(AllocError::OutOfMemory);
        }
        let base = self.los_next_va;
        self.los_next_va += pages * PAGE_SIZE;
        self.ensure_mapped(base, pages * PAGE_SIZE);
        let obj = self.format_object(base, nrefs, scalars, is_array);
        self.los_objects.push(LosObject { obj, pages });
        self.stats.los_objects += 1;
        Ok(obj)
    }

    /// Writes a fresh object image into the cell at `cell` and returns
    /// its reference.
    fn format_object(&mut self, cell: u64, nrefs: u32, scalars: u32, is_array: bool) -> ObjRef {
        match self.cfg.layout {
            LayoutKind::Bidirectional => {
                self.write_va(cell, encode_live_cell_start(nrefs, is_array));
                let header = bidi::header_of_cell(cell, nrefs);
                let obj = ObjRef::new(header);
                for i in 0..nrefs {
                    self.write_va(bidi::ref_slot(obj, i), 0);
                }
                self.write_va(header, Header::new_object(nrefs, is_array).raw());
                for i in 0..scalars {
                    self.write_va(bidi::scalar_slot(obj, i), 0);
                }
                obj
            }
            LayoutKind::Conventional => {
                // The cell-start word is still needed for linear sweeps;
                // the conventional layout's cost shows up in *tracing*.
                let fields = nrefs + scalars;
                self.write_va(cell, encode_live_cell_start(nrefs, is_array));
                let header = conv::header_of_cell(cell);
                let obj = ObjRef::new(header);
                self.write_va(header, Header::new_object(nrefs, is_array).raw());
                let tib = self.tib_for(nrefs, fields, is_array);
                self.write_va(conv::tib_slot(obj), tib);
                for i in 0..fields {
                    self.write_va(conv::field_slot(obj, i), 0);
                }
                obj
            }
        }
    }

    /// Whether the shape has a TIB, or the immortal space can hold one.
    /// (A shape whose field count wraps never fits a cell, so the key it
    /// looks up does not matter.)
    fn tib_fits(&self, nrefs: u32, scalars: u32, is_array: bool) -> bool {
        let spaces = self.cfg.spaces;
        self.tib_cache
            .contains_key(&(nrefs, nrefs.wrapping_add(scalars), is_array))
            || self.immortal_next_va + (1 + nrefs as u64) * WORD
                <= spaces.immortal_base + spaces.immortal_size
    }

    /// Allocates (or reuses) a TIB describing an object shape:
    /// `[nrefs][off_0]..[off_{n-1}]` in the immortal space. Reference
    /// fields are interspersed (every other field slot) as in real
    /// class layouts. [`Heap::alloc`] has checked that it fits.
    fn tib_for(&mut self, nrefs: u32, fields: u32, is_array: bool) -> u64 {
        if let Some(&tib) = self.tib_cache.get(&(nrefs, fields, is_array)) {
            return tib;
        }
        let words = 1 + nrefs as u64;
        let tib = self.immortal_next_va;
        self.immortal_next_va += words * WORD;
        self.ensure_mapped(tib, words * WORD);
        self.write_va(tib, nrefs as u64);
        for i in 0..nrefs {
            let offset = Self::conv_ref_offset(i, nrefs, fields);
            self.write_va(tib + (1 + i as u64) * WORD, offset as u64);
        }
        self.tib_cache.insert((nrefs, fields, is_array), tib);
        tib
    }

    /// Field offset of reference `i` in a conventional object: spread the
    /// references across the field area to model interspersed layouts.
    fn conv_ref_offset(i: u32, nrefs: u32, fields: u32) -> u32 {
        if nrefs == 0 {
            return 0;
        }
        if fields >= 2 * nrefs {
            2 * i // every other slot
        } else {
            i // not enough room to intersperse
        }
    }

    // ------------------------------------------------------------------
    // Object access
    // ------------------------------------------------------------------

    /// Reads and decodes an object's header.
    pub fn header(&self, obj: ObjRef) -> Header {
        Header::from_raw(self.read_va(obj.addr()))
    }

    /// Number of reference slots of `obj`.
    pub fn nrefs(&self, obj: ObjRef) -> u32 {
        self.header(obj).nrefs()
    }

    /// Virtual address of reference slot `i` under the active layout.
    pub fn ref_slot_va(&self, obj: ObjRef, i: u32) -> u64 {
        match self.cfg.layout {
            LayoutKind::Bidirectional => bidi::ref_slot(obj, i),
            LayoutKind::Conventional => {
                let tib = self.read_va(conv::tib_slot(obj));
                let offset = self.read_va(tib + (1 + i as u64) * WORD) as u32;
                conv::field_slot(obj, offset)
            }
        }
    }

    /// Stores `target` (or null) into reference slot `i` of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_ref(&mut self, obj: ObjRef, i: u32, target: Option<ObjRef>) {
        assert!(i < self.nrefs(obj), "reference index out of range");
        let va = self.ref_slot_va(obj, i);
        self.write_va(va, target.map_or(0, ObjRef::addr));
    }

    /// Loads reference slot `i` of `obj`.
    pub fn get_ref(&self, obj: ObjRef, i: u32) -> Option<ObjRef> {
        let va = self.ref_slot_va(obj, i);
        let raw = self.read_va(va);
        (raw != 0).then(|| ObjRef::new(raw))
    }

    /// All non-null outgoing references of `obj`.
    pub fn refs_of(&self, obj: ObjRef) -> Vec<ObjRef> {
        let n = self.nrefs(obj);
        (0..n).filter_map(|i| self.get_ref(obj, i)).collect()
    }

    /// Whether `obj`'s mark bit is set.
    pub fn is_marked(&self, obj: ObjRef) -> bool {
        self.header(obj).is_marked()
    }

    /// Functionally marks `obj` (used by oracles and tests; timed agents
    /// go through [`PhysMem::fetch_or_u64`] themselves).
    pub fn mark(&mut self, obj: ObjRef) -> bool {
        let pa = self.va_to_pa(obj.addr());
        let old = self.phys.fetch_or_u64(pa, HEADER_MARK_BIT);
        Header::from_raw(old).is_marked()
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// Publishes the root set into the hwgc space: `[count][ref_0]..`,
    /// the region the unit's reader consumes (§IV-C, §V-A).
    pub fn set_roots(&mut self, roots: &[ObjRef]) {
        let spaces = self.cfg.spaces;
        let bytes = (1 + roots.len() as u64) * WORD;
        assert!(
            bytes <= spaces.hwgc_size,
            "too many roots for the hwgc space"
        );
        self.ensure_mapped(spaces.hwgc_base, bytes);
        self.write_va(spaces.hwgc_base, roots.len() as u64);
        for (i, r) in roots.iter().enumerate() {
            self.write_va(spaces.hwgc_base + (1 + i as u64) * WORD, r.addr());
        }
        self.roots = roots.to_vec();
    }

    // ------------------------------------------------------------------
    // Traversal & sweep support
    // ------------------------------------------------------------------

    /// The reachability oracle: every object reachable from the roots,
    /// ignoring mark bits. Every timed collector's mark set is compared
    /// against this.
    ///
    /// # Panics
    ///
    /// Panics if a reachable reference is unaligned or a reachable
    /// object lies on an unmapped page, which only a malformed heap has.
    pub fn reachable_from_roots(&self) -> BTreeSet<ObjRef> {
        self.reach().objects().collect()
    }

    /// The number of objects [`Heap::reachable_from_roots`] returns,
    /// without building the set.
    ///
    /// # Panics
    ///
    /// Panics as [`Heap::reachable_from_roots`] does.
    pub fn reachable_count(&self) -> usize {
        self.reach().count() as usize
    }

    /// Visits the closure of the roots into a [`Reach`] with a
    /// depth-first stack, panicking as
    /// [`Heap::reachable_from_roots`] does.
    pub(crate) fn reach(&self) -> Reach {
        let mut reach = Reach::new(self);
        let mut words = self.page_reader();
        let mut stack = Vec::new();
        for &root in &self.roots {
            if reach.insert(root) {
                stack.push(root);
            }
        }
        while let Some(obj) = stack.pop() {
            let nrefs = Header::from_raw(words.read(obj.addr())).nrefs();
            let tib = match self.cfg.layout {
                LayoutKind::Conventional if nrefs > 0 => words.read(conv::tib_slot(obj)),
                _ => 0,
            };
            for i in 0..nrefs {
                let slot = match self.cfg.layout {
                    LayoutKind::Bidirectional => bidi::ref_slot(obj, i),
                    LayoutKind::Conventional => {
                        let offset = self.read_va(tib + (1 + i as u64) * WORD) as u32;
                        conv::field_slot(obj, offset)
                    }
                };
                let raw = words.read(slot);
                if raw != 0 {
                    let target = ObjRef::new(raw);
                    if reach.insert(target) {
                        stack.push(target);
                    }
                }
            }
        }
        reach
    }

    /// The set of objects whose mark bit is currently set (linear scan of
    /// all blocks plus the LOS).
    pub fn marked_set(&self) -> BTreeSet<ObjRef> {
        self.objects_with_headers()
            .filter(|(_, header)| header.is_marked())
            .map(|(obj, _)| obj)
            .collect()
    }

    /// The objects of [`Heap::iter_objects`], in the same order, each
    /// with its header, through one page reader and without collecting
    /// them.
    pub(crate) fn objects_with_headers(&self) -> impl Iterator<Item = (ObjRef, Header)> + '_ {
        let mut at = ObjectCursor::new(self);
        std::iter::from_fn(move || {
            let obj = at.next_object()?;
            Some((obj, Header::from_raw(at.words.read(obj.addr()))))
        })
    }

    /// Iterates over every live-cell object in the mark-sweep space and
    /// the LOS, in address order — exactly what a linear sweep sees.
    pub fn iter_objects(&self) -> Vec<ObjRef> {
        let mut at = ObjectCursor::new(self);
        std::iter::from_fn(|| at.next_object()).collect()
    }

    /// Updates a block's free-list metadata after a sweep agent rebuilt
    /// the in-memory list.
    ///
    /// # Panics
    ///
    /// Panics if `bidx` is out of range.
    pub fn set_block_free_list(&mut self, bidx: usize, free_head: u64, free_cells: u64) {
        let block = &mut self.blocks[bidx];
        block.free_head = free_head;
        block.free_cells = free_cells;
    }

    /// Recomputes the allocator's per-class available-block stacks after
    /// a sweep.
    pub fn finish_sweep(&mut self) {
        for stack in &mut self.class_avail {
            stack.clear();
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.free_cells > 0 {
                self.class_avail[b.class].push(i);
            }
        }
    }

    /// Total free cells across all blocks (consistency checks).
    pub fn total_free_cells(&self) -> u64 {
        self.blocks.iter().map(|b| b.free_cells).sum()
    }
}

/// The traversal and scans as first written, kept as the references
/// the fast paths are tested against.
#[cfg(test)]
impl Heap {
    /// The reachability oracle as first written: a breadth-first search
    /// into a `BTreeSet`.
    pub(crate) fn reachable_by_set(&self) -> BTreeSet<ObjRef> {
        let mut seen: BTreeSet<ObjRef> = BTreeSet::new();
        let mut frontier: std::collections::VecDeque<ObjRef> = self.roots.iter().copied().collect();
        while let Some(obj) = frontier.pop_front() {
            if !seen.insert(obj) {
                continue;
            }
            for r in self.refs_of(obj) {
                if !seen.contains(&r) {
                    frontier.push_back(r);
                }
            }
        }
        seen
    }

    /// Frames the heap has drawn for pages and page tables.
    pub(crate) fn frames_allocated(&self) -> u64 {
        self.falloc.allocated()
    }

    pub(crate) fn iter_objects_reference(&self) -> Vec<ObjRef> {
        let mut out = Vec::new();
        for block in &self.blocks {
            for i in 0..block.ncells {
                let cell = block.base_va + i * block.cell_bytes;
                if let CellStart::Live { nrefs, .. } = decode_cell_start(self.read_va(cell)) {
                    let header = match self.cfg.layout {
                        LayoutKind::Bidirectional => bidi::header_of_cell(cell, nrefs),
                        LayoutKind::Conventional => conv::header_of_cell(cell),
                    };
                    out.push(ObjRef::new(header));
                }
            }
        }
        out.extend(self.los_objects.iter().map(|l| l.obj));
        out
    }

    pub(crate) fn marked_set_reference(&self) -> BTreeSet<ObjRef> {
        let mut out = BTreeSet::new();
        for obj in self.iter_objects_reference() {
            if self.is_marked(obj) {
                out.insert(obj);
            }
        }
        out
    }

    /// `ensure_mapped_region` as first written: one page, or one 2 MiB
    /// superpage, at a time, each looked up in and recorded to the shadow
    /// on its own.
    pub(crate) fn ensure_mapped_region_per_page(&mut self, va: u64, len: u64) {
        self.shadow.cover(va, len);
        if self.cfg.superpages {
            let first = va / MEGAPAGE_SIZE;
            let last = (va + len - 1) / MEGAPAGE_SIZE;
            for mp in first..=last {
                let base_page = mp * PAGES_PER_MEGAPAGE;
                if self.shadow.frame(base_page).is_none() {
                    let frame = self.falloc.alloc_region(MEGAPAGE_SIZE, MEGAPAGE_SIZE);
                    self.aspace.map_superpage(
                        &mut self.phys,
                        &mut self.falloc,
                        mp * MEGAPAGE_SIZE,
                        frame,
                    );
                    for i in 0..PAGES_PER_MEGAPAGE {
                        self.shadow.record(base_page + i, frame + i * PAGE_SIZE);
                    }
                }
            }
            return;
        }
        let first = va / PAGE_SIZE;
        let last = (va + len - 1) / PAGE_SIZE;
        for page in first..=last {
            if self.shadow.frame(page).is_none() {
                let frame = self.falloc.alloc();
                self.aspace
                    .map_page(&mut self.phys, &mut self.falloc, page * PAGE_SIZE, frame);
                self.shadow.record(page, frame);
            }
        }
    }

    /// Whether the two heaps' shadows hold the same regions and frames.
    pub(crate) fn same_shadow(&self, other: &Heap) -> bool {
        self.shadow == other.shadow
    }
}

#[cfg(test)]
impl Shadow {
    /// Records that `page` now maps to `frame`: the per-page reference's
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if no region holds `page`.
    fn record(&mut self, page: u64, frame: u64) {
        let (region, i) = self.region_mut(page);
        if region.frames.len() <= i {
            region.frames.resize(i + 1, UNMAPPED);
        }
        region.frames[i] = frame;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> Heap {
        Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        })
    }

    #[test]
    fn alloc_and_read_back() {
        let mut h = small_heap();
        let obj = h.alloc(2, 3, false).unwrap();
        assert_eq!(h.nrefs(obj), 2);
        assert!(!h.is_marked(obj));
        assert!(h.header(obj).is_live());
        assert_eq!(h.refs_of(obj), vec![]);
    }

    #[test]
    fn set_and_get_refs() {
        let mut h = small_heap();
        let a = h.alloc(2, 0, false).unwrap();
        let b = h.alloc(0, 1, false).unwrap();
        h.set_ref(a, 1, Some(b));
        assert_eq!(h.get_ref(a, 0), None);
        assert_eq!(h.get_ref(a, 1), Some(b));
        assert_eq!(h.refs_of(a), vec![b]);
        h.set_ref(a, 1, None);
        assert_eq!(h.refs_of(a), vec![]);
    }

    #[test]
    fn objects_get_distinct_cells() {
        let mut h = small_heap();
        let mut addrs = BTreeSet::new();
        for _ in 0..1000 {
            let o = h.alloc(1, 1, false).unwrap();
            assert!(addrs.insert(o.addr()), "cell reused while live");
        }
    }

    #[test]
    fn large_object_goes_to_los() {
        let mut h = small_heap();
        let big = h.alloc(2000, 0, true).unwrap();
        assert!(h.spaces().in_los(big.addr()));
        assert_eq!(h.los_objects().len(), 1);
        assert_eq!(h.nrefs(big), 2000);
        assert!(h.header(big).is_array());
    }

    #[test]
    fn reachability_oracle_follows_graph() {
        let mut h = small_heap();
        let a = h.alloc(1, 0, false).unwrap();
        let b = h.alloc(1, 0, false).unwrap();
        let c = h.alloc(0, 0, false).unwrap();
        let dead = h.alloc(1, 0, false).unwrap();
        h.set_ref(a, 0, Some(b));
        h.set_ref(b, 0, Some(c));
        h.set_ref(dead, 0, Some(c));
        h.set_roots(&[a]);
        let live = h.reachable_from_roots();
        assert!(live.contains(&a) && live.contains(&b) && live.contains(&c));
        assert!(!live.contains(&dead));
    }

    #[test]
    fn cycles_do_not_hang_the_oracle() {
        let mut h = small_heap();
        let a = h.alloc(1, 0, false).unwrap();
        let b = h.alloc(1, 0, false).unwrap();
        h.set_ref(a, 0, Some(b));
        h.set_ref(b, 0, Some(a));
        h.set_roots(&[a]);
        assert_eq!(h.reachable_from_roots().len(), 2);
    }

    #[test]
    fn mark_returns_previous_state() {
        let mut h = small_heap();
        let a = h.alloc(0, 0, false).unwrap();
        assert!(!h.mark(a));
        assert!(h.mark(a));
        assert!(h.is_marked(a));
    }

    #[test]
    fn roots_are_visible_in_hwgc_space() {
        let mut h = small_heap();
        let a = h.alloc(0, 0, false).unwrap();
        let b = h.alloc(0, 0, false).unwrap();
        h.set_roots(&[a, b]);
        let base = h.spaces().hwgc_base;
        assert_eq!(h.read_va(base), 2);
        assert_eq!(h.read_va(base + 8), a.addr());
        assert_eq!(h.read_va(base + 16), b.addr());
    }

    #[test]
    fn iter_objects_sees_all_allocations() {
        let mut h = small_heap();
        let mut allocated = BTreeSet::new();
        for i in 0..200u32 {
            allocated.insert(h.alloc(i % 5, i % 7, false).unwrap());
        }
        let seen: BTreeSet<ObjRef> = h.iter_objects().into_iter().collect();
        assert_eq!(seen, allocated);
    }

    #[test]
    fn free_list_counts_stay_consistent() {
        let mut h = small_heap();
        let before = h.total_free_cells();
        let _ = h.alloc(1, 1, false).unwrap();
        // One block was created lazily; one cell consumed.
        assert!(h.total_free_cells() > 0);
        assert_eq!(h.blocks().len(), 1);
        let after_one = h.total_free_cells();
        let _ = h.alloc(1, 1, false).unwrap();
        assert_eq!(h.total_free_cells(), after_one - 1);
        assert!(before == 0);
    }

    #[test]
    fn conventional_layout_roundtrips_refs() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            layout: LayoutKind::Conventional,
            ..HeapConfig::default()
        });
        let a = h.alloc(3, 3, false).unwrap();
        let b = h.alloc(0, 0, false).unwrap();
        h.set_ref(a, 0, Some(b));
        h.set_ref(a, 2, Some(a));
        assert_eq!(h.refs_of(a), vec![b, a]);
        // TIBs are shared across same-shape objects.
        let c = h.alloc(3, 3, false).unwrap();
        let tib_a = h.read_va(conv::tib_slot(a));
        let tib_c = h.read_va(conv::tib_slot(c));
        assert_eq!(tib_a, tib_c);
        assert!(h.spaces().in_immortal(tib_a));
    }

    #[test]
    fn conventional_oracle_matches_bidirectional() {
        // The same graph built under both layouts yields the same
        // reachable count.
        let build = |layout| {
            let mut h = Heap::new(HeapConfig {
                phys_bytes: 64 << 20,
                layout,
                ..HeapConfig::default()
            });
            let objs: Vec<ObjRef> = (0..50).map(|i| h.alloc(2, i % 4, false).unwrap()).collect();
            for i in 0..40usize {
                h.set_ref(objs[i], 0, Some(objs[i + 1]));
                h.set_ref(objs[i], 1, Some(objs[(i * 7) % 41]));
            }
            h.set_roots(&[objs[0]]);
            h.reachable_from_roots().len()
        };
        assert_eq!(
            build(LayoutKind::Bidirectional),
            build(LayoutKind::Conventional)
        );
    }

    #[test]
    fn out_of_memory_is_an_error() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 16 << 20,
            spaces: SpaceMap {
                ms_size: 64 * 1024, // one block only
                ..SpaceMap::default()
            },
            ..HeapConfig::default()
        });
        let mut got_oom = false;
        for _ in 0..10_000 {
            if h.alloc(0, 1000, false).is_err() {
                got_oom = true;
                break;
            }
        }
        assert!(got_oom);
    }

    #[test]
    fn failed_allocations_are_not_counted() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 16 << 20,
            spaces: SpaceMap {
                ms_size: 64 * 1024,  // one block of 1 024 64-byte cells
                los_size: 64 * 1024, // four 16 KiB large objects
                ..SpaceMap::default()
            },
            ..HeapConfig::default()
        });
        // (nrefs, scalars) of a 64-byte cell, then of a 16 KiB LOS object.
        for (nrefs, scalars, fits) in [(1, 5, 1024u64), (0, 2046, 4)] {
            let before = h.stats();
            for _ in 0..fits {
                h.alloc(nrefs, scalars, false).unwrap();
            }
            assert_eq!(h.alloc(nrefs, scalars, false), Err(AllocError::OutOfMemory));
            let after = h.stats();
            assert_eq!(after.objects_allocated - before.objects_allocated, fits);
            assert_eq!(
                after.bytes_allocated - before.bytes_allocated,
                fits * h.cell_bytes_needed(nrefs, scalars)
            );
        }
    }

    #[test]
    fn conventional_tibs_past_the_immortal_space_are_out_of_memory() {
        // Conventional shapes whose TIBs overflow the 16 MiB immortal
        // space, though their cells fit: one TIB of 3 000 001 words, and
        // distinct TIBs of 1, 2, 3, ... words.
        let conventional = || {
            Heap::new(HeapConfig {
                layout: LayoutKind::Conventional,
                ..HeapConfig::default()
            })
        };
        assert_eq!(
            conventional().alloc(3_000_000, 0, false),
            Err(AllocError::OutOfMemory)
        );
        let mut h = conventional();
        let first_oom = (0..6_000).find(|&nrefs| h.alloc(nrefs, 0, false).is_err());
        let nrefs = first_oom.expect("6 000 distinct TIBs overflow 16 MiB");
        assert_eq!(h.alloc(nrefs, 0, false), Err(AllocError::OutOfMemory));
        // A shape whose TIB exists still allocates.
        assert!(h.alloc(nrefs - 1, 0, false).is_ok());
    }

    #[test]
    fn a_phys_region_draws_the_frames_of_one_page_at_a_time() {
        // After 4 KiB mappings and after a superpage's aligned draw.
        for superpages in [false, true] {
            let mut h = Heap::new(HeapConfig {
                phys_bytes: 64 << 20,
                superpages,
                ..HeapConfig::default()
            });
            h.alloc(1, 1, false).unwrap();
            for bytes in [
                1,
                8,
                PAGE_SIZE,
                PAGE_SIZE + 8,
                64 << 10,
                4 << 20,
                (4 << 20) + 1,
            ] {
                let mut looped = h.falloc.clone();
                let want = looped.alloc();
                for _ in 1..bytes.div_ceil(PAGE_SIZE) {
                    looped.alloc();
                }
                assert_eq!(h.alloc_phys_region(bytes), want, "{bytes} bytes");
                assert_eq!(h.falloc.allocated(), looped.allocated(), "{bytes} bytes");
            }
        }
    }

    #[test]
    fn phys_region_allocation_is_contiguous() {
        let mut h = small_heap();
        let base = h.alloc_phys_region(4 << 20);
        // Writable across the whole region.
        h.phys.write_u64(base, 1);
        h.phys.write_u64(base + (4 << 20) - 8, 2);
        assert_eq!(h.phys.read_u64(base), 1);
    }
}

#[cfg(test)]
mod superpage_tests {
    use super::*;
    use crate::verify::{check_free_lists, software_mark, software_sweep};

    fn super_heap() -> Heap {
        Heap::new(HeapConfig {
            phys_bytes: 128 << 20,
            superpages: true,
            ..HeapConfig::default()
        })
    }

    #[test]
    fn superpage_heap_allocates_and_collects() {
        let mut h = super_heap();
        let objs: Vec<ObjRef> = (0..2000)
            .map(|i| h.alloc(2, (i % 5) as u32, false).unwrap())
            .collect();
        for i in 0..1000usize {
            h.set_ref(objs[i], 0, Some(objs[(i + 1) % 1000]));
        }
        h.set_roots(&[objs[0]]);
        assert_eq!(software_mark(&mut h), 1000);
        software_sweep(&mut h);
        check_free_lists(&h).unwrap();
    }

    #[test]
    fn superpage_mappings_report_two_mib_entries() {
        let mut h = super_heap();
        let obj = h.alloc(1, 1, false).unwrap();
        let (pa, page_bytes) = h
            .address_space()
            .translate_entry(&h.phys, obj.addr())
            .expect("mapped");
        assert_eq!(page_bytes, 2 << 20);
        assert_eq!(h.va_to_pa(obj.addr()), pa);
    }

    #[test]
    fn superpage_and_4k_heaps_hold_identical_contents() {
        let build = |superpages| {
            let mut h = Heap::new(HeapConfig {
                phys_bytes: 128 << 20,
                superpages,
                ..HeapConfig::default()
            });
            let objs: Vec<ObjRef> = (0..500).map(|_| h.alloc(1, 2, false).unwrap()).collect();
            for w in objs.windows(2) {
                h.set_ref(w[0], 0, Some(w[1]));
            }
            h.set_roots(&[objs[0]]);
            h.reachable_from_roots().len()
        };
        assert_eq!(build(false), build(true));
    }
}
