//! Object layout: header encoding, cell-start words and geometry helpers.
//!
//! The paper found 34 unused bits in JikesRVM's status word and packs into
//! them a 32-bit reference count (MSB set for arrays), a mark bit and a
//! live-cell tag bit (§V-A, Fig. 11). The same count is replicated in the
//! first word of the cell so the sweeper can scan blocks linearly without
//! knowing object types.

/// Bytes per machine word; the heap is entirely word-granular.
pub const WORD: u64 = 8;

/// Which object layout the heap uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutKind {
    /// The paper's bidirectional layout (Fig. 6b): reference fields at
    /// negative offsets from the header, scalars at positive offsets.
    /// One header read yields the mark bit *and* the reference count.
    #[default]
    Bidirectional,
    /// The conventional TIB layout (Fig. 6a): the header points to a
    /// type-information block listing reference-field offsets, costing
    /// two extra memory accesses per object on a cacheless client.
    Conventional,
}

/// A reference to a heap object: the virtual address of its header word.
///
/// # Examples
///
/// ```
/// use tracegc_heap::ObjRef;
///
/// let r = ObjRef::new(0x4000_0010);
/// assert_eq!(r.addr(), 0x4000_0010);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(u64);

impl ObjRef {
    /// Wraps a header virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the address is not word-aligned or is null.
    pub fn new(addr: u64) -> Self {
        assert!(addr != 0, "null object reference");
        assert!(
            addr.is_multiple_of(WORD),
            "unaligned object reference {addr:#x}"
        );
        Self(addr)
    }

    /// The header's virtual address.
    pub fn addr(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ObjRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj@{:#x}", self.0)
    }
}

const TAG_BIT: u64 = 1 << 0;
const MARK_BIT: u64 = 1 << 1;
const NREFS_SHIFT: u32 = 2;
const NREFS_MASK: u64 = 0xFFFF_FFFF;
const ARRAY_FLAG: u32 = 1 << 31;

/// Maximum representable reference count (31 bits; bit 31 is the array
/// flag, per §V-A).
pub const MAX_NREFS: u32 = (1 << 31) - 1;

/// The bit the marker ORs into the header — the single-AMO mark
/// operation of §IV-A.II.
pub const HEADER_MARK_BIT: u64 = MARK_BIT;

/// A decoded object header word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header(u64);

impl Header {
    /// Builds a fresh (unmarked) object header.
    ///
    /// # Panics
    ///
    /// Panics if `nrefs` exceeds [`MAX_NREFS`].
    pub fn new_object(nrefs: u32, is_array: bool) -> Self {
        assert!(nrefs <= MAX_NREFS, "too many references: {nrefs}");
        let field = nrefs | if is_array { ARRAY_FLAG } else { 0 };
        Self(((field as u64) << NREFS_SHIFT) | TAG_BIT)
    }

    /// Reinterprets a raw header word.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit encoding stored in memory.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Tag bit: 1 for all live cells (§V-A — "useful for the reclamation
    /// unit").
    pub fn is_live(self) -> bool {
        self.0 & TAG_BIT != 0
    }

    /// Whether the mark bit is set.
    pub fn is_marked(self) -> bool {
        self.0 & MARK_BIT != 0
    }

    /// This header with the mark bit set.
    pub fn with_mark(self) -> Self {
        Self(self.0 | MARK_BIT)
    }

    /// This header with the mark bit cleared (done during sweep).
    pub fn without_mark(self) -> Self {
        Self(self.0 & !MARK_BIT)
    }

    /// Number of outgoing references.
    pub fn nrefs(self) -> u32 {
        (((self.0 >> NREFS_SHIFT) & NREFS_MASK) as u32) & !ARRAY_FLAG
    }

    /// Whether the MSB of the reference-count field marks this as an
    /// array (§V-A).
    pub fn is_array(self) -> bool {
        (((self.0 >> NREFS_SHIFT) & NREFS_MASK) as u32) & ARRAY_FLAG != 0
    }
}

/// The decoded first word of a cell, as seen by the block sweeper
/// (Fig. 11): live cells replicate the reference count with a `0b101`
/// tag pattern; free cells hold the next free-list pointer (low bits
/// zero because pointers are 8-byte aligned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStart {
    /// The cell holds a (possibly dead) object.
    Live {
        /// Replicated reference count.
        nrefs: u32,
        /// Replicated array flag.
        is_array: bool,
    },
    /// The cell is on a free list; `next` is the address of the next free
    /// cell or 0 at the end of the list.
    Free {
        /// Next free cell (cell-start VA), 0 when last.
        next: u64,
    },
}

const CELL_LIVE_PATTERN: u64 = 0b101;
const CELL_NREFS_SHIFT: u32 = 3;
const CELL_ARRAY_BIT: u64 = 1 << 35;

/// Encodes the cell-start word for a live object cell.
///
/// # Panics
///
/// Panics if `nrefs` exceeds [`MAX_NREFS`].
pub fn encode_live_cell_start(nrefs: u32, is_array: bool) -> u64 {
    assert!(nrefs <= MAX_NREFS);
    ((nrefs as u64) << CELL_NREFS_SHIFT)
        | if is_array { CELL_ARRAY_BIT } else { 0 }
        | CELL_LIVE_PATTERN
}

/// Encodes the cell-start word for a free cell.
///
/// # Panics
///
/// Panics if `next` is not 8-byte aligned (its low bits distinguish free
/// from live cells).
pub fn encode_free_cell_start(next: u64) -> u64 {
    assert!(
        next.is_multiple_of(WORD),
        "free-list pointer must be aligned"
    );
    next
}

/// Decodes a cell-start word.
pub fn decode_cell_start(raw: u64) -> CellStart {
    if raw & 1 == 1 {
        CellStart::Live {
            nrefs: ((raw >> CELL_NREFS_SHIFT) & NREFS_MASK) as u32,
            is_array: raw & CELL_ARRAY_BIT != 0,
        }
    } else {
        CellStart::Free { next: raw }
    }
}

/// Geometry of a bidirectional cell:
/// `[cell-start][ref_{n-1} .. ref_0][HEADER][scalar_0 .. scalar_{s-1}]`.
///
/// The object reference points at the header; reference slot `i` lives at
/// `header - WORD * (1 + i)`.
pub mod bidi {
    use super::{ObjRef, WORD};

    /// Total words a cell must hold for an object with `nrefs` references
    /// and `scalars` scalar words (cell-start + refs + header + scalars).
    pub fn cell_words(nrefs: u32, scalars: u32) -> u64 {
        2 + nrefs as u64 + scalars as u64
    }

    /// Header VA given the cell base.
    pub fn header_of_cell(cell_base: u64, nrefs: u32) -> u64 {
        cell_base + WORD * (1 + nrefs as u64)
    }

    /// Cell base given the header VA.
    pub fn cell_of_header(header: u64, nrefs: u32) -> u64 {
        header - WORD * (1 + nrefs as u64)
    }

    /// VA of reference slot `i` (0-based).
    pub fn ref_slot(obj: ObjRef, i: u32) -> u64 {
        obj.addr() - WORD * (1 + i as u64)
    }

    /// VA of the first (lowest-addressed) reference slot — the base the
    /// tracer's request generator starts from.
    pub fn ref_section_base(obj: ObjRef, nrefs: u32) -> u64 {
        obj.addr() - WORD * nrefs as u64
    }

    /// VA of scalar word `i`.
    pub fn scalar_slot(obj: ObjRef, i: u32) -> u64 {
        obj.addr() + WORD * (1 + i as u64)
    }
}

/// Geometry of a conventional (TIB) cell:
/// `[cell-start][HEADER][TIB ptr][field_0 .. field_{k-1}]`.
///
/// Reference fields are interspersed among the fields at the word offsets
/// listed in the type-information block.
pub mod conv {
    use super::{ObjRef, WORD};

    /// Total words a cell must hold for an object with `nrefs`
    /// references and `scalars` scalar words (cell-start + header + TIB
    /// pointer + fields).
    pub fn cell_words(nrefs: u32, scalars: u32) -> u64 {
        3 + nrefs as u64 + scalars as u64
    }

    /// Header VA given the cell base.
    pub fn header_of_cell(cell_base: u64) -> u64 {
        cell_base + WORD
    }

    /// Cell base given the header VA.
    pub fn cell_of_header(header: u64) -> u64 {
        header - WORD
    }

    /// VA of the TIB pointer word.
    pub fn tib_slot(obj: ObjRef) -> u64 {
        obj.addr() + WORD
    }

    /// VA of field word `offset` (a TIB-listed offset for refs).
    pub fn field_slot(obj: ObjRef, offset: u32) -> u64 {
        obj.addr() + WORD * (2 + offset as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header::new_object(17, false);
        assert!(h.is_live());
        assert!(!h.is_marked());
        assert!(!h.is_array());
        assert_eq!(h.nrefs(), 17);
        let h2 = Header::from_raw(h.raw());
        assert_eq!(h, h2);
    }

    #[test]
    fn array_flag_is_independent_of_count() {
        let h = Header::new_object(1000, true);
        assert!(h.is_array());
        assert_eq!(h.nrefs(), 1000);
    }

    #[test]
    fn marking_preserves_count() {
        let h = Header::new_object(5, false).with_mark();
        assert!(h.is_marked());
        assert_eq!(h.nrefs(), 5);
        let cleared = h.without_mark();
        assert!(!cleared.is_marked());
        assert_eq!(cleared.nrefs(), 5);
    }

    #[test]
    fn mark_via_fetch_or_matches_with_mark() {
        let h = Header::new_object(3, false);
        assert_eq!(h.raw() | HEADER_MARK_BIT, h.with_mark().raw());
    }

    #[test]
    fn max_nrefs_is_accepted() {
        let h = Header::new_object(MAX_NREFS, false);
        assert_eq!(h.nrefs(), MAX_NREFS);
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn overflow_nrefs_panics() {
        let _ = Header::new_object(MAX_NREFS + 1, false);
    }

    #[test]
    fn cell_start_live_roundtrip() {
        let raw = encode_live_cell_start(42, true);
        assert_eq!(
            decode_cell_start(raw),
            CellStart::Live {
                nrefs: 42,
                is_array: true
            }
        );
    }

    #[test]
    fn cell_start_free_roundtrip() {
        let raw = encode_free_cell_start(0x4000_1000);
        assert_eq!(
            decode_cell_start(raw),
            CellStart::Free { next: 0x4000_1000 }
        );
        assert_eq!(decode_cell_start(0), CellStart::Free { next: 0 });
    }

    #[test]
    fn live_and_free_are_distinguished_by_lsb() {
        // Matches the sweeper's test in §V-D: "if the LSB is 1, it is an
        // object with a bidirectional layout".
        assert_eq!(encode_live_cell_start(0, false) & 1, 1);
        assert_eq!(encode_free_cell_start(0x8) & 1, 0);
    }

    #[test]
    fn bidi_geometry_is_consistent() {
        let cell = 0x4000_0000u64;
        let nrefs = 3;
        let header = bidi::header_of_cell(cell, nrefs);
        assert_eq!(header, cell + 8 * 4);
        assert_eq!(bidi::cell_of_header(header, nrefs), cell);
        let obj = ObjRef::new(header);
        assert_eq!(bidi::ref_slot(obj, 0), header - 8);
        assert_eq!(bidi::ref_slot(obj, 2), header - 24);
        assert_eq!(bidi::ref_section_base(obj, nrefs), cell + 8);
        assert_eq!(bidi::scalar_slot(obj, 0), header + 8);
        assert_eq!(bidi::cell_words(3, 2), 7);
    }

    #[test]
    fn conv_geometry_is_consistent() {
        let cell = 0x5000_0000u64;
        let header = conv::header_of_cell(cell);
        assert_eq!(conv::cell_of_header(header), cell);
        let obj = ObjRef::new(header);
        assert_eq!(conv::tib_slot(obj), header + 8);
        assert_eq!(conv::field_slot(obj, 0), header + 16);
        assert_eq!(conv::cell_words(1, 3), 7);
        // Counts are summed in u64: no wrap past u32.
        assert_eq!(
            conv::cell_words(u32::MAX, u32::MAX),
            3 + 2 * u32::MAX as u64
        );
    }

    #[test]
    #[should_panic(expected = "null")]
    fn null_objref_panics() {
        let _ = ObjRef::new(0);
    }

    #[test]
    fn objref_display_is_hex() {
        assert_eq!(ObjRef::new(0x10).to_string(), "obj@0x10");
    }
}
