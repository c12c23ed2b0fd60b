//! A JikesRVM-style mark-sweep heap with the paper's bidirectional object
//! layout, living inside simulated physical memory behind real page
//! tables.
//!
//! The paper co-designs the accelerator with JikesRVM's MMTk MarkSweep
//! plan (§V-A): memory is divided into 64 KiB blocks, each assigned a size
//! class that fixes the size of its cells; every cell holds either an
//! object or a free-list entry linking empty cells together (Fig. 11).
//! Objects use a *bidirectional* layout (Fig. 6b): all reference fields
//! sit on one side of the header and all scalar fields on the other, so a
//! cacheless accelerator can find every outgoing reference without
//! touching a type-information block. The header word packs the mark bit,
//! a live-cell tag bit and the 32-bit reference count (MSB = array flag),
//! and the count is replicated at the start of the cell to enable the
//! reclamation unit's linear block scans.
//!
//! The conventional TIB-based layout (Fig. 6a) is also implemented so the
//! `ablB` ablation can quantify what the bidirectional layout buys.
//!
//! Everything here is *functional* state shared by all timed agents: the
//! CPU collector model, the traversal unit and the reachability oracle
//! all operate on the same [`Heap`], so their results can be compared
//! bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use tracegc_heap::{Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::default());
//! let a = heap.alloc(1, 2, false).unwrap();
//! let b = heap.alloc(0, 4, false).unwrap();
//! heap.set_ref(a, 0, Some(b));
//! heap.set_roots(&[a]);
//! let live = heap.reachable_from_roots();
//! assert!(live.contains(&b));
//! ```

pub mod heap;
pub mod layout;
pub mod soc;
pub mod space;
pub mod verify;
#[cfg(test)]
mod walls;

pub use heap::{AllocError, BlockInfo, Heap, HeapConfig, HeapStats};
pub use layout::{CellStart, Header, LayoutKind, ObjRef, WORD};
pub use soc::SocCtx;
pub use space::SpaceMap;
