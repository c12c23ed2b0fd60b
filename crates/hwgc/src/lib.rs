//! The GC accelerator: the paper's Traversal Unit and Reclamation Unit.
//!
//! This crate is the primary contribution of the reproduced paper: a
//! small hardware unit, located next to the memory controller and
//! integrated like any DMA-capable device, that performs the mark phase
//! of a tracing collector 4.2× faster than an in-order CPU at 18.5% of
//! its area, and sweeps with parallel block sweepers (Figs. 5, 7, 8).
//!
//! The three ideas that make the traversal unit fast (§IV-A) are all
//! modelled structurally:
//!
//! 1. **Bidirectional object layout** — one fetch-or AMO returns the mark
//!    bit *and* the reference count ([`tracegc_heap::layout`]).
//! 2. **Decoupled marking and tracing** — a [`markq`] feeds a marker with
//!    bounded tag-tracked request slots ([`traversal`]), which feeds a
//!    tracer queue, which feeds a tracer that walks reference sections
//!    with aligned 8–64 B transfers.
//! 3. **Untagged reference tracing** — the tracer holds no request state
//!    and lets responses return in any order, so its memory-level
//!    parallelism is bounded only by the memory system.
//!
//! Supporting structures: mark-queue spilling with `inQ`/`outQ`
//! (Fig. 12), 32-bit address compression (§V-C), a mark-bit cache
//! (Fig. 21), TLBs with a blocking PTW ([`tracegc_vmem`]), the
//! memory-mapped register file the Linux driver programs ([`mmio`]), and
//! the concurrent-GC barrier models of §IV-D ([`barrier`]).
//!
//! # Examples
//!
//! ```
//! use tracegc_heap::{Heap, HeapConfig};
//! use tracegc_hwgc::{GcUnit, GcUnitConfig};
//! use tracegc_mem::MemSystem;
//!
//! let mut heap = Heap::new(HeapConfig::default());
//! let a = heap.alloc(1, 0, false).unwrap();
//! let b = heap.alloc(0, 0, false).unwrap();
//! heap.set_ref(a, 0, Some(b));
//! heap.set_roots(&[a]);
//!
//! let mut mem = MemSystem::ddr3(Default::default());
//! let mut unit = GcUnit::new(GcUnitConfig::default(), &mut heap);
//! let report = unit.try_run_gc_at(&mut heap, &mut mem, 0).unwrap();
//! assert_eq!(report.mark.objects_marked, 2);
//! ```

pub mod barrier;
pub mod compress;
pub mod concurrent;
pub mod config;
pub mod engine;
pub mod markbit_cache;
pub mod markq;
pub mod mmio;
pub mod multiproc;
pub mod reclaim;
pub mod trap;
pub mod traversal;
pub mod unit;

pub use compress::RefCodec;
pub use concurrent::{try_run_concurrent_mark, ConcurrentReport, MutatorConfig};
pub use config::{CacheTopology, GcUnitConfig};
pub use engine::{MarkEngine, MutatorEngine};
pub use markbit_cache::MarkBitCache;
pub use markq::{MarkQueue, MarkQueueConfig, MarkQueueStats};
pub use multiproc::{try_run_multiprocess_mark, MultiProcessReport, ProcessContext};
pub use reclaim::{ReclaimResult, ReclamationUnit, SweepEngine};
pub use trap::{Trap, TrapKind};
pub use traversal::{TraversalResult, TraversalUnit};
pub use unit::{GcReport, GcUnit};
