//! The in-order CPU baseline: a Rocket-like core executing the software
//! mark-sweep collector.
//!
//! The paper's baseline is JikesRVM's GC rewritten in C (compiled `-O3`)
//! running on an in-order Rocket core with the Table I cache hierarchy
//! (§VI-A). Its performance is limited by exactly the effects this model
//! captures:
//!
//! * the mark-check **branch depends on the header load**, so the core
//!   cannot run ahead of a miss ("the outcome of the mark operation
//!   determines whether or not references need to be copied, this limits
//!   how far a CPU can speculate ahead", §IV-A);
//! * reference loads stall on **load-to-use** in an in-order pipeline,
//!   with only cache-line spatial locality to amortize misses;
//! * misses are bounded by the small **MSHR file** of a typical L1.
//!
//! The collector executed is *real*: it operates on the same
//! [`Heap`](tracegc_heap::Heap) as the accelerator, producing an
//! identical mark set and identical post-sweep free lists — only the
//! time it takes differs.

pub mod collector;
pub mod refload;

pub use collector::{Cpu, CpuConfig, PhaseResult};
pub use refload::{barrier_overheads, BarrierOverhead, BarrierScheme, RefloadCosts};
