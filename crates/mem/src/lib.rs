//! Memory system models for the tracegc SoC.
//!
//! This crate provides the substrate the paper's evaluation runs on
//! (Table I): a flat simulated [`PhysMem`], a DDR3-2000 bank/row timing
//! model with FR-FCFS and FIFO scheduling ([`ddr3`]), the idealized
//! 1-cycle / 8 GB/s latency–bandwidth pipe used for Fig. 17 ([`pipe`]),
//! set-associative write-back caches with MSHRs ([`cache`]), and the
//! TileLink-style request vocabulary shared by every requester ([`req`]).
//!
//! # Timing model
//!
//! All timing components use *timestamp passing*: a requester presents a
//! request together with the earliest cycle at which it could reach the
//! controller, and the model returns the cycle at which the response data
//! is available, mutating its internal bank/bus/MSHR state along the way.
//! This keeps the simulation deterministic and fast while preserving the
//! properties the paper measures — bank-level parallelism, row-buffer
//! locality, scheduling policy, outstanding-request limits and bus
//! bandwidth.
//!
//! # Examples
//!
//! ```
//! use tracegc_mem::{MemReq, MemSystem, Source};
//! use tracegc_mem::ddr3::Ddr3Config;
//!
//! let mut mem = MemSystem::ddr3(Ddr3Config::default());
//! let req = MemReq::read(0x1000, 64, Source::Tracer);
//! let done = mem.schedule(&req, 100);
//! assert!(done > 100);
//! ```

pub mod cache;
pub mod ddr3;
pub mod phys;
pub mod pipe;
pub mod req;
pub mod system;
#[cfg(test)]
mod walls;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use phys::PhysMem;
pub use req::{AccessKind, MemReq, Source};
pub use system::{MemStats, MemSystem};
