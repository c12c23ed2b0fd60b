//! Structured traps: how the traversal unit reports faults instead of
//! panicking.
//!
//! The hardware analogue is a trap register file next to the MMIO
//! block: when the unit detects a condition it cannot resolve — a
//! reference that fails the space-map bounds check, an implausible
//! object header, a page fault from the PTW, an uncorrectable ECC
//! error or a timed-out memory request, or an exhausted spill region —
//! it freezes its pipeline, latches the trap cause and faulting
//! address, and raises an interrupt. The driver then reads the
//! architected state (mark queue contents, marker slots, tracer
//! cursor) and lets the software collector finish the mark
//! ([`TraversalUnit::drain_architected_state`]).
//!
//! [`TraversalUnit::drain_architected_state`]:
//! crate::traversal::TraversalUnit::drain_architected_state

use tracegc_sim::{Cycle, SimError};

/// The trap cause, one per hardware detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// A dequeued reference falls outside every traced space.
    RefOutOfBounds,
    /// A dequeued reference is not word-aligned.
    RefMisaligned,
    /// A mark response returned a header that fails the sanity checks
    /// (dead tag bit, or a reference count no real object could have).
    HeaderCorrupt,
    /// The page-table walker hit an invalid PTE.
    PageFault,
    /// The memory system reported an uncorrectable ECC error.
    EccUncorrectable,
    /// A memory request exhausted its retry budget.
    MemTimeout,
    /// The spill engine needed a chunk slot but the spill region was
    /// full — the driver under-provisioned the region (§V-E).
    SpillExhausted,
    /// The pass exceeded the driver-programmed cycle budget
    /// ([`GcUnitConfig::mark_budget`]): a fleet scheduler's per-request
    /// timeout, delivered through the same trap path as a hardware
    /// fault so the software collector finishes the mark.
    ///
    /// [`GcUnitConfig::mark_budget`]: crate::config::GcUnitConfig::mark_budget
    RequestTimeout,
}

impl TrapKind {
    /// Stable lower-snake name (used in traces and metrics).
    pub fn name(self) -> &'static str {
        match self {
            TrapKind::RefOutOfBounds => "ref_out_of_bounds",
            TrapKind::RefMisaligned => "ref_misaligned",
            TrapKind::HeaderCorrupt => "header_corrupt",
            TrapKind::PageFault => "page_fault",
            TrapKind::EccUncorrectable => "ecc_uncorrectable",
            TrapKind::MemTimeout => "mem_timeout",
            TrapKind::SpillExhausted => "spill_exhausted",
            TrapKind::RequestTimeout => "request_timeout",
        }
    }
}

/// A latched trap: cause, faulting address and trap cycle.
///
/// The address is the value the hardware *observed* (for a corrupted
/// reference, the corrupted bits); the original queue entry is retained
/// separately in the unit's faulting-entry register so the software
/// fallback can resume from uncorrupted state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// What the detector saw.
    pub kind: TrapKind,
    /// The faulting address (virtual for reference/translation traps,
    /// physical for memory-system traps).
    pub va: u64,
    /// Cycle the trap was latched.
    pub at: Cycle,
}

impl Trap {
    /// Builds a trap record.
    pub fn new(kind: TrapKind, va: u64, at: Cycle) -> Self {
        Self { kind, va, at }
    }

    /// Converts a fault latched by the memory system into a trap.
    ///
    /// # Panics
    ///
    /// Panics on any other error: the memory system latches only
    /// [`SimError::MemTimeout`] and [`SimError::EccUncorrectable`].
    pub(crate) fn from_sim_error(e: &SimError) -> Self {
        match e {
            SimError::EccUncorrectable { at, addr } => {
                Trap::new(TrapKind::EccUncorrectable, *addr, *at)
            }
            SimError::MemTimeout { at, addr, .. } => Trap::new(TrapKind::MemTimeout, *addr, *at),
            SimError::Deadlock { .. } | SimError::Trap { .. } => {
                unreachable!("the memory system latches only MemTimeout and EccUncorrectable: {e}")
            }
        }
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traversal trap at cycle {}: {} (addr {:#x})",
            self.at,
            self.kind.name(),
            self.va
        )
    }
}

impl From<Trap> for SimError {
    fn from(t: Trap) -> Self {
        SimError::Trap {
            at: t.at,
            // `SimError::Trap`'s Display supplies the "traversal trap at
            // cycle {at}:" prefix; carry only the cause here.
            description: format!("{} (addr {:#x})", t.kind.name(), t.va),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause_and_address() {
        let t = Trap::new(TrapKind::RefMisaligned, 0x4000_0003, 77);
        let s = t.to_string();
        assert!(s.contains("cycle 77"));
        assert!(s.contains("ref_misaligned"));
        assert!(s.contains("0x40000003"));
    }

    #[test]
    fn converts_to_sim_error_preserving_cycle() {
        let t = Trap::new(TrapKind::SpillExhausted, 0x100, 9);
        let e: SimError = t.into();
        assert_eq!(e.at(), 9);
        assert!(e.to_string().contains("spill_exhausted"));
    }

    #[test]
    fn mem_faults_map_to_matching_kinds() {
        let ecc = SimError::EccUncorrectable { at: 5, addr: 0x40 };
        assert_eq!(Trap::from_sim_error(&ecc).kind, TrapKind::EccUncorrectable);
        let to = SimError::MemTimeout {
            at: 6,
            addr: 0x80,
            attempts: 3,
        };
        let t = Trap::from_sim_error(&to);
        assert_eq!(t.kind, TrapKind::MemTimeout);
        assert_eq!(t.va, 0x80);
        assert_eq!(t.at, 6);
    }
}
