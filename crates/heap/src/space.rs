//! The virtual address-space map of the simulated JVM process.
//!
//! JikesRVM's MarkSweep plan consists of nine spaces (§V-A); the GC unit
//! traces all of them but only reclaims the main mark-sweep space. We
//! model the four that matter to the accelerator:
//!
//! * the **immortal space** (type-information blocks, VM structures) —
//!   traced, never reclaimed;
//! * the **mark-sweep space** — segregated-free-list blocks, reclaimed by
//!   the reclamation unit;
//! * the **large-object space** — page-granular allocations, traced but
//!   managed by the runtime;
//! * the **hwgc space** — the root-communication region the runtime
//!   writes root references into and the unit's reader consumes (§IV-C).

/// Virtual base of the software collector's mark stack: scratch space
/// outside the four spaces, which the runtime maps before the first GC.
pub const MARK_STACK_BASE: u64 = 0x3800_0000;
/// Bytes the software collector reserves, and maps, for its mark stack.
pub const MARK_STACK_BYTES: u64 = 32 << 20;

/// Fixed layout of the simulated process's virtual address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceMap {
    /// Base of the immortal space (TIBs, VM structs).
    pub immortal_base: u64,
    /// Size of the immortal space in bytes.
    pub immortal_size: u64,
    /// Base of the hwgc root-communication space.
    pub hwgc_base: u64,
    /// Size of the hwgc space in bytes.
    pub hwgc_size: u64,
    /// Base of the main mark-sweep space.
    pub ms_base: u64,
    /// Maximum size of the mark-sweep space in bytes.
    pub ms_size: u64,
    /// Base of the large-object space.
    pub los_base: u64,
    /// Maximum size of the large-object space in bytes.
    pub los_size: u64,
}

impl Default for SpaceMap {
    fn default() -> Self {
        Self {
            immortal_base: 0x2000_0000,
            immortal_size: 16 << 20,
            hwgc_base: 0x3000_0000,
            hwgc_size: 4 << 20,
            ms_base: 0x4000_0000,
            ms_size: 512 << 20,
            los_base: 0x8000_0000,
            los_size: 128 << 20,
        }
    }
}

impl SpaceMap {
    /// A space map whose mark-sweep and large-object spaces hold at
    /// least `ms_size` and `los_size` bytes. The default map caps the
    /// mark-sweep space at 512 MB because the LOS base sits at
    /// `0x8000_0000`; paper-scale and server-scale heaps need more, so
    /// this pushes the LOS up past the enlarged mark-sweep space
    /// (superpage-aligned so either mapping granularity works).
    pub fn with_heap_capacity(ms_size: u64, los_size: u64) -> Self {
        let d = Self::default();
        let ms_size = ms_size.max(d.ms_size).next_multiple_of(2 << 20);
        let los_size = los_size.max(d.los_size).next_multiple_of(2 << 20);
        Self {
            ms_size,
            los_base: (d.ms_base + ms_size).next_multiple_of(2 << 20),
            los_size,
            ..d
        }
    }

    /// Whether `va` lies in the mark-sweep space (the only space the
    /// reclamation unit sweeps).
    pub fn in_mark_sweep(&self, va: u64) -> bool {
        (self.ms_base..self.ms_base + self.ms_size).contains(&va)
    }

    /// Whether `va` lies in the large-object space.
    pub fn in_los(&self, va: u64) -> bool {
        (self.los_base..self.los_base + self.los_size).contains(&va)
    }

    /// Whether `va` lies in the immortal space.
    pub fn in_immortal(&self, va: u64) -> bool {
        (self.immortal_base..self.immortal_base + self.immortal_size).contains(&va)
    }

    /// Whether `va` lies in any traced space (a sanity check for
    /// references popped off the mark queue).
    pub fn in_traced_space(&self, va: u64) -> bool {
        self.in_mark_sweep(va) || self.in_los(va) || self.in_immortal(va)
    }

    /// Whether `va` lies in the root-communication space.
    pub fn in_hwgc(&self, va: u64) -> bool {
        (self.hwgc_base..self.hwgc_base + self.hwgc_size).contains(&va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spaces_do_not_overlap() {
        let m = SpaceMap::default();
        let ranges = [
            (m.immortal_base, m.immortal_size),
            (m.hwgc_base, m.hwgc_size),
            (m.ms_base, m.ms_size),
            (m.los_base, m.los_size),
        ];
        for (i, &(b1, s1)) in ranges.iter().enumerate() {
            for &(b2, s2) in &ranges[i + 1..] {
                assert!(b1 + s1 <= b2 || b2 + s2 <= b1, "spaces overlap");
            }
        }
    }

    #[test]
    fn sized_spaces_do_not_overlap_and_cover_the_request() {
        for (ms, los) in [
            (0, 0),
            (512 << 20, 128 << 20),
            (2 << 30, 256 << 20),
            ((6u64 << 30) + 4096, 1 << 30),
        ] {
            let m = SpaceMap::with_heap_capacity(ms, los);
            assert!(m.ms_size >= ms && m.los_size >= los);
            assert!(m.ms_size.is_multiple_of(2 << 20));
            assert!(m.los_base.is_multiple_of(2 << 20));
            let ranges = [
                (m.immortal_base, m.immortal_size),
                (m.hwgc_base, m.hwgc_size),
                (m.ms_base, m.ms_size),
                (m.los_base, m.los_size),
            ];
            for (i, &(b1, s1)) in ranges.iter().enumerate() {
                for &(b2, s2) in &ranges[i + 1..] {
                    assert!(b1 + s1 <= b2 || b2 + s2 <= b1, "spaces overlap");
                }
            }
        }
    }

    #[test]
    fn membership_tests() {
        let m = SpaceMap::default();
        assert!(m.in_mark_sweep(m.ms_base));
        assert!(m.in_mark_sweep(m.ms_base + m.ms_size - 8));
        assert!(!m.in_mark_sweep(m.ms_base + m.ms_size));
        assert!(m.in_los(m.los_base + 100));
        assert!(m.in_immortal(m.immortal_base));
        assert!(m.in_hwgc(m.hwgc_base + 8));
        assert!(m.in_traced_space(m.ms_base));
        assert!(m.in_traced_space(m.los_base));
        assert!(!m.in_traced_space(m.hwgc_base));
        assert!(!m.in_traced_space(0));
    }
}
