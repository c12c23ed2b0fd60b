//! Configuration of the GC unit — every knob the paper's design-space
//! exploration turns (Figs. 18–21).

use tracegc_vmem::TlbConfig;

/// How the unit's requesters reach the memory system (§V-C, Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTopology {
    /// The paper's final design: the PTW gets a dedicated 8 KiB cache,
    /// the mark queue gets line buffers, and marker/tracer talk to the
    /// TileLink interconnect directly.
    #[default]
    Partitioned,
    /// The initial design: one shared 16 KiB cache for every requester,
    /// whose crossbar the PTW traffic drowns (Fig. 18a — "this performed
    /// barely better than the CPU").
    Shared,
}

/// Full configuration of the traversal + reclamation units.
///
/// The default is the paper's baseline (§VI-A): "2 sweepers, a 1,024
/// entry mark-queue, 16 request slots for the marker, 32-entry TLBs and
/// a 128-entry shared L2 TLB".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcUnitConfig {
    /// Marker request slots (tag/address table entries, Fig. 13); at
    /// most 64.
    pub marker_slots: usize,
    /// Tracer queue capacity in objects (the "TQ" of Fig. 19).
    pub tracer_queue: usize,
    /// Main mark-queue capacity in entries.
    pub markq_entries: usize,
    /// `inQ`/`outQ` capacity in entries.
    pub markq_side: usize,
    /// Store 32-bit compressed references in the mark queue (§V-C).
    pub compress: bool,
    /// Mark-bit cache entries (0 disables it; Fig. 21 sweeps 64–256).
    pub markbit_cache: usize,
    /// Parallel block sweepers in the reclamation unit (Fig. 20).
    pub sweepers: usize,
    /// Line buffers per sweeper ("only need 2 cache lines", §VI-B).
    pub sweeper_line_bufs: usize,
    /// Cycles a block sweeper's state machine spends per cell
    /// (classification, mark-word address computation, free-list link
    /// update; §V-D).
    pub sweeper_cell_cycles: u64,
    /// Cycles to dequeue/enqueue a block from the global block lists.
    pub sweeper_block_cycles: u64,
    /// TLB and page-table-walker sizing.
    pub tlb: TlbConfig,
    /// Cache topology (partitioned vs shared).
    pub topology: CacheTopology,
    /// Spill region size in bytes (driver default 4 MiB, §V-E).
    pub spill_bytes: u64,
    /// Minimum cycles between the unit's memory-port issues (0 = run at
    /// full bandwidth). §VII Bandwidth Throttling: "this interference
    /// could be reduced by communicating with the memory controller to
    /// only use residual bandwidth".
    pub min_issue_interval: u64,
    /// Per-pass cycle budget (0 = unlimited). When a mark pass runs
    /// longer than this many cycles past its `begin`, the unit latches
    /// [`TrapKind::RequestTimeout`](crate::trap::TrapKind::RequestTimeout)
    /// and freezes, handing the rest of the mark to the software
    /// fallback — the fleet scheduler's per-request timeout.
    pub mark_budget: u64,
    /// Record an event trace (bounded ring; see `sim::metrics`) during
    /// collection. Off by default: stall *accounting* is always on, only
    /// the per-event ring is gated.
    pub trace: bool,
}

impl Default for GcUnitConfig {
    fn default() -> Self {
        Self {
            marker_slots: 16,
            tracer_queue: 128,
            markq_entries: 1024,
            markq_side: 32,
            compress: false,
            markbit_cache: 0,
            sweepers: 2,
            sweeper_line_bufs: 2,
            sweeper_cell_cycles: 16,
            sweeper_block_cycles: 8,
            tlb: TlbConfig::default(),
            topology: CacheTopology::Partitioned,
            spill_bytes: 4 << 20,
            min_issue_interval: 0,
            mark_budget: 0,
            trace: false,
        }
    }
}

impl GcUnitConfig {
    /// Approximate SRAM the unit's queues occupy, in bytes — the input to
    /// the Fig. 19 x-axis ("sizes include inQ/outQ") and the area model.
    pub fn markq_sram_bytes(&self) -> u64 {
        let entry = if self.compress { 4 } else { 8 };
        (self.markq_entries as u64 + 2 * self.markq_side as u64) * entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let c = GcUnitConfig::default();
        assert_eq!(c.marker_slots, 16);
        assert_eq!(c.markq_entries, 1024);
        assert_eq!(c.sweepers, 2);
        assert_eq!(c.tlb.l1_entries, 32);
        assert_eq!(c.tlb.l2_entries, 128);
        assert_eq!(c.topology, CacheTopology::Partitioned);
    }

    #[test]
    fn markq_sram_accounts_for_side_queues_and_compression() {
        let mut c = GcUnitConfig::default();
        let full = c.markq_sram_bytes();
        assert_eq!(full, (1024 + 64) * 8);
        c.compress = true;
        assert_eq!(c.markq_sram_bytes() * 2, full);
    }
}
