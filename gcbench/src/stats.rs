//! Simulated statistics of one repeat, read from the layers' own stats
//! structs at the boundaries where the benchmark calls them.
//!
//! Every field is a deterministic function of the seed and the input
//! size, so the digest of a repeat must be identical across repeats and
//! across commits that only speed up the simulator.

use tracegc_cpu::PhaseResult;
use tracegc_hwgc::{ReclaimResult, TraversalResult};
use tracegc_mem::MemSystem;

/// Counters summed over every collection of one repeat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Collections attempted (a CPU or unit collection, a tenant mark).
    pub collections: u64,
    /// Collections that errored with no recoverable trap.
    pub failed: u64,
    /// Collections that trapped and were finished by the software
    /// fallback.
    pub degraded: u64,
    /// Simulated cycles of the timed section.
    pub sim_cycles: u64,

    pub objects_allocated: u64,
    pub resident_bytes: u64,

    pub cpu_mark_cycles: u64,
    pub cpu_sweep_cycles: u64,
    pub cpu_stalled: u64,
    pub cpu_ledger: u64,
    pub cpu_l1_hits: u64,
    pub cpu_l1_misses: u64,

    pub hwgc_mark_cycles: u64,
    pub hwgc_sweep_cycles: u64,
    pub hwgc_stalled: u64,
    pub hwgc_ledger: u64,
    pub port_busy: u64,
    pub spill_bytes: u64,
    pub peak_occupancy: u64,
    pub marked: u64,
    pub already_marked: u64,
    pub filtered: u64,
    pub fallback_cycles: u64,

    pub tlb_l1_hits: u64,
    pub tlb_l2_hits: u64,
    pub walks: u64,
    pub walker_wait_cycles: u64,

    pub mem_requests: u64,
    pub mem_bytes: u64,
    pub mem_cycles: u64,
    pub row_hits: u64,
    pub ddr3_requests: u64,

    pub sched_cycles: u64,

    /// Exact model-level results (paper accuracy, fleet outcomes).
    pub gauges: Vec<(&'static str, f64)>,
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl SimStats {
    /// One software-collector phase.
    pub fn add_cpu(&mut self, phase: &PhaseResult, sweep: bool) {
        if sweep {
            self.cpu_sweep_cycles += phase.cycles;
        } else {
            self.cpu_mark_cycles += phase.cycles;
        }
        self.cpu_stalled += phase.stalls.total_stalled();
        self.cpu_ledger += phase.stalls.total();
    }

    /// The CPU's data-cache counters after a collection.
    pub fn add_cpu_l1(&mut self, l1: &tracegc_mem::CacheStats) {
        self.cpu_l1_hits += l1.hits();
        self.cpu_l1_misses += l1.misses();
    }

    /// One traversal-unit mark pass.
    pub fn add_mark(&mut self, m: &TraversalResult) {
        self.hwgc_mark_cycles += m.cycles();
        self.hwgc_stalled += m.stalls.total_stalled();
        self.hwgc_ledger += m.stalls.total();
        self.port_busy += m.port_busy_cycles;
        self.spill_bytes += m.markq.spill_bytes_written;
        self.peak_occupancy = self.peak_occupancy.max(m.markq.peak_occupancy);
        self.marked += m.objects_marked;
        self.already_marked += m.already_marked;
        self.filtered += m.filtered;
        self.tlb_l1_hits += m.translator.l1_hits;
        self.tlb_l2_hits += m.translator.l2_hits;
        self.walks += m.translator.walks;
        self.walker_wait_cycles += m.translator.walker_wait_cycles;
    }

    /// One reclamation-unit sweep.
    pub fn add_sweep(&mut self, s: &ReclaimResult) {
        self.hwgc_sweep_cycles += s.cycles();
        self.hwgc_stalled += s.stalls.total_stalled();
        self.hwgc_ledger += s.stalls.total();
    }

    /// A memory system that served `cycles` simulated cycles.
    pub fn add_mem(&mut self, mem: &MemSystem, cycles: u64) {
        self.mem_requests += mem.stats().total_requests;
        self.mem_bytes += mem.stats().total_bytes;
        self.mem_cycles += cycles;
        if let Some(d) = mem.ddr3_stats() {
            self.row_hits += d.row_hits;
            self.ddr3_requests += d.requests;
        }
    }

    pub fn gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.push((name, v));
    }

    /// A digest of every field, gauges included (FNV-1a over the
    /// `Debug` rendering, which prints floats exactly).
    pub fn digest(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The simulated per-layer metrics this repeat measured.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let attempts = self.marked + self.already_marked + self.filtered;
        let mut out = vec![
            ("ops_failed_frac", frac(self.failed, self.collections)),
            ("degraded_frac", frac(self.degraded, self.collections)),
            ("workloads.objects_allocated", self.objects_allocated as f64),
            (
                "heap.resident_mb",
                self.resident_bytes as f64 / (1 << 20) as f64,
            ),
            ("cpu.mark_cycles", self.cpu_mark_cycles as f64),
            ("cpu.sweep_cycles", self.cpu_sweep_cycles as f64),
            ("cpu.stall_frac", frac(self.cpu_stalled, self.cpu_ledger)),
            (
                "cpu.l1_hit_rate",
                frac(self.cpu_l1_hits, self.cpu_l1_hits + self.cpu_l1_misses),
            ),
            ("hwgc.mark_cycles", self.hwgc_mark_cycles as f64),
            ("hwgc.sweep_cycles", self.hwgc_sweep_cycles as f64),
            ("hwgc.stall_frac", frac(self.hwgc_stalled, self.hwgc_ledger)),
            (
                "hwgc.port_busy_frac",
                frac(self.port_busy, self.hwgc_mark_cycles),
            ),
            ("hwgc.markq.spill_bytes", self.spill_bytes as f64),
            ("hwgc.markq.peak_occupancy", self.peak_occupancy as f64),
            ("hwgc.markbit.filter_rate", frac(self.filtered, attempts)),
            ("hwgc.traps", self.degraded as f64),
            ("hwgc.fallback_cycles", self.fallback_cycles as f64),
            (
                "vmem.l1_hit_rate",
                frac(
                    self.tlb_l1_hits,
                    self.tlb_l1_hits + self.tlb_l2_hits + self.walks,
                ),
            ),
            ("vmem.walks", self.walks as f64),
            ("vmem.walker_wait_cycles", self.walker_wait_cycles as f64),
            ("mem.requests", self.mem_requests as f64),
            ("mem.bytes", self.mem_bytes as f64),
            ("mem.row_hit_rate", frac(self.row_hits, self.ddr3_requests)),
            // Bytes per cycle at 1 GHz is GB/s.
            ("mem.avg_gbps", frac(self.mem_bytes, self.mem_cycles)),
        ];
        out.extend(self.gauges.iter().copied());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_field_and_gauge() {
        let a = SimStats::default();
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.walks = 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.gauge("mark_err", 0.5);
        let mut d = a.clone();
        d.gauge("mark_err", 0.5000000000000001);
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn empty_ratios_are_zero_not_nan() {
        assert!(SimStats::default()
            .metrics()
            .iter()
            .all(|(_, v)| v.is_finite()));
    }
}
