//! DDR3 memory controller timing model.
//!
//! Models the paper's Table I memory system: 2 GiB single-rank DDR3-2000
//! behind an FR-FCFS memory access scheduler with an open-page policy,
//! 14-14-14-47 ns timings (CL–tRCD–tRP–tRAS) and a 16-read / 8-write
//! outstanding-request window. The paper found the accelerator's speedup
//! "significantly improved changing from FIFO MAS to FR-FCFS and
//! increasing the maximum number of outstanding reads from 8 to 16"
//! (§VI-A) — both knobs are modelled here and exercised by the `ablA`
//! experiment.
//!
//! # Approximations
//!
//! The model is greedy: requests are scheduled in presentation order, and
//! FR-FCFS is approximated by per-bank independence (a request only waits
//! for *its* bank and the shared data bus), while FIFO serializes the
//! column-access start times of consecutive requests. Row-buffer hits,
//! misses and conflicts pay CL, tRCD+CL and tRP+tRCD+CL respectively, and
//! tRAS constrains precharge after activate.

use std::collections::BinaryHeap;

use tracegc_sim::{ns, Cycle};

use crate::req::{AccessKind, MemReq};

/// Scheduling policy of the memory access scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// First-ready, first-come-first-served: banks proceed independently,
    /// exploiting bank-level parallelism and row-buffer locality.
    #[default]
    FrFcfs,
    /// Strictly in-order servicing: each request's column access cannot
    /// begin before the previous request's column access began.
    Fifo,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open after access (Table I).
    #[default]
    Open,
    /// Precharge immediately after each access; every access pays
    /// activation but never a conflict precharge.
    Closed,
}

/// DDR3 controller configuration (defaults = the paper's Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ddr3Config {
    /// Number of banks in the single rank.
    pub banks: usize,
    /// CAS latency in cycles (14 ns at 1 GHz).
    pub t_cas: Cycle,
    /// RAS-to-CAS delay.
    pub t_rcd: Cycle,
    /// Row precharge time.
    pub t_rp: Cycle,
    /// Minimum activate-to-precharge time.
    pub t_ras: Cycle,
    /// Cycles the shared data bus is occupied per 64-byte burst
    /// (DDR3-2000 moves 16 B/ns, so a 64 B line takes 4 ns).
    pub burst_64b: Cycle,
    /// Maximum outstanding reads the controller accepts.
    pub max_reads: usize,
    /// Maximum outstanding writes the controller accepts.
    pub max_writes: usize,
    /// Scheduling policy.
    pub scheduler: Scheduler,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// FR-FCFS row-hit batching window: an access counts as a row hit if
    /// its row is among this many recently used rows of the bank. This
    /// emulates the reordering a first-ready scheduler performs when
    /// several sequential streams interleave in its queue (our greedy
    /// model schedules in presentation order, so without this window two
    /// interleaved streams would conflict on every access — something a
    /// real FR-FCFS controller avoids by batching row hits). FIFO uses a
    /// window of 1 (the single physical row buffer, no reordering).
    pub row_window: usize,
}

impl Default for Ddr3Config {
    fn default() -> Self {
        Self {
            banks: 8,
            t_cas: ns(14),
            t_rcd: ns(14),
            t_rp: ns(14),
            t_ras: ns(47),
            burst_64b: 4,
            max_reads: 16,
            max_writes: 8,
            scheduler: Scheduler::FrFcfs,
            page_policy: PagePolicy::Open,
            row_window: 4,
        }
    }
}

impl Ddr3Config {
    /// The weaker configuration the paper started from: FIFO scheduling
    /// with only 8 outstanding reads (§VI-A).
    pub fn fifo_8_reads() -> Self {
        Self {
            scheduler: Scheduler::Fifo,
            max_reads: 8,
            row_window: 1,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Bank {
    /// Recently used rows, most recent first (see
    /// [`Ddr3Config::row_window`]).
    open_rows: std::collections::VecDeque<u64>,
    /// Earliest cycle the bank can accept its next command.
    ready_at: Cycle,
    /// When the current row was activated (for tRAS).
    activated_at: Cycle,
}

impl Bank {
    fn touch(&mut self, row: u64, window: usize) {
        if let Some(pos) = self.open_rows.iter().position(|&r| r == row) {
            self.open_rows.remove(pos);
        }
        self.open_rows.push_front(row);
        self.open_rows.truncate(window.max(1));
    }
}

/// Per-model timing statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ddr3Stats {
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to an idle (closed) bank.
    pub row_empty: u64,
    /// Row-buffer conflicts (precharge needed).
    pub row_conflicts: u64,
    /// Activate commands issued (drives the energy model).
    pub activates: u64,
    /// Total requests scheduled.
    pub requests: u64,
}

/// Data-bus occupancy: one bit per bus cycle, set while the bus is
/// reserved. Requests presented slightly out of time order (parallel
/// agents leapfrogging each other by a few tens of cycles) fill earlier
/// bus gaps instead of queueing behind a single high-water mark.
///
/// The bitmap is exact: it holds the same busy set as a map of merged
/// busy intervals, and [`BusSchedule::reserve`] is the same first fit
/// over it, so every start it returns is the one the map would return
/// (the tests keep that map as the reference). Nothing is ever evicted,
/// so no caller has to promise a time horizon. The cost is one bit per
/// cycle from the first to the last reservation, 1 MiB per 8 Mi cycles;
/// the words grow at either end as reservations land outside them.
#[derive(Debug, Clone, Default)]
struct BusSchedule {
    /// Absolute index (`cycle / 64`) of `words[0]`.
    first_word: u64,
    /// Bit `c % 64` of `words[c / 64 - first_word]` is set while cycle
    /// `c` is reserved; cycles outside the words are free.
    words: Vec<u64>,
}

/// The low `n` bits set, for `n` in `1..=64`.
#[inline]
fn low_bits(n: u64) -> u64 {
    u64::MAX >> (64 - n)
}

impl BusSchedule {
    /// The busy bits of absolute word `w` (0 outside the bitmap).
    #[inline]
    fn word(&self, w: u64) -> u64 {
        let i = w.wrapping_sub(self.first_word);
        usize::try_from(i)
            .ok()
            .and_then(|i| self.words.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// The first reserved cycle in `[from, to)`, if any.
    fn first_busy(&self, from: Cycle, to: Cycle) -> Option<Cycle> {
        let mut c = from;
        while c < to {
            let bit = c % 64;
            let n = (64 - bit).min(to - c);
            let hit = (self.word(c / 64) >> bit) & low_bits(n);
            if hit != 0 {
                return Some(c + Cycle::from(hit.trailing_zeros()));
            }
            c += n;
        }
        None
    }

    /// The first free cycle at or after `from`.
    fn first_free(&self, from: Cycle) -> Cycle {
        let mut c = from;
        loop {
            let free = !self.word(c / 64) >> (c % 64);
            if free != 0 {
                return c + Cycle::from(free.trailing_zeros());
            }
            c = (c / 64 + 1) * 64;
        }
    }

    /// Reserves `dur` bus cycles at the first gap at or after `earliest`;
    /// returns the reserved start.
    fn reserve(&mut self, earliest: Cycle, dur: Cycle) -> Cycle {
        debug_assert!(dur > 0, "a bus reservation occupies at least one cycle");
        let mut t = earliest;
        while let Some(busy) = self.first_busy(t, t + dur) {
            t = self.first_free(busy);
        }
        self.occupy(t, t + dur);
        t
    }

    /// Sets the bits of `[from, to)`, growing the words to cover them.
    fn occupy(&mut self, from: Cycle, to: Cycle) {
        let (lo, hi) = (from / 64, (to - 1) / 64);
        if self.words.is_empty() {
            self.first_word = lo;
        } else if lo < self.first_word {
            let grow = usize::try_from(self.first_word - lo).expect("bus bitmap fits in memory");
            self.words.splice(0..0, std::iter::repeat_n(0, grow));
            self.first_word = lo;
        }
        let len = usize::try_from(hi - self.first_word + 1).expect("bus bitmap fits in memory");
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
        let mut c = from;
        while c < to {
            let bit = c % 64;
            let n = (64 - bit).min(to - c);
            self.words[(c / 64 - self.first_word) as usize] |= low_bits(n) << bit;
            c += n;
        }
    }
}

/// The DDR3 bank/bus timing model.
///
/// See the [module docs](self) for the modelling approach.
#[derive(Debug, Clone)]
pub struct Ddr3Model {
    cfg: Ddr3Config,
    banks: Vec<Bank>,
    bus: BusSchedule,
    /// Completion times of in-flight reads (min-heap via Reverse).
    reads_inflight: BinaryHeap<std::cmp::Reverse<Cycle>>,
    writes_inflight: BinaryHeap<std::cmp::Reverse<Cycle>>,
    /// FIFO policy: column-access start of the previous request.
    last_col_start: Cycle,
    stats: Ddr3Stats,
}

impl Ddr3Model {
    /// Creates a model with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not a power of two.
    pub fn new(cfg: Ddr3Config) -> Self {
        // Constructor-time config validation is the only assertion in
        // this model; the scheduling hot path below is panic-free, and
        // injected faults (drops, delays, ECC) are layered on top by
        // `MemSystem`, keeping this timing model golden-path only.
        assert!(
            cfg.banks > 0 && cfg.banks.is_power_of_two(),
            "ddr3 bank count must be a non-zero power of two, got {}",
            cfg.banks
        );
        Self {
            banks: vec![Bank::default(); cfg.banks],
            cfg,
            bus: BusSchedule::default(),
            reads_inflight: BinaryHeap::new(),
            writes_inflight: BinaryHeap::new(),
            last_col_start: 0,
            stats: Ddr3Stats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Ddr3Config {
        &self.cfg
    }

    /// Timing statistics so far.
    pub fn stats(&self) -> Ddr3Stats {
        self.stats
    }

    #[inline]
    fn bank_of(&self, addr: u64) -> usize {
        // Cache-line (64 B) interleaving across banks.
        ((addr >> 6) as usize) & (self.cfg.banks - 1)
    }

    #[inline]
    fn row_of(&self, addr: u64) -> u64 {
        // 2 KiB row buffer per bank; lines of one bank are 512 B apart in
        // the flat address space, so 32 consecutive per-bank lines (16 KiB
        // of address space) share a row.
        addr >> 14
    }

    fn drain_window(heap: &mut BinaryHeap<std::cmp::Reverse<Cycle>>, now: Cycle) {
        while let Some(&std::cmp::Reverse(t)) = heap.peek() {
            if t <= now {
                heap.pop();
            } else {
                break;
            }
        }
    }

    /// Schedules `req` as if presented to the controller at `earliest`;
    /// returns the cycle the response data is fully transferred.
    pub fn schedule(&mut self, req: &MemReq, earliest: Cycle) -> Cycle {
        let mut start = earliest;

        // Outstanding-request window: wait until a slot frees.
        let (heap, cap) = match req.kind {
            AccessKind::Write => (&mut self.writes_inflight, self.cfg.max_writes),
            _ => (&mut self.reads_inflight, self.cfg.max_reads),
        };
        Self::drain_window(heap, start);
        if heap.len() >= cap {
            if let Some(&std::cmp::Reverse(t)) = heap.peek() {
                start = start.max(t);
            }
            Self::drain_window(heap, start);
        }

        let bank_idx = self.bank_of(req.addr);
        let row = self.row_of(req.addr);
        let bank = &mut self.banks[bank_idx];

        let mut cmd_at = start.max(bank.ready_at);
        if self.cfg.scheduler == Scheduler::Fifo {
            // Strict ordering: the column access may not begin before the
            // previous request's column access began.
            cmd_at = cmd_at.max(self.last_col_start);
        }

        // Bank state machine: determine column-access start.
        let window = match self.cfg.scheduler {
            Scheduler::FrFcfs => self.cfg.row_window,
            Scheduler::Fifo => 1,
        };
        let row_hit = bank.open_rows.iter().any(|&r| r == row);
        let col_start = match (self.cfg.page_policy, bank.open_rows.is_empty(), row_hit) {
            (PagePolicy::Open, false, true) => {
                self.stats.row_hits += 1;
                cmd_at
            }
            (PagePolicy::Open, false, false) => {
                self.stats.row_conflicts += 1;
                self.stats.activates += 1;
                // Precharge may not happen before tRAS has elapsed.
                let pre_at = cmd_at.max(bank.activated_at + self.cfg.t_ras);
                let act_at = pre_at + self.cfg.t_rp;
                bank.activated_at = act_at;
                act_at + self.cfg.t_rcd
            }
            (PagePolicy::Open, true, _) | (PagePolicy::Closed, _, _) => {
                self.stats.row_empty += 1;
                self.stats.activates += 1;
                bank.activated_at = cmd_at;
                cmd_at + self.cfg.t_rcd
            }
        };
        match self.cfg.page_policy {
            PagePolicy::Open => bank.touch(row, window),
            PagePolicy::Closed => bank.open_rows.clear(),
        }
        // Back-to-back column commands on the same bank pipeline at the
        // burst rate. Writes are buffered by the controller and drained
        // with low priority (standard read-priority scheduling), so they
        // do not stall subsequent reads at the bank.
        if req.kind != AccessKind::Write {
            bank.ready_at = bank.ready_at.max(col_start + self.cfg.burst_64b);
        }

        let data_ready_at_pins = col_start + self.cfg.t_cas;
        let burst = self.burst_cycles(req.bytes);
        let data_start = self.bus.reserve(data_ready_at_pins, burst);
        let done = data_start + burst;

        // AMO performs a read followed by an internal write-back; charge
        // one extra burst on the bus.
        let done = if req.kind == AccessKind::Amo {
            self.bus.reserve(done, burst);
            done + 1
        } else {
            done
        };

        match req.kind {
            AccessKind::Write => self.writes_inflight.push(std::cmp::Reverse(done)),
            _ => self.reads_inflight.push(std::cmp::Reverse(done)),
        }
        self.last_col_start = col_start;
        self.stats.requests += 1;
        done
    }

    /// Data-bus occupancy in cycles for a transfer of `bytes`.
    fn burst_cycles(&self, bytes: u32) -> Cycle {
        // 16 B move per cycle at DDR3-2000; smaller transfers still occupy
        // at least one bus cycle, at any `burst_64b`.
        ((bytes as Cycle).div_ceil(16).max(1) * self.cfg.burst_64b)
            .div_ceil(4)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::Source;

    fn read64(addr: u64) -> MemReq {
        MemReq::read(addr, 64, Source::Cpu)
    }

    #[test]
    fn first_access_pays_activation_and_cas() {
        let mut m = Ddr3Model::new(Ddr3Config::default());
        let done = m.schedule(&read64(0), 0);
        // tRCD + CL + burst = 14 + 14 + 4.
        assert_eq!(done, 32);
        assert_eq!(m.stats().row_empty, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let mut m = Ddr3Model::new(Ddr3Config::default());
        let t0 = m.schedule(&read64(0), 0);
        // Same bank, same row (same 64 B line re-read).
        let hit_done = m.schedule(&read64(0), t0);
        let hit_latency = hit_done - t0;
        // Same bank (bank 0 = addr>>6 multiple of 8), different row.
        let conflict_done = m.schedule(&read64(1 << 14), hit_done);
        let conflict_latency = conflict_done - hit_done;
        assert!(hit_latency < conflict_latency);
        assert_eq!(m.stats().row_hits, 1);
        assert_eq!(m.stats().row_conflicts, 1);
    }

    #[test]
    fn bank_parallelism_overlaps_under_frfcfs() {
        let mut m = Ddr3Model::new(Ddr3Config::default());
        // Two different banks, presented at the same time: the second should
        // not pay the full serialized latency.
        let d0 = m.schedule(&read64(0), 0);
        let d1 = m.schedule(&read64(64), 0);
        assert!(d1 < d0 + d0, "banks should overlap: {d0} {d1}");
        // Completion separated only by the bus burst.
        assert_eq!(d1 - d0, 4);
    }

    #[test]
    fn fifo_serializes_more_than_frfcfs() {
        let run = |cfg: Ddr3Config| {
            let mut m = Ddr3Model::new(cfg);
            let mut last = 0;
            for i in 0..64u64 {
                // Stride across banks and rows to defeat locality.
                last = m.schedule(&read64(i * 64 * 9 + (i % 3) * (1 << 14)), 0);
            }
            last
        };
        let frfcfs = run(Ddr3Config::default());
        let fifo = run(Ddr3Config {
            scheduler: Scheduler::Fifo,
            ..Ddr3Config::default()
        });
        assert!(fifo > frfcfs, "fifo={fifo} frfcfs={frfcfs}");
    }

    #[test]
    fn outstanding_read_window_throttles() {
        let narrow = Ddr3Config {
            max_reads: 1,
            ..Ddr3Config::default()
        };
        let mut m = Ddr3Model::new(narrow);
        let d0 = m.schedule(&read64(0), 0);
        // With a single-entry window the next request cannot even start
        // before the first completes.
        let d1 = m.schedule(&read64(64), 0);
        assert!(d1 >= d0 + 4);

        let mut wide = Ddr3Model::new(Ddr3Config::default());
        let w0 = wide.schedule(&read64(0), 0);
        let w1 = wide.schedule(&read64(64), 0);
        assert!(w1 - w0 < d1 - d0 || w1 < d1);
    }

    #[test]
    fn closed_page_never_conflicts() {
        let mut m = Ddr3Model::new(Ddr3Config {
            page_policy: PagePolicy::Closed,
            ..Ddr3Config::default()
        });
        let mut t = 0;
        for i in 0..16u64 {
            t = m.schedule(&read64((i % 2) << 14), t);
        }
        assert_eq!(m.stats().row_conflicts, 0);
        assert_eq!(m.stats().row_hits, 0);
    }

    #[test]
    fn amo_costs_more_than_read() {
        let mut m1 = Ddr3Model::new(Ddr3Config::default());
        let read_done = m1.schedule(&MemReq::read(0x40, 8, Source::Marker), 0);
        let mut m2 = Ddr3Model::new(Ddr3Config::default());
        let amo_done = m2.schedule(&MemReq::amo(0x40, Source::Marker), 0);
        assert!(amo_done > read_done);
    }

    #[test]
    fn completions_never_precede_presentation() {
        let mut m = Ddr3Model::new(Ddr3Config::default());
        for i in 0..100u64 {
            let t = i * 3;
            let done = m.schedule(&read64(i * 128), t);
            assert!(done > t);
        }
    }

    #[test]
    fn small_bursts_use_less_bus_time() {
        let m = Ddr3Model::new(Ddr3Config::default());
        assert_eq!(m.burst_cycles(8), 1);
        assert_eq!(m.burst_cycles(16), 1);
        assert_eq!(m.burst_cycles(32), 2);
        assert_eq!(m.burst_cycles(64), 4);

        // On a faster bus a transfer still books at least one cycle.
        let mut fast = Ddr3Model::new(Ddr3Config {
            burst_64b: 2,
            ..Ddr3Config::default()
        });
        assert_eq!(fast.burst_cycles(8), 1);
        assert_eq!(fast.burst_cycles(16), 1);
        assert_eq!(fast.burst_cycles(64), 2);
        // Presented together on two banks, both data arrive at cycle 28
        // (tRCD + CL): the AMO's read and write-back take cycles 28 and
        // 29, so the 16 B read waits for cycle 30.
        let amo = fast.schedule(&MemReq::amo(0x40, Source::Marker), 0);
        let read = fast.schedule(&MemReq::read(0x80, 16, Source::Tracer), 0);
        assert_eq!((amo, read), (30, 31));
    }

    /// The interval map [`BusSchedule`] replaced: merged busy runs
    /// keyed by start. [`bus_bitmap_matches_interval_map`] holds the
    /// bitmap to its answers.
    #[derive(Default)]
    struct IntervalSchedule {
        intervals: std::collections::BTreeMap<Cycle, Cycle>,
    }

    impl IntervalSchedule {
        fn reserve(&mut self, earliest: Cycle, dur: Cycle) -> Cycle {
            let mut t = earliest;
            if let Some((_, &e)) = self.intervals.range(..=t).next_back() {
                if e > t {
                    t = e;
                }
            }
            loop {
                match self.intervals.range(t..).next() {
                    Some((&s, &e)) if s < t + dur => t = e,
                    _ => break,
                }
            }
            let mut start = t;
            let mut end = t + dur;
            if let Some((&ps, &pe)) = self.intervals.range(..=start).next_back() {
                if pe == start {
                    self.intervals.remove(&ps);
                    start = ps;
                }
            }
            if let Some((&ns, &ne)) = self.intervals.range(end..).next() {
                if ns == end {
                    self.intervals.remove(&ns);
                    end = ne;
                }
            }
            self.intervals.insert(start, end);
            t
        }
    }

    /// The bitmap's busy runs as `(start, end)` pairs, in order.
    fn busy_runs(bus: &BusSchedule) -> Vec<(Cycle, Cycle)> {
        let mut runs: Vec<(Cycle, Cycle)> = Vec::new();
        for (i, &w) in bus.words.iter().enumerate() {
            let base = (bus.first_word + i as u64) * 64;
            for bit in (0..64).filter(|b| w >> b & 1 == 1) {
                let c = base + bit;
                match runs.last_mut() {
                    Some(run) if run.1 == c => run.1 = c + 1,
                    _ => runs.push((c, c + 1)),
                }
            }
        }
        runs
    }

    #[test]
    fn bus_bitmap_matches_interval_map() {
        use tracegc_sim::rng::{Rng, StdRng};
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xB05_0000 + case);
            // Every fourth case starts past 2^40 and then reserves
            // earlier cycles, so the words grow at the front.
            let mut now = if case % 4 == 0 {
                (1 << 40) + rng.random_range(0u64..1 << 20)
            } else {
                rng.random_range(0u64..4096)
            };
            // Mean arrival gap: below the mean burst the bus saturates
            // and first fit walks long busy runs; above it, gaps open.
            let max_gap = rng.random_range(1u64..12);
            let first = now;
            let (mut bits, mut map) = (BusSchedule::default(), IntervalSchedule::default());
            let mut check = |earliest: Cycle, dur: Cycle| {
                let t = bits.reserve(earliest, dur);
                assert_eq!(
                    t,
                    map.reserve(earliest, dur),
                    "case {case}: reserve({earliest}, {dur})"
                );
                t
            };
            for _ in 0..1500 {
                let earliest = match rng.random_range(0u32..16) {
                    // Hundreds of cycles in the past.
                    0 => now.saturating_sub(rng.random_range(100u64..800)),
                    // Just short of a word boundary, so the run straddles it.
                    1 => (now / 64 + 1) * 64 - rng.random_range(1u64..8),
                    // ±64 cycles of jitter around the frontier.
                    _ => (now + rng.random_range(0u64..129)).saturating_sub(64),
                };
                let dur = rng.random_range(1u64..9);
                let start = check(earliest, dur);
                if rng.random_range(0u32..4) == 0 {
                    // An AMO's write-back burst, back to back.
                    check(start + dur, dur);
                }
                now += rng.random_range(0..max_gap);
            }
            if case % 4 == 0 {
                assert!(
                    bits.first_word < first / 64 - 1,
                    "case {case}: no front growth"
                );
            }
            let runs: Vec<(Cycle, Cycle)> = map.intervals.into_iter().collect();
            assert_eq!(busy_runs(&bits), runs, "case {case}: busy sets differ");
        }
    }
}
