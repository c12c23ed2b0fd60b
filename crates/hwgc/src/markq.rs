//! The mark queue with memory spilling (Fig. 12, §V-C).
//!
//! The mark queue is the largest SRAM in the unit and can theoretically
//! grow without bound, so overflow is spilled to a dedicated physical
//! region (the Linux driver's statically allocated 4 MiB, §V-E). Two
//! small side queues implement the protocol:
//!
//! * entries that do not fit the main queue go to `outQ`;
//! * a state machine writes `outQ` to memory in 64-byte chunks and reads
//!   chunks back into `inQ` when the main queue drains;
//! * when nothing is spilled, `outQ` is copied directly into `inQ`,
//!   saving the round-trip ("if there are elements in outQ and free
//!   slots in inQ, we copy them directly");
//! * when `outQ` reaches a fill level, a throttle signal tells the
//!   tracer to stop issuing ("to avoid outQ from filling up");
//! * spill *writes* have priority over everything, which is what makes
//!   the protocol deadlock-free.
//!
//! Entries are stored through a [`RefCodec`]: compressed 32-bit entries
//! double the effective queue size and halve spill traffic (Fig. 19).

use std::collections::VecDeque;

use tracegc_mem::cache::MemBacking;
use tracegc_mem::{Cache, MemReq, MemSystem, PhysMem, Source};
use tracegc_sim::{BoundedQueue, Cycle};

use crate::compress::RefCodec;

/// Mark-queue sizing and spill parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkQueueConfig {
    /// Main queue capacity in entries (paper baseline: 1,024).
    pub main_entries: usize,
    /// Capacity of each of `inQ` and `outQ` in entries.
    pub side_entries: usize,
    /// `outQ` fill level that asserts the tracer throttle signal.
    pub throttle_level: usize,
    /// Entry encoding.
    pub codec: RefCodec,
    /// Physical base of the spill region (64-byte aligned).
    pub spill_base: u64,
    /// Spill region size in bytes (driver default: 4 MiB).
    pub spill_bytes: u64,
}

impl MarkQueueConfig {
    /// The paper's baseline: 1,024 entries, uncompressed, 4 MiB spill.
    pub fn baseline(spill_base: u64) -> Self {
        Self {
            main_entries: 1024,
            side_entries: 32,
            throttle_level: 24,
            codec: RefCodec::Full,
            spill_base,
            spill_bytes: 4 << 20,
        }
    }
}

/// Spill-engine statistics (Fig. 19a plots spill memory requests).
#[derive(Debug, Clone, Copy, Default)]
pub struct MarkQueueStats {
    /// Entries enqueued in total.
    pub enqueued: u64,
    /// Entries dequeued in total.
    pub dequeued: u64,
    /// 64-byte spill write requests issued.
    pub spill_writes: u64,
    /// Spill read (fill) requests issued.
    pub spill_reads: u64,
    /// Entries moved directly `outQ` → `inQ` without touching memory.
    pub bypassed: u64,
    /// Peak number of entries resident in the spill region.
    pub peak_spilled: u64,
    /// Bytes written to the spill region.
    pub spill_bytes_written: u64,
    /// Peak entries resident anywhere (queues + spill + pending fill) —
    /// the queue-occupancy summary of the metrics sidecars.
    pub peak_occupancy: u64,
}

#[derive(Debug, Clone, Copy)]
struct SpillChunk {
    /// Byte offset of the chunk slot within the spill region.
    offset: u64,
    /// Entries stored in the chunk.
    count: u32,
}

/// The mark queue: main queue, `inQ`, `outQ` and the spill state machine.
#[derive(Debug)]
pub struct MarkQueue {
    cfg: MarkQueueConfig,
    main: BoundedQueue<u64>,
    inq: BoundedQueue<u64>,
    outq: BoundedQueue<u64>,
    /// Chunks resident in the spill region, oldest first.
    chunks: VecDeque<SpillChunk>,
    /// Next chunk slot to write (ring, in 64-byte slots).
    write_slot: u64,
    /// Entries currently spilled.
    spilled: u64,
    /// An issued fill whose data arrives at `.0`.
    pending_fill: Option<(Cycle, Vec<u64>)>,
    /// Latched when a spill write found every chunk slot occupied: the
    /// driver under-provisioned the region (§V-E) and the unit must
    /// trap to software rather than risk wedging behind a throttle
    /// that may never clear.
    spill_exhausted: bool,
    stats: MarkQueueStats,
}

impl MarkQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if the spill base is not 64-byte aligned, the spill region
    /// holds no chunk, or the side queues are smaller than one chunk.
    pub fn new(cfg: MarkQueueConfig) -> Self {
        assert!(
            cfg.spill_base.is_multiple_of(64),
            "spill base must be 64B aligned"
        );
        assert!(cfg.spill_bytes >= 64, "spill region too small");
        let chunk = Self::entries_per_chunk_for(cfg.codec);
        assert!(
            cfg.side_entries >= chunk,
            "side queues must hold at least one chunk"
        );
        assert!(cfg.throttle_level <= cfg.side_entries);
        Self {
            main: BoundedQueue::new(cfg.main_entries),
            inq: BoundedQueue::new(cfg.side_entries),
            outq: BoundedQueue::new(cfg.side_entries),
            chunks: VecDeque::new(),
            write_slot: 0,
            spilled: 0,
            pending_fill: None,
            spill_exhausted: false,
            stats: MarkQueueStats::default(),
            cfg,
        }
    }

    fn entries_per_chunk_for(codec: RefCodec) -> usize {
        (64 / codec.entry_bytes()) as usize
    }

    /// Entries per 64-byte spill chunk (8 uncompressed, 16 compressed).
    pub fn entries_per_chunk(&self) -> usize {
        Self::entries_per_chunk_for(self.cfg.codec)
    }

    /// The configuration.
    pub fn config(&self) -> &MarkQueueConfig {
        &self.cfg
    }

    /// Statistics so far; the traversal unit zeroes them as each mark
    /// pass begins.
    pub fn stats(&self) -> MarkQueueStats {
        self.stats
    }

    /// Zeroes the statistics (a new mark pass begins).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = MarkQueueStats::default();
    }

    /// Whether the tracer must stop issuing requests (§V-C).
    pub fn throttled(&self) -> bool {
        self.outq.len() >= self.cfg.throttle_level
    }

    /// Whether a spill write ever found the region completely full.
    /// Latched (never cleared mid-pass): a full region means the driver
    /// under-provisioned it, and the unit escalates to a trap.
    pub fn spill_exhausted(&self) -> bool {
        self.spill_exhausted
    }

    /// Physical base of the spill region (the faulting address reported
    /// by a spill-exhaustion trap).
    pub fn spill_base(&self) -> u64 {
        self.cfg.spill_base
    }

    /// Entries currently held anywhere (queues + spill + pending fill).
    pub fn len(&self) -> u64 {
        self.main.len() as u64
            + self.inq.len() as u64
            + self.outq.len() as u64
            + self.spilled
            + self
                .pending_fill
                .as_ref()
                .map_or(0, |(_, v)| v.len() as u64)
    }

    /// Whether every queue, the spill region and the fill pipeline are
    /// empty — the traversal's termination condition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue a reference. Priority goes to the main queue;
    /// overflow goes to `outQ`. Returns `false` (caller must stall) when
    /// even `outQ` is full.
    pub fn enqueue(&mut self, va: u64) -> bool {
        let encoded = self.cfg.codec.encode(va);
        if self.main.try_push(encoded).is_ok() || self.outq.try_push(encoded).is_ok() {
            self.stats.enqueued += 1;
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.len());
            return true;
        }
        false
    }

    /// Dequeues the next reference: main queue first, then `inQ`.
    pub fn dequeue(&mut self) -> Option<u64> {
        let encoded = self.main.pop().or_else(|| self.inq.pop())?;
        self.stats.dequeued += 1;
        Some(self.cfg.codec.decode(encoded))
    }

    /// Advances the spill state machine by one action. Returns `true`
    /// when any state changed (for the unit's progress tracking).
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut MemSystem,
        phys: &mut PhysMem,
        mut shared_cache: Option<&mut Cache>,
        port_free: &mut bool,
    ) -> bool {
        // 1. Land a completed fill into inQ.
        //
        // The `expect`s below are structural invariants of this state
        // machine, not fault paths: a fill is only issued when
        // `inq.free_slots() >= chunk` (checked in step 3), inQ is
        // private to this struct, and the fill data was just peeked.
        // Injected faults cannot violate them — they perturb timing and
        // data, never queue geometry — so a failure here is a simulator
        // bug and panicking is the correct response.
        if let Some((done, _)) = self.pending_fill {
            if done <= now {
                let (_, entries) = self.pending_fill.take().expect("fill present");
                for e in entries {
                    self.inq
                        .try_push(e)
                        .expect("fill was sized to fit inQ at issue");
                }
                return true;
            }
        }

        let chunk_entries = self.entries_per_chunk();

        // 2. Spill writes take priority (deadlock freedom). A partial
        // chunk is written as soon as the throttle level is reached:
        // with compressed entries one chunk can exceed the throttle
        // level, and waiting for a full chunk would wedge the tracer
        // behind a throttle that can never clear.
        if self.outq.len() >= chunk_entries
            || self.throttled()
            || (!self.outq.is_empty() && self.main.is_empty() && self.spilled > 0)
        {
            // Direct bypass when nothing is spilled and inQ has room
            // (no memory request, so no port needed).
            if self.spilled == 0 && self.pending_fill.is_none() && !self.inq.is_full() {
                let mut moved = 0;
                while !self.inq.is_full() {
                    match self.outq.pop() {
                        Some(e) => {
                            self.inq.try_push(e).expect("checked not full");
                            moved += 1;
                        }
                        None => break,
                    }
                }
                self.stats.bypassed += moved;
                return moved > 0;
            }
            if !*port_free {
                return false;
            }
            if self.issue_spill_write(now, mem, phys, shared_cache.as_deref_mut()) {
                *port_free = false;
                return true;
            }
            return false;
        }

        // 3. Refill from the spill region when the unit is draining.
        if self.spilled > 0
            && self.pending_fill.is_none()
            && self.outq.is_empty()
            && self.inq.free_slots() >= chunk_entries
            && self.main.len() < self.main.capacity() / 2
        {
            if !*port_free {
                return false;
            }
            if self.issue_fill(now, mem, phys, shared_cache) {
                *port_free = false;
                return true;
            }
            return false;
        }

        // 4. Opportunistic bypass of a trickle of outQ entries. Checked
        // before popping: a pop + failed re-push would rotate outQ on a
        // no-progress tick, making stalled ticks side-effectful and
        // breaking the scheduler's fast-forward/lockstep equivalence.
        if !self.outq.is_empty()
            && self.spilled == 0
            && self.pending_fill.is_none()
            && (!self.main.is_full() || !self.inq.is_full())
        {
            let e = self.outq.pop().expect("checked non-empty");
            if self.main.try_push(e).is_err() {
                self.inq.try_push(e).expect("checked free above");
            }
            self.stats.bypassed += 1;
            return true;
        }
        false
    }

    fn issue_spill_write(
        &mut self,
        now: Cycle,
        mem: &mut MemSystem,
        phys: &mut PhysMem,
        shared_cache: Option<&mut Cache>,
    ) -> bool {
        let chunk_entries = self.entries_per_chunk();
        let slots_total = self.cfg.spill_bytes / 64;
        if self.chunks.len() as u64 >= slots_total {
            // Spill region full: latch exhaustion so the unit traps to
            // the software fallback instead of stalling behind a
            // throttle that a wedged main queue may never clear.
            self.spill_exhausted = true;
            return false;
        }
        let take = self.outq.len().min(chunk_entries);
        if take == 0 {
            return false;
        }
        let offset = self.write_slot * 64;
        self.write_slot = (self.write_slot + 1) % slots_total;
        let entry_bytes = self.cfg.codec.entry_bytes();
        // Functionally pack the entries into the spill region.
        let mut word = 0u64;
        let mut entries = Vec::with_capacity(take);
        for i in 0..take {
            let e = self.outq.pop().expect("sized by len");
            entries.push(e);
            match entry_bytes {
                8 => phys.write_u64(self.cfg.spill_base + offset + (i as u64) * 8, e),
                4 => {
                    if i % 2 == 0 {
                        word = e;
                    } else {
                        word |= e << 32;
                        phys.write_u64(self.cfg.spill_base + offset + (i as u64 / 2) * 8, word);
                    }
                }
                _ => unreachable!("entry sizes are 4 or 8"),
            }
        }
        if entry_bytes == 4 && take % 2 == 1 {
            phys.write_u64(self.cfg.spill_base + offset + (take as u64 / 2) * 8, word);
        }
        let bytes = (take as u64 * entry_bytes).next_power_of_two().clamp(8, 64) as u32;
        match shared_cache {
            Some(cache) => {
                let mut backing = MemBacking {
                    mem,
                    source: Source::MarkQueue,
                };
                cache.access(
                    self.cfg.spill_base + offset,
                    true,
                    now,
                    Source::MarkQueue,
                    &mut backing,
                );
            }
            None => {
                mem.schedule(
                    &MemReq::write(self.cfg.spill_base + offset, bytes, Source::MarkQueue),
                    now,
                );
            }
        }
        self.chunks.push_back(SpillChunk {
            offset,
            count: take as u32,
        });
        self.spilled += take as u64;
        self.stats.spill_writes += 1;
        self.stats.spill_bytes_written += bytes as u64;
        self.stats.peak_spilled = self.stats.peak_spilled.max(self.spilled);
        true
    }

    fn issue_fill(
        &mut self,
        now: Cycle,
        mem: &mut MemSystem,
        phys: &mut PhysMem,
        shared_cache: Option<&mut Cache>,
    ) -> bool {
        let Some(chunk) = self.chunks.pop_front() else {
            return false;
        };
        let entry_bytes = self.cfg.codec.entry_bytes();
        let bytes = (chunk.count as u64 * entry_bytes)
            .next_power_of_two()
            .clamp(8, 64) as u32;
        let done = match shared_cache {
            Some(cache) => {
                let mut backing = MemBacking {
                    mem,
                    source: Source::MarkQueue,
                };
                cache.access(
                    self.cfg.spill_base + chunk.offset,
                    false,
                    now,
                    Source::MarkQueue,
                    &mut backing,
                )
            }
            None => mem.schedule(
                &MemReq::read(self.cfg.spill_base + chunk.offset, bytes, Source::MarkQueue),
                now,
            ),
        };
        let mut entries = Vec::with_capacity(chunk.count as usize);
        for i in 0..chunk.count as u64 {
            let e = match entry_bytes {
                8 => phys.read_u64(self.cfg.spill_base + chunk.offset + i * 8),
                4 => {
                    let w = phys.read_u64(self.cfg.spill_base + chunk.offset + (i / 2) * 8);
                    if i % 2 == 0 {
                        w & 0xFFFF_FFFF
                    } else {
                        w >> 32
                    }
                }
                _ => unreachable!(),
            };
            entries.push(e);
        }
        self.spilled -= chunk.count as u64;
        self.stats.spill_reads += 1;
        self.pending_fill = Some((done, entries));
        true
    }

    /// Earliest pending event (for the unit's idle skip-ahead).
    pub fn next_event(&self) -> Option<Cycle> {
        self.pending_fill.as_ref().map(|&(t, _)| t)
    }

    /// Drains every entry — main, `inQ`, `outQ`, an in-flight fill and
    /// all spilled chunks (read back functionally from `phys`) —
    /// decoding each. This is the trap path's recovery of the
    /// architected queue contents for the software fallback; the queue
    /// is empty afterwards.
    pub fn drain_all(&mut self, phys: &PhysMem) -> Vec<u64> {
        let mut encoded = Vec::new();
        while let Some(e) = self.main.pop() {
            encoded.push(e);
        }
        while let Some(e) = self.inq.pop() {
            encoded.push(e);
        }
        while let Some(e) = self.outq.pop() {
            encoded.push(e);
        }
        if let Some((_, entries)) = self.pending_fill.take() {
            encoded.extend(entries);
        }
        let entry_bytes = self.cfg.codec.entry_bytes();
        while let Some(chunk) = self.chunks.pop_front() {
            for i in 0..chunk.count as u64 {
                let e = match entry_bytes {
                    8 => phys.read_u64(self.cfg.spill_base + chunk.offset + i * 8),
                    4 => {
                        let w = phys.read_u64(self.cfg.spill_base + chunk.offset + (i / 2) * 8);
                        if i % 2 == 0 {
                            w & 0xFFFF_FFFF
                        } else {
                            w >> 32
                        }
                    }
                    _ => unreachable!("entry sizes are 4 or 8"),
                };
                encoded.push(e);
            }
        }
        self.spilled = 0;
        encoded
            .into_iter()
            .map(|e| self.cfg.codec.decode(e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh always-free port token for tests.
    fn true_port() -> bool {
        true
    }

    fn harness(main: usize, codec: RefCodec) -> (MarkQueue, MemSystem, PhysMem) {
        let cfg = MarkQueueConfig {
            main_entries: main,
            side_entries: 32,
            throttle_level: 24,
            codec,
            spill_base: 0,
            spill_bytes: 1 << 20,
        };
        (
            MarkQueue::new(cfg),
            MemSystem::pipe(Default::default()),
            PhysMem::new(2 << 20),
        )
    }

    /// Drains everything, ticking the spill engine, and returns the
    /// multiset of dequeued values.
    fn drain(q: &mut MarkQueue, mem: &mut MemSystem, phys: &mut PhysMem) -> Vec<u64> {
        let mut out = Vec::new();
        let mut now = 1_000_000; // far past any fill latency
        let mut idle = 0;
        while !q.is_empty() {
            q.tick(now, mem, phys, None, &mut true_port());
            while let Some(v) = q.dequeue() {
                out.push(v);
            }
            now += 100;
            idle += 1;
            assert!(idle < 100_000, "queue failed to drain");
        }
        out
    }

    #[test]
    fn small_workload_never_spills() {
        let (mut q, mut mem, mut phys) = harness(64, RefCodec::Full);
        for i in 0..32u64 {
            assert!(q.enqueue(0x4000_0000 + i * 8));
        }
        let mut got = drain(&mut q, &mut mem, &mut phys);
        got.sort_unstable();
        let want: Vec<u64> = (0..32).map(|i| 0x4000_0000 + i * 8).collect();
        assert_eq!(got, want);
        assert_eq!(q.stats().spill_writes, 0);
    }

    #[test]
    fn overflow_spills_and_comes_back() {
        let (mut q, mut mem, mut phys) = harness(8, RefCodec::Full);
        let mut pushed = Vec::new();
        let mut now = 0;
        let mut i = 0u64;
        while pushed.len() < 200 {
            let va = 0x4000_0000 + i * 8;
            if q.enqueue(va) {
                pushed.push(va);
            } else {
                q.tick(now, &mut mem, &mut phys, None, &mut true_port());
            }
            q.tick(now, &mut mem, &mut phys, None, &mut true_port());
            now += 1;
            i += 1;
        }
        assert!(q.stats().spill_writes > 0, "expected spilling");
        let mut got = drain(&mut q, &mut mem, &mut phys);
        got.sort_unstable();
        pushed.sort_unstable();
        assert_eq!(got, pushed, "entries lost or duplicated through spill");
    }

    #[test]
    fn compressed_entries_halve_spill_traffic() {
        let run = |codec| {
            let (mut q, mut mem, mut phys) = harness(8, codec);
            let mut now = 0;
            for i in 0..500u64 {
                while !q.enqueue(0x4000_0000 + i * 8) {
                    q.tick(now, &mut mem, &mut phys, None, &mut true_port());
                    now += 1;
                }
                q.tick(now, &mut mem, &mut phys, None, &mut true_port());
                now += 1;
            }
            let got = drain(&mut q, &mut mem, &mut phys);
            assert_eq!(got.len(), 500);
            q.stats().spill_bytes_written
        };
        let full = run(RefCodec::Full);
        let compressed = run(RefCodec::Compressed { base: 0x4000_0000 });
        assert!(compressed > 0);
        assert!(
            compressed <= full / 2 + 64,
            "compressed {compressed} vs full {full}"
        );
    }

    #[test]
    fn compressed_roundtrip_preserves_values() {
        let (mut q, mut mem, mut phys) = harness(4, RefCodec::Compressed { base: 0x4000_0000 });
        let vals: Vec<u64> = (0..100).map(|i| 0x4000_0000 + i * 16).collect();
        let mut now = 0;
        for &v in &vals {
            while !q.enqueue(v) {
                q.tick(now, &mut mem, &mut phys, None, &mut true_port());
                now += 1;
            }
            q.tick(now, &mut mem, &mut phys, None, &mut true_port());
            now += 1;
        }
        let mut got = drain(&mut q, &mut mem, &mut phys);
        got.sort_unstable();
        assert_eq!(got, vals);
    }

    #[test]
    fn throttle_asserts_when_outq_fills() {
        let (mut q, _mem, _phys) = harness(1, RefCodec::Full);
        assert!(!q.throttled());
        q.enqueue(8); // fills main (capacity 1)
        for i in 0..24u64 {
            q.enqueue(16 + i * 8); // all go to outQ
        }
        assert!(q.throttled());
    }

    #[test]
    fn enqueue_fails_only_when_everything_full() {
        let (mut q, _mem, _phys) = harness(1, RefCodec::Full);
        q.enqueue(8);
        for i in 0..32u64 {
            assert!(q.enqueue(16 + i * 8));
        }
        assert!(!q.enqueue(0x800), "outQ full must reject");
    }

    #[test]
    fn bypass_skips_memory_when_nothing_spilled() {
        let (mut q, mut mem, mut phys) = harness(1, RefCodec::Full);
        q.enqueue(8);
        q.enqueue(16); // -> outQ
        q.dequeue(); // main now empty
        q.tick(0, &mut mem, &mut phys, None, &mut true_port());
        assert!(q.stats().bypassed >= 1);
        assert_eq!(q.stats().spill_writes, 0);
        assert_eq!(q.dequeue(), Some(16));
    }

    #[test]
    fn drain_all_recovers_every_entry_including_spilled() {
        for codec in [RefCodec::Full, RefCodec::Compressed { base: 0x4000_0000 }] {
            let (mut q, mut mem, mut phys) = harness(8, codec);
            let mut pushed = Vec::new();
            let mut now = 0;
            for i in 0..300u64 {
                let va = 0x4000_0000 + i * 8;
                while !q.enqueue(va) {
                    q.tick(now, &mut mem, &mut phys, None, &mut true_port());
                    now += 1;
                }
                pushed.push(va);
                q.tick(now, &mut mem, &mut phys, None, &mut true_port());
                now += 1;
            }
            assert!(q.stats().spill_writes > 0, "test must exercise the spill");
            let mut got = q.drain_all(&phys);
            got.sort_unstable();
            pushed.sort_unstable();
            assert_eq!(got, pushed, "architected drain lost or invented entries");
            assert!(q.is_empty(), "queue must be empty after the drain");
        }
    }

    #[test]
    fn full_spill_region_latches_exhaustion() {
        // One 64-byte chunk slot: the second spill write finds the
        // region full and must latch the exhaustion flag.
        let cfg = MarkQueueConfig {
            main_entries: 1,
            side_entries: 32,
            throttle_level: 8,
            codec: RefCodec::Full,
            spill_base: 0,
            spill_bytes: 64,
        };
        let mut q = MarkQueue::new(cfg);
        let mut mem = MemSystem::pipe(Default::default());
        let mut phys = PhysMem::new(1 << 20);
        let mut now = 0;
        let mut i = 0u64;
        while !q.spill_exhausted() {
            q.enqueue(0x4000_0000 + i * 8);
            q.tick(now, &mut mem, &mut phys, None, &mut true_port());
            now += 1;
            i += 1;
            assert!(i < 10_000, "exhaustion never latched");
        }
        assert!(q.stats().spill_writes >= 1);
    }

    #[test]
    fn peak_spilled_is_tracked() {
        let (mut q, mut mem, mut phys) = harness(8, RefCodec::Full);
        let mut now = 0;
        for i in 0..300u64 {
            while !q.enqueue(i * 8 + 8) {
                q.tick(now, &mut mem, &mut phys, None, &mut true_port());
                now += 1;
            }
            q.tick(now, &mut mem, &mut phys, None, &mut true_port());
            now += 1;
        }
        assert!(q.stats().peak_spilled > 0);
        drain(&mut q, &mut mem, &mut phys);
        assert_eq!(q.len(), 0);
    }
}
