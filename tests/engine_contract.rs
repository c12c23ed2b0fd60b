//! Property checks for the `Engine::next_event_at` contract that
//! `Pacing::FastForward` leans on (see the trait docs in `sim::sched`).
//!
//! Every implementor (the traversal unit, the reclamation sweepers and
//! the concurrent mutator; the CPU collector runs its own loops and is
//! not an engine) is driven under a *lockstep* reference loop — one
//! step per cycle, exactly what fast-forward elides — and checked at
//! each step:
//!
//! * **Never stale.** A step that returns `Stalled` at cycle `c` must
//!   leave `next_event_at() > c` (or `None`).
//! * **Never early.** Having stalled at `c` promising an event at `t`,
//!   the engine must not return `Advanced` at any cycle strictly
//!   before `t` (no external input changes in a single-engine drive).
//! * **Not stalled at the event.** Stepped at the promised cycle, the
//!   engine must make progress, finish, or promise a strictly later
//!   event — promises must converge on real state changes, or the
//!   fast-forward scheduler would degrade into a crawl (and a lying
//!   promise chain would trip its watchdog clamp).
//! * **Span-stable stall reasons.** While the promise is outstanding,
//!   `stall_reason(now)` must not change: fast-forward charges the
//!   whole skipped span in one call, and a sleeping engine one call
//!   per service round, with the reason sampled at the start of the
//!   stall, and the ledgers must still match lockstep's per-cycle
//!   charges.
//!
//! Configurations are randomized from fixed seeds so the wall covers
//! queue-pressure, throttled, compressed and multi-walker corners, not
//! just the defaults.

use tracegc::heap::{Heap, HeapConfig, LayoutKind, ObjRef, SocCtx};
use tracegc::hwgc::{
    CacheTopology, GcUnitConfig, MarkEngine, MutatorConfig, MutatorEngine, ReclamationUnit,
    SweepEngine, TraversalUnit,
};
use tracegc::mem::MemSystem;
use tracegc::sim::{Engine, Progress, Rng, StallReason, StdRng};

/// Outstanding promise from the most recent stall: where the engine
/// stalled, the event it promised, and the reason it gave.
struct Promise {
    stalled_at: u64,
    event: u64,
    reason: StallReason,
}

/// Drives `engine` one cycle at a time from `start`, checking the
/// contract at every step. Returns the completion cycle.
///
/// `background` engines (the mutator) report `Stalled` even when they
/// do work, so only the never-stale clause applies to them; they are
/// driven for `limit` cycles instead of to completion.
fn drive_checked<'c>(
    name: &str,
    engine: &mut dyn Engine<SocCtx<'c>>,
    ctx: &mut SocCtx<'c>,
    start: u64,
    limit: u64,
    background: bool,
) -> u64 {
    let mut now = start;
    let mut promise: Option<Promise> = None;
    loop {
        match engine.step(now, ctx) {
            Progress::Done => return now,
            Progress::Advanced => {
                if let Some(p) = &promise {
                    assert!(
                        now >= p.event,
                        "{name}: advanced at {now}, strictly before the event {} \
                         promised when stalled at {} — a fast-forward hop would \
                         have skipped real work",
                        p.event,
                        p.stalled_at
                    );
                }
                promise = None;
            }
            Progress::Stalled => {
                let event = engine.next_event_at();
                let reason = engine.stall_reason(now);
                if let Some(t) = event {
                    assert!(
                        t > now,
                        "{name}: stalled at {now} but reported a stale event {t} \
                         — must be strictly future or None"
                    );
                }
                if background {
                    // The mutator paces the clock but always reports
                    // Stalled; the remaining clauses don't apply.
                } else if let Some(p) = &promise {
                    if now < p.event {
                        assert_eq!(
                            reason, p.reason,
                            "{name}: stall reason changed mid-span at {now} \
                             (stalled at {} promising {}) — fast-forward's \
                             one-shot span charge would diverge from \
                             lockstep's per-cycle charges",
                            p.stalled_at, p.event
                        );
                    } else {
                        // Stepped at (or past) the promised event and
                        // still stalled: only legal if the promise
                        // moved strictly forward.
                        let t = event.unwrap_or(u64::MAX);
                        assert!(
                            t > p.event,
                            "{name}: still stalled at {now}, at/after the \
                             promised event {} (stalled at {}), without \
                             promising a strictly later one",
                            p.event,
                            p.stalled_at
                        );
                        promise = Some(Promise {
                            stalled_at: now,
                            event: t,
                            reason,
                        });
                    }
                } else if let Some(t) = event {
                    promise = Some(Promise {
                        stalled_at: now,
                        event: t,
                        reason,
                    });
                }
            }
        }
        now += 1;
        if background && now >= start + limit {
            return now;
        }
        assert!(
            now < start + limit,
            "{name}: no completion within {limit} cycles"
        );
    }
}

/// A randomized unit configuration: every fast-forward-relevant knob
/// (queue pressure, compression, throttling, TLB walkers, topology)
/// drawn from a fixed seed.
fn random_cfg(rng: &mut StdRng) -> GcUnitConfig {
    let mut cfg = GcUnitConfig {
        marker_slots: [1, 2, 4, 8][rng.random_range(0..4usize)],
        tracer_queue: [2, 4, 16][rng.random_range(0..3usize)],
        markq_entries: [8, 16, 64][rng.random_range(0..3usize)],
        markq_side: [16, 32, 64][rng.random_range(0..3usize)],
        compress: rng.random(),
        markbit_cache: [0, 64][rng.random_range(0..2usize)],
        sweepers: [1, 2, 4, 8][rng.random_range(0..4usize)],
        min_issue_interval: [0, 0, 2, 5][rng.random_range(0..4usize)],
        topology: if rng.random() {
            CacheTopology::Shared
        } else {
            CacheTopology::Partitioned
        },
        ..GcUnitConfig::default()
    };
    cfg.tlb.concurrent_walks = [1, 2, 4][rng.random_range(0..3usize)];
    cfg.tlb.blocking_requesters = rng.random();
    cfg
}

/// A small tree-with-cross-edges heap, sized and shaped by the seed.
fn random_mark_heap(rng: &mut StdRng, layout: LayoutKind) -> Heap {
    let n = rng.random_range(200..700usize);
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 128 << 20,
        layout,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| h.alloc(3, (i % 6) as u32, false).unwrap())
        .collect();
    let live = n * 3 / 5;
    for i in 0..live {
        if 2 * i + 1 < live {
            h.set_ref(objs[i], 0, Some(objs[2 * i + 1]));
        }
        if 2 * i + 2 < live {
            h.set_ref(objs[i], 1, Some(objs[2 * i + 2]));
        }
        h.set_ref(objs[i], 2, Some(objs[rng.random_range(0..live)]));
    }
    h.set_roots(&[objs[0]]);
    h
}

/// A half-live, already-marked heap for the sweeping engines.
fn random_swept_heap(rng: &mut StdRng) -> Heap {
    let n = rng.random_range(300..900usize);
    let mut h = Heap::new(HeapConfig {
        phys_bytes: 128 << 20,
        ..HeapConfig::default()
    });
    let objs: Vec<ObjRef> = (0..n)
        .map(|i| h.alloc((i % 3) as u32, (i % 8) as u32, false).unwrap())
        .collect();
    let live = n / 2;
    for i in 0..live.saturating_sub(1) {
        if h.nrefs(objs[i]) > 0 {
            h.set_ref(objs[i], 0, Some(objs[i + 1]));
        }
    }
    h.set_roots(&objs[..live]);
    tracegc::heap::verify::software_mark(&mut h);
    h
}

const LIMIT: u64 = 5_000_000;

#[test]
fn mark_engine_honors_the_event_contract() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = if rng.random() {
            LayoutKind::Bidirectional
        } else {
            LayoutKind::Conventional
        };
        let cfg = random_cfg(&mut rng);
        let mut heap = random_mark_heap(&mut rng, layout);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(cfg, &mut heap);
        unit.begin(&heap, 0);
        let mut engine = MarkEngine::new(&mut unit, 0);
        let mut ctx = SocCtx::single(&mut mem, &mut heap);
        drive_checked(
            &format!("traversal[seed={seed}]"),
            &mut engine,
            &mut ctx,
            0,
            LIMIT,
            false,
        );
    }
}

#[test]
fn sweep_engine_honors_the_event_contract() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let cfg = random_cfg(&mut rng);
        let mut heap = random_swept_heap(&mut rng);
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = ReclamationUnit::new(cfg, &heap);
        let mut engine = SweepEngine::new(&mut unit, 0, 0);
        let mut ctx = SocCtx::single(&mut mem, &mut heap);
        drive_checked(
            &format!("reclaim[seed={seed}]"),
            &mut engine,
            &mut ctx,
            0,
            LIMIT,
            false,
        );
    }
}

#[test]
fn mutator_engine_honors_the_event_contract() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let mut heap = random_mark_heap(&mut rng, LayoutKind::Bidirectional);
        let mut mem = MemSystem::ddr3(Default::default());
        let working_set: Vec<ObjRef> = heap.roots().to_vec();
        let cfg = MutatorConfig {
            seed,
            cycles_per_op: rng.random_range(1..40u64),
            ..MutatorConfig::default()
        };
        let mut engine = MutatorEngine::new(cfg, 0, working_set, 0);
        let mut ctx = SocCtx::single(&mut mem, &mut heap);
        drive_checked(
            &format!("mutator[seed={seed}]"),
            &mut engine,
            &mut ctx,
            0,
            20_000,
            true,
        );
        // An empty working set must still pace the clock honestly.
        let mut idle = MutatorEngine::new(
            MutatorConfig {
                seed,
                ..MutatorConfig::default()
            },
            0,
            Vec::new(),
            0,
        );
        drive_checked(
            &format!("mutator-idle[seed={seed}]"),
            &mut idle,
            &mut ctx,
            0,
            2_000,
            true,
        );
    }
}
