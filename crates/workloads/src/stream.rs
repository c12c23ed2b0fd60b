//! Streamed heap generation for paper-scale and server-scale heaps.
//!
//! [`generate_heap`](crate::generate::generate_heap) retains a
//! `Vec<ObjRef>` of every object ever allocated and draws spanning-forest
//! parents with random access over the whole live prefix — fine at tens
//! of MB, fatal at multi-GB. This module builds heaps in **bounded
//! windows**: the generator keeps only the roots, the hot set, a
//! fixed-size window of recently published objects and counters, so its
//! host footprint is proportional to the *live set* (and for the churny
//! shapes, to the window), never to total allocations. Dead objects are
//! recycled during generation by periodic software mark+sweep passes, so
//! the simulated footprint stays bounded too.
//!
//! Besides the windowed forest (the DaCapo-like shape at scale), three
//! production-traffic shapes exercise the traversal unit the way server
//! heaps do:
//!
//! * [`StreamShape::LruCache`] — a bounded cache under miss churn: the
//!   live set is pinned at capacity while allocation volume is a
//!   multiple of it (high garbage turnover);
//! * [`StreamShape::RequestSession`] — request/session trees allocated
//!   at a high rate with only a survivor fraction retained (a young
//!   generation's traffic, collected by a full-heap tracer);
//! * [`StreamShape::SocialGraph`] — power-law degrees plus supernodes:
//!   a few huge reference arrays (celebrity fan-out) that stress the
//!   tracer's long-object decoupling and the mark queue;
//! * [`StreamShape::ActorMesh`] — an actor system: a mesh of actors
//!   with small-world peer links, each owning a bounded mailbox whose
//!   slots are overwritten by message churn (every overwrite kills the
//!   previous message and its payload), so pointer *mutation* — not
//!   allocation order — decides liveness.

use tracegc_heap::verify::{software_mark, software_sweep};
use tracegc_heap::{Heap, HeapConfig, LayoutKind, ObjRef, SpaceMap};
use tracegc_sim::dist::Zipf;
use tracegc_sim::rng::{Rng, StdRng};

/// Shape of a streamed workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamShape {
    /// Windowed spanning forest + Zipf cross edges — the streamed
    /// equivalent of the DaCapo-like snapshot generator.
    Forest {
        /// Mean outgoing references per object.
        mean_refs: f64,
        /// Fraction of objects that are reference arrays.
        array_fraction: f64,
        /// Zipf exponent for cross-edge target popularity.
        popularity_s: f64,
        /// Fraction of cross edges aimed at the hot set.
        hot_fraction: f64,
        /// Dead objects allocated per live object (garbage present at
        /// collection time, as a live fraction < 1 would produce).
        garbage_factor: f64,
    },
    /// A bounded LRU cache under miss churn: `churn_factor` × capacity
    /// entries are evicted and reallocated after the warm-up fill.
    LruCache {
        /// Evictions per cache entry after the initial fill.
        churn_factor: f64,
    },
    /// Request/session heaps: session trees of `session_objects`
    /// allocated at a high rate; only `survivor_fraction` survive.
    RequestSession {
        /// Objects per session tree.
        session_objects: u32,
        /// Fraction of sessions retained (the rest die young).
        survivor_fraction: f64,
    },
    /// A social graph with `supernodes` huge-degree reference arrays
    /// among power-law-degree user objects.
    SocialGraph {
        /// Number of supernodes (celebrity accounts).
        supernodes: usize,
        /// Out-degree of each supernode (reference-array length).
        supernode_degree: u32,
    },
    /// An actor system: actors in a small-world mesh (ring predecessor
    /// plus random peers), each owning a bounded mailbox array whose
    /// slots message churn overwrites in place — the overwritten
    /// message and its payload die on the spot.
    ActorMesh {
        /// Peer references per actor (ring predecessor + random links).
        peers: u32,
        /// Mailbox slots per actor (live messages at steady state).
        mailbox_depth: u32,
        /// Messages sent per actor on average after the initial fill
        /// (allocation churn; the live set stays mailbox-bounded).
        churn_messages: f64,
    },
}

/// Specification of one streamed heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Workload name (labels experiment rows).
    pub name: &'static str,
    /// The shape generator and its parameters.
    pub shape: StreamShape,
    /// Target number of live objects.
    pub live_objects: usize,
    /// Bounded generation window (recently published objects the
    /// generator may still reference).
    pub window: usize,
    /// Hot-set size (shared targets drawing a disproportionate share of
    /// edges, as in Fig. 21a).
    pub hot_set: usize,
    /// Root references published to the hwgc space (shapes with root
    /// directories may publish more).
    pub roots: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl StreamSpec {
    /// Scales the live-object target by `factor` (floor 64), for smoke
    /// and golden runs.
    pub fn scaled(&self, factor: f64) -> StreamSpec {
        StreamSpec {
            live_objects: ((self.live_objects as f64 * factor) as usize).max(64),
            ..*self
        }
    }
}

/// Generation bookkeeping: what the generator allocated and what it had
/// to remember to do so.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// Total allocation operations (live + garbage).
    pub allocated: u64,
    /// Peak number of `ObjRef`s the generator retained at any point —
    /// the memory-budget tests pin this to O(live set + window), never
    /// O(allocated).
    pub peak_tracked: usize,
    /// Mark+sweep passes run during generation to recycle garbage.
    pub gen_sweeps: u32,
    /// Cells recycled by those passes.
    pub cells_recycled: u64,
    /// Estimated bytes of live objects (cell bytes of retained objects).
    pub est_live_bytes: u64,
}

/// A streamed heap plus the bookkeeping experiments need. Unlike
/// [`WorkloadHeap`](crate::generate::WorkloadHeap) there is no
/// all-objects vector — only the roots and the hot set survive
/// generation.
#[derive(Debug)]
pub struct StreamedHeap {
    /// The heap, roots already published.
    pub heap: Heap,
    /// Objects reachable from the roots at generation time.
    pub live_objects: usize,
    /// The hot set.
    pub hot_set: Vec<ObjRef>,
    /// Generation statistics.
    pub stats: GenStats,
    /// RNG state after generation, for any subsequent churn.
    pub rng: StdRng,
}

/// Objects with unfilled reference slots, bounded to the window: the
/// forest attaches new children here, and an entry's leftover slots are
/// filled with cross edges when it is evicted ("published").
struct OpenWindow {
    q: std::collections::VecDeque<(ObjRef, u32, u32)>, // (obj, nslots, next)
    cap: usize,
}

impl OpenWindow {
    fn new(cap: usize) -> Self {
        Self {
            q: std::collections::VecDeque::with_capacity(cap.min(1 << 20)),
            cap: cap.max(1),
        }
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    /// Takes one free slot of a window entry for a forest edge.
    fn attach(&mut self, rng: &mut StdRng, heap: &mut Heap, child: ObjRef) -> bool {
        if self.q.is_empty() {
            return false;
        }
        let i = rng.random_range(0..self.q.len());
        let (parent, nslots, next) = self.q[i];
        heap.set_ref(parent, next, Some(child));
        if next + 1 >= nslots {
            self.q.remove(i);
        } else {
            self.q[i].2 = next + 1;
        }
        true
    }

    /// Adds an object with `forest_slots` of its slots reserved for
    /// forest children; returns the entry evicted to keep the window
    /// bounded, if any.
    fn push(&mut self, obj: ObjRef, forest_slots: u32) -> Option<(ObjRef, u32, u32)> {
        if forest_slots > 0 {
            self.q.push_back((obj, forest_slots, 0));
        }
        if self.q.len() > self.cap {
            self.q.pop_front()
        } else {
            None
        }
    }
}

/// The recent-object ring cross edges draw their targets from.
struct RecentRing {
    ring: Vec<ObjRef>,
    next: usize,
}

impl RecentRing {
    fn new(cap: usize) -> Self {
        Self {
            ring: Vec::with_capacity(cap.clamp(1, 1 << 20)),
            next: 0,
        }
    }

    fn push(&mut self, obj: ObjRef) {
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(obj);
        } else {
            self.ring[self.next] = obj;
            self.next = (self.next + 1) % self.ring.len();
        }
    }

    fn sample(&self, idx: usize) -> Option<ObjRef> {
        if self.ring.is_empty() {
            None
        } else {
            Some(self.ring[idx % self.ring.len()])
        }
    }

    fn len(&self) -> usize {
        self.ring.len()
    }
}

/// Sizes the heap for a streamed spec. Thanks to the sparse physical
/// memory, the address-space reservation costs nothing until touched, so
/// every dimension is generous.
fn heap_for(spec: &StreamSpec, layout: LayoutKind) -> Heap {
    // Per-object footprint ~120 bytes plus shape-specific extras.
    let mut est = spec.live_objects as u64 * 120;
    let mut los = 0u64;
    match spec.shape {
        StreamShape::Forest { garbage_factor, .. } => {
            est = (est as f64 * (1.0 + garbage_factor + 0.5)) as u64;
        }
        // Churny shapes sweep during generation; garbage between two
        // sweeps is bounded by about one live set.
        StreamShape::LruCache { .. }
        | StreamShape::RequestSession { .. }
        | StreamShape::ActorMesh { .. } => {
            est *= 3;
        }
        StreamShape::SocialGraph {
            supernodes,
            supernode_degree,
        } => {
            est *= 2;
            los = supernodes as u64 * (supernode_degree as u64 + 4) * 8 * 2;
        }
    }
    let spaces = SpaceMap::with_heap_capacity(est * 2, los + (128 << 20));
    // Physical frames: heap spaces + page tables + spill headroom.
    let phys_bytes = (spaces.ms_size + spaces.los_size + (512 << 20)).next_power_of_two();
    Heap::new(HeapConfig {
        phys_bytes,
        layout,
        spaces,
        ..HeapConfig::default()
    })
}

/// Generates a streamed heap for `spec` under the given layout.
pub fn generate_streamed(spec: &StreamSpec, layout: LayoutKind) -> StreamedHeap {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut heap = heap_for(spec, layout);
    let mut stats = GenStats::default();
    let (roots, hot) = match spec.shape {
        StreamShape::Forest {
            mean_refs,
            array_fraction,
            popularity_s,
            hot_fraction,
            garbage_factor,
        } => gen_forest(
            spec,
            &mut heap,
            &mut rng,
            &mut stats,
            mean_refs,
            array_fraction,
            popularity_s,
            hot_fraction,
            garbage_factor,
        ),
        StreamShape::LruCache { churn_factor } => {
            gen_lru(spec, &mut heap, &mut rng, &mut stats, churn_factor)
        }
        StreamShape::RequestSession {
            session_objects,
            survivor_fraction,
        } => gen_sessions(
            spec,
            &mut heap,
            &mut rng,
            &mut stats,
            session_objects,
            survivor_fraction,
        ),
        StreamShape::SocialGraph {
            supernodes,
            supernode_degree,
        } => gen_social(
            spec,
            &mut heap,
            &mut rng,
            &mut stats,
            supernodes,
            supernode_degree,
        ),
        StreamShape::ActorMesh {
            peers,
            mailbox_depth,
            churn_messages,
        } => gen_actor_mesh(
            spec,
            &mut heap,
            &mut rng,
            &mut stats,
            peers,
            mailbox_depth,
            churn_messages,
        ),
    };
    heap.set_roots(&roots);
    let live_objects = heap.reachable_count();
    StreamedHeap {
        heap,
        live_objects,
        hot_set: hot,
        stats,
        rng,
    }
}

fn note_peak(stats: &mut GenStats, tracked: usize) {
    stats.peak_tracked = stats.peak_tracked.max(tracked);
}

fn alloc_tracked(
    heap: &mut Heap,
    stats: &mut GenStats,
    nrefs: u32,
    scalars: u32,
    array: bool,
    live: bool,
) -> ObjRef {
    stats.allocated += 1;
    if live {
        stats.est_live_bytes += heap.cell_bytes_needed(nrefs, scalars);
    }
    heap.alloc(nrefs, scalars, array)
        .expect("streamed heap sized for the spec")
}

/// Geometric out-degree around `mean_refs`, arrays excepted — the same
/// distribution the snapshot generator uses.
fn draw_refs(rng: &mut StdRng, mean_refs: f64, array_fraction: f64) -> (u32, bool) {
    if rng.random::<f64>() < array_fraction {
        (rng.random_range(8u32..96), true)
    } else {
        let p = 1.0 / (mean_refs + 1.0);
        let mut k = 0u32;
        while k < 12 && rng.random::<f64>() >= p {
            k += 1;
        }
        (k, false)
    }
}

/// Fills an evicted window entry's leftover slots with cross edges:
/// Zipf-popular recent objects, a fixed fraction aimed at the hot set.
fn publish(
    heap: &mut Heap,
    rng: &mut StdRng,
    (obj, nslots, next): (ObjRef, u32, u32),
    recent: &RecentRing,
    hot: &[ObjRef],
    zipf: &Zipf,
    hot_fraction: f64,
) {
    for slot in next..nslots {
        let target = if !hot.is_empty() && rng.random::<f64>() < hot_fraction {
            hot[rng.random_range(0..hot.len())]
        } else {
            match recent.sample(zipf.sample(rng)) {
                Some(t) => t,
                None => continue,
            }
        };
        heap.set_ref(obj, slot, Some(target));
    }
}

#[allow(clippy::too_many_arguments)]
fn gen_forest(
    spec: &StreamSpec,
    heap: &mut Heap,
    rng: &mut StdRng,
    stats: &mut GenStats,
    mean_refs: f64,
    array_fraction: f64,
    popularity_s: f64,
    hot_fraction: f64,
    garbage_factor: f64,
) -> (Vec<ObjRef>, Vec<ObjRef>) {
    let window = spec.window.max(64);
    let mut open = OpenWindow::new(window);
    let mut recent = RecentRing::new(window);
    let zipf = Zipf::new(window, popularity_s);
    let mut roots: Vec<ObjRef> = Vec::new();
    let mut hot: Vec<ObjRef> = Vec::new();
    let mut garbage_acc = 0.0f64;
    let mut last_dead: Option<ObjRef> = None;

    for i in 0..spec.live_objects {
        let (nrefs, is_array) = draw_refs(rng, mean_refs, array_fraction);
        let scalars = rng.random_range(0u32..8);
        // Object 0 is made wide so the forest always has somewhere to
        // grow from, as in the snapshot generator.
        let (nrefs, is_array) = if i == 0 {
            (64, true)
        } else {
            (nrefs, is_array)
        };
        let obj = alloc_tracked(heap, stats, nrefs, scalars, is_array, true);
        // Attach to the forest through the open window; objects the
        // window cannot reach become roots (rare: only after a long run
        // of zero-slot objects).
        if i == 0 || !open.attach(rng, heap, obj) {
            roots.push(obj);
        }
        if hot.len() < spec.hot_set {
            hot.push(obj);
        }
        // Half the slots (rounded up) grow the forest; the rest are
        // cross-edge slots filled at eviction.
        if let Some(evicted) = open.push(obj, nrefs.div_ceil(2)) {
            publish(heap, rng, evicted, &recent, &hot, &zipf, hot_fraction);
        }
        recent.push(obj);
        // Interleaved garbage: dead chains the sweep must reclaim.
        garbage_acc += garbage_factor;
        while garbage_acc >= 1.0 {
            garbage_acc -= 1.0;
            let dead = alloc_tracked(heap, stats, 2, rng.random_range(0u32..6), false, false);
            heap.set_ref(dead, 0, last_dead);
            last_dead = Some(dead);
        }
        note_peak(
            stats,
            open.len() + recent.len() + roots.len() + hot.len() + 1,
        );
    }
    // Publish everything still open and top up the requested roots.
    while let Some(entry) = open.q.pop_front() {
        publish(heap, rng, entry, &recent, &hot, &zipf, hot_fraction);
    }
    while roots.len() < spec.roots {
        match recent.sample(rng.random_range(0..recent.len().max(1))) {
            Some(obj) => roots.push(obj),
            None => break,
        }
    }
    (roots, hot)
}

fn gen_lru(
    spec: &StreamSpec,
    heap: &mut Heap,
    rng: &mut StdRng,
    stats: &mut GenStats,
    churn_factor: f64,
) -> (Vec<ObjRef>, Vec<ObjRef>) {
    // Each cache entry is an entry object (4 refs) plus a value object:
    // two live objects per slot. Shared metadata singletons form the hot
    // set; entries link to them, never to each other, so an eviction
    // really kills the entry.
    let capacity = (spec.live_objects / 2).max(32);
    let hot: Vec<ObjRef> = (0..spec.hot_set.max(1))
        .map(|_| alloc_tracked(heap, stats, 0, rng.random_range(4u32..12), false, true))
        .collect();
    // The directory: root arrays of 64 slots holding the entries.
    let dirs: Vec<ObjRef> = (0..capacity.div_ceil(64))
        .map(|_| alloc_tracked(heap, stats, 64, 0, true, true))
        .collect();
    let mut entries: Vec<ObjRef> = Vec::with_capacity(capacity);
    let new_entry = |heap: &mut Heap, rng: &mut StdRng, stats: &mut GenStats| -> ObjRef {
        let value = alloc_tracked(heap, stats, 0, rng.random_range(2u32..16), false, true);
        let entry = alloc_tracked(heap, stats, 4, 2, false, true);
        heap.set_ref(entry, 0, Some(value));
        for slot in 1..4 {
            heap.set_ref(entry, slot, Some(hot[rng.random_range(0..hot.len())]));
        }
        entry
    };
    // Warm-up fill.
    for i in 0..capacity {
        let entry = new_entry(heap, rng, stats);
        heap.set_ref(dirs[i / 64], (i % 64) as u32, Some(entry));
        entries.push(entry);
        note_peak(stats, entries.len() + dirs.len() + hot.len());
    }
    let mut roots = dirs.clone();
    roots.extend(hot.iter().copied());
    // Miss churn: evict a random entry, allocate a replacement. A sweep
    // every `capacity` evictions bounds the dead-entry backlog to about
    // one live set.
    let misses = (capacity as f64 * churn_factor) as usize;
    for m in 0..misses {
        let i = rng.random_range(0..capacity);
        let entry = new_entry(heap, rng, stats);
        // The evicted entry and its value become garbage.
        stats.est_live_bytes = stats
            .est_live_bytes
            .saturating_sub(heap.cell_bytes_needed(4, 2) + heap.cell_bytes_needed(0, 8));
        heap.set_ref(dirs[i / 64], (i % 64) as u32, Some(entry));
        entries[i] = entry;
        if (m + 1) % capacity == 0 {
            gen_sweep(heap, &roots, stats);
        }
        note_peak(stats, entries.len() + roots.len() + hot.len());
    }
    (roots, hot)
}

fn gen_sessions(
    spec: &StreamSpec,
    heap: &mut Heap,
    rng: &mut StdRng,
    stats: &mut GenStats,
    session_objects: u32,
    survivor_fraction: f64,
) -> (Vec<ObjRef>, Vec<ObjRef>) {
    let session_objects = session_objects.max(2);
    let hot: Vec<ObjRef> = (0..spec.hot_set.max(1))
        .map(|_| alloc_tracked(heap, stats, 0, rng.random_range(4u32..12), false, true))
        .collect();
    let target_sessions = (spec.live_objects / session_objects as usize).max(1);
    let dirs: Vec<ObjRef> = (0..target_sessions.div_ceil(64))
        .map(|_| alloc_tracked(heap, stats, 64, 0, true, true))
        .collect();
    let mut roots = dirs.clone();
    roots.extend(hot.iter().copied());
    let mut retained = 0usize;
    let mut since_sweep = 0u64;
    // Allocate sessions at a high rate until enough survive. A session
    // is a small random tree; the local scratch is bounded by the
    // session size, not the heap.
    let mut session: Vec<ObjRef> = Vec::with_capacity(session_objects as usize);
    while retained < target_sessions {
        session.clear();
        let root = alloc_tracked(heap, stats, 8, 2, false, false);
        session.push(root);
        for _ in 1..session_objects {
            let nrefs = rng.random_range(0u32..5);
            let obj = alloc_tracked(heap, stats, nrefs, rng.random_range(0u32..6), false, false);
            // Hang off a random earlier session object with a free-ish
            // slot; session trees are tiny, so a retry scan is cheap.
            let parent = session[rng.random_range(0..session.len())];
            let slots = heap.nrefs(parent);
            if slots > 0 {
                heap.set_ref(parent, rng.random_range(0..slots), Some(obj));
            }
            if nrefs > 1 && rng.random::<f64>() < 0.3 {
                heap.set_ref(obj, nrefs - 1, Some(hot[rng.random_range(0..hot.len())]));
            }
            session.push(obj);
        }
        since_sweep += session.len() as u64;
        if rng.random::<f64>() < survivor_fraction {
            heap.set_ref(dirs[retained / 64], (retained % 64) as u32, Some(root));
            retained += 1;
            for &o in &session {
                stats.est_live_bytes += heap.cell_bytes_needed(heap.nrefs(o), 2);
            }
        }
        // Everything not retained is garbage; recycle it periodically so
        // the simulated footprint tracks the survivors, not the
        // allocation rate.
        if since_sweep > (spec.live_objects as u64).max(4096) {
            since_sweep = 0;
            gen_sweep(heap, &roots, stats);
        }
        note_peak(stats, session.len() + roots.len() + hot.len() + dirs.len());
    }
    (roots, hot)
}

fn gen_social(
    spec: &StreamSpec,
    heap: &mut Heap,
    rng: &mut StdRng,
    stats: &mut GenStats,
    supernodes: usize,
    supernode_degree: u32,
) -> (Vec<ObjRef>, Vec<ObjRef>) {
    let supernodes = supernodes.max(1);
    let window = spec.window.max(64);
    // Supernodes: huge reference arrays, allocated up front (they land
    // in the LOS once past the largest size class) and rooted directly.
    let supers: Vec<ObjRef> = (0..supernodes)
        .map(|_| alloc_tracked(heap, stats, supernode_degree, 0, true, true))
        .collect();
    let mut super_fill = vec![0u32; supernodes];
    let mut open = OpenWindow::new(window);
    let mut recent = RecentRing::new(window);
    let zipf = Zipf::new(window, 0.8);
    let mut roots: Vec<ObjRef> = supers.clone();
    // The hot set is the supernode prefix: celebrity accounts draw the
    // popular edges.
    let hot: Vec<ObjRef> = supers.iter().take(spec.hot_set.max(1)).copied().collect();
    let users = spec.live_objects.saturating_sub(supernodes).max(1);
    for i in 0..users {
        // Power-law-ish out-degree: mostly small, occasionally large.
        let nrefs = if rng.random::<f64>() < 0.02 {
            rng.random_range(16u32..64)
        } else {
            rng.random_range(0u32..6)
        };
        let obj = alloc_tracked(heap, stats, nrefs, rng.random_range(0u32..4), false, true);
        if i == 0 || !open.attach(rng, heap, obj) {
            roots.push(obj);
        }
        // Follow edges: most users point at a supernode (in-degree
        // concentration at the celebrities).
        if nrefs > 0 && rng.random::<f64>() < 0.8 {
            let s = zipf.sample(rng) % supernodes;
            heap.set_ref(obj, nrefs - 1, Some(supers[s]));
        }
        // Fan-out: the supernodes' slots fill with users round-robin.
        let s = i % supernodes;
        if super_fill[s] < supernode_degree {
            heap.set_ref(supers[s], super_fill[s], Some(obj));
            super_fill[s] += 1;
        }
        let forest_slots = nrefs.saturating_sub(1).div_ceil(2);
        if let Some(evicted) = open.push(obj, forest_slots) {
            publish(heap, rng, evicted, &recent, &hot, &zipf, 0.1);
        }
        recent.push(obj);
        note_peak(
            stats,
            open.len() + recent.len() + roots.len() + supers.len() + super_fill.len(),
        );
    }
    while let Some(entry) = open.q.pop_front() {
        publish(heap, rng, entry, &recent, &hot, &zipf, 0.1);
    }
    (roots, hot)
}

fn gen_actor_mesh(
    spec: &StreamSpec,
    heap: &mut Heap,
    rng: &mut StdRng,
    stats: &mut GenStats,
    peers: u32,
    mailbox_depth: u32,
    churn_messages: f64,
) -> (Vec<ObjRef>, Vec<ObjRef>) {
    let peers = peers.max(1);
    let mailbox_depth = mailbox_depth.max(1);
    // Steady state per actor: the actor object, its mailbox array and a
    // full mailbox of (message, payload) pairs.
    let per_actor = 2 + 2 * mailbox_depth as usize;
    let n_actors = (spec.live_objects / per_actor).max(8);
    // Shared singletons (dispatcher, config): the hot set, rooted.
    let hot: Vec<ObjRef> = (0..spec.hot_set.max(1))
        .map(|_| alloc_tracked(heap, stats, 0, rng.random_range(4u32..12), false, true))
        .collect();
    // The actor directory: root arrays of 64 slots.
    let dirs: Vec<ObjRef> = (0..n_actors.div_ceil(64))
        .map(|_| alloc_tracked(heap, stats, 64, 0, true, true))
        .collect();
    let mut roots = dirs.clone();
    roots.extend(hot.iter().copied());
    // Spawn the actors: slot 0 holds the mailbox, the rest are peers.
    let mut actors: Vec<ObjRef> = Vec::with_capacity(n_actors);
    let mut mailboxes: Vec<ObjRef> = Vec::with_capacity(n_actors);
    for i in 0..n_actors {
        let mailbox = alloc_tracked(heap, stats, mailbox_depth, 0, true, true);
        let actor = alloc_tracked(heap, stats, peers + 1, 2, false, true);
        heap.set_ref(actor, 0, Some(mailbox));
        heap.set_ref(dirs[i / 64], (i % 64) as u32, Some(actor));
        actors.push(actor);
        mailboxes.push(mailbox);
        note_peak(
            stats,
            actors.len() + mailboxes.len() + roots.len() + hot.len(),
        );
    }
    // Small-world mesh: slot 1 is the ring predecessor (the mesh is one
    // strongly-connected cycle), the rest are random peers.
    for (i, &actor) in actors.iter().enumerate() {
        heap.set_ref(actor, 1, Some(actors[(i + n_actors - 1) % n_actors]));
        for slot in 2..=peers {
            heap.set_ref(actor, slot, Some(actors[rng.random_range(0..n_actors)]));
        }
    }
    // Message churn: each send allocates a (message, payload) pair and
    // writes it over the recipient's next mailbox slot round-robin; once
    // a mailbox is full every further send kills the slot's previous
    // occupant. Liveness is decided by the overwrites, not by when a
    // message was allocated.
    let msg_bytes = heap.cell_bytes_needed(1, 2) + heap.cell_bytes_needed(0, 4);
    let total_msgs = (n_actors as f64 * churn_messages) as usize;
    let mut sends = vec![0u32; n_actors];
    let mut since_sweep = 0usize;
    for _ in 0..total_msgs {
        let a = rng.random_range(0..n_actors);
        let payload = alloc_tracked(heap, stats, 0, 4, false, true);
        let msg = alloc_tracked(heap, stats, 1, 2, false, true);
        heap.set_ref(msg, 0, Some(payload));
        if sends[a] >= mailbox_depth {
            stats.est_live_bytes = stats.est_live_bytes.saturating_sub(msg_bytes);
        }
        heap.set_ref(mailboxes[a], sends[a] % mailbox_depth, Some(msg));
        sends[a] += 1;
        // A sweep every ~live-set's worth of sends bounds the dead
        // backlog, as in the other churny shapes.
        since_sweep += 2;
        if since_sweep > spec.live_objects.max(4096) {
            since_sweep = 0;
            gen_sweep(heap, &roots, stats);
        }
        note_peak(
            stats,
            actors.len() + mailboxes.len() + roots.len() + hot.len(),
        );
    }
    (roots, hot)
}

/// A generation-time collection: marks from `roots` and sweeps, so dead
/// cells are recycled by subsequent allocations.
fn gen_sweep(heap: &mut Heap, roots: &[ObjRef], stats: &mut GenStats) {
    heap.set_roots(roots);
    software_mark(heap);
    let outcome = software_sweep(heap);
    stats.gen_sweeps += 1;
    stats.cells_recycled += outcome.freed_cells;
}

/// Ready-made streamed specs for the heapscale sweep, sized in live
/// objects per target live megabyte (~120 bytes/object).
pub fn objects_for_mb(mb: u64) -> usize {
    ((mb << 20) / 120) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_heap::verify::{check_free_lists, software_mark, software_sweep};

    fn spec(shape: StreamShape, live: usize) -> StreamSpec {
        StreamSpec {
            name: "test",
            shape,
            live_objects: live,
            window: 512,
            hot_set: 16,
            roots: 32,
            seed: 0x57AE_A201,
        }
    }

    fn forest_shape() -> StreamShape {
        StreamShape::Forest {
            mean_refs: 2.0,
            array_fraction: 0.05,
            popularity_s: 0.6,
            hot_fraction: 0.05,
            garbage_factor: 0.5,
        }
    }

    #[test]
    fn forest_is_deterministic_and_mostly_live() {
        let s = spec(forest_shape(), 4000);
        let a = generate_streamed(&s, LayoutKind::Bidirectional);
        let b = generate_streamed(&s, LayoutKind::Bidirectional);
        assert_eq!(a.live_objects, b.live_objects);
        assert_eq!(a.stats.allocated, b.stats.allocated);
        assert_eq!(a.heap.reachable_from_roots(), b.heap.reachable_from_roots());
        // The window forest keeps nearly every designated-live object
        // reachable.
        assert!(
            a.live_objects as f64 > 4000.0 * 0.95,
            "live {} of 4000",
            a.live_objects
        );
        // Garbage was really allocated on top.
        assert!(a.stats.allocated >= 4000 + 1500);
    }

    #[test]
    fn social_graph_has_supernodes_with_disproportionate_degree() {
        let degree = 600u32;
        let g = generate_streamed(
            &spec(
                StreamShape::SocialGraph {
                    supernodes: 8,
                    supernode_degree: degree,
                },
                5000,
            ),
            LayoutKind::Bidirectional,
        );
        // The hot set is the supernode prefix: full configured degree.
        assert!(!g.hot_set.is_empty());
        for &s in &g.hot_set {
            assert_eq!(g.heap.nrefs(s), degree);
            assert!(g.heap.header(s).is_array());
        }
        // Degree distribution: supernodes sit far above the user mean,
        // and draw a large share of all in-edges.
        let supernode_set: std::collections::HashSet<_> = g.hot_set.iter().copied().collect();
        let mut user_degrees = 0u64;
        let mut users = 0u64;
        let mut edges = 0u64;
        let mut into_supernodes = 0u64;
        for obj in g.heap.iter_objects() {
            if !supernode_set.contains(&obj) {
                user_degrees += g.heap.nrefs(obj) as u64;
                users += 1;
            }
            for r in g.heap.refs_of(obj) {
                edges += 1;
                if supernode_set.contains(&r) {
                    into_supernodes += 1;
                }
            }
        }
        let mean_user_degree = user_degrees as f64 / users as f64;
        assert!(
            degree as f64 > 50.0 * mean_user_degree,
            "supernode degree {degree} vs user mean {mean_user_degree}"
        );
        let share = into_supernodes as f64 / edges as f64;
        assert!(
            share > 0.2,
            "supernodes should draw a large in-edge share: {share}"
        );
    }

    #[test]
    fn lru_live_set_is_pinned_at_capacity_under_churn() {
        let live = 4000usize;
        let lo = generate_streamed(
            &spec(StreamShape::LruCache { churn_factor: 0.5 }, live),
            LayoutKind::Bidirectional,
        );
        let hi = generate_streamed(
            &spec(StreamShape::LruCache { churn_factor: 4.0 }, live),
            LayoutKind::Bidirectional,
        );
        // Churn multiplies allocations, not the live set.
        assert!(hi.stats.allocated > lo.stats.allocated * 2);
        assert_eq!(hi.live_objects, lo.live_objects);
        let expect = live as f64;
        assert!(
            (hi.live_objects as f64) > expect * 0.9 && (hi.live_objects as f64) < expect * 1.2,
            "live {} for target {live}",
            hi.live_objects
        );
        // Generation-time sweeps recycled the evicted garbage.
        assert!(hi.stats.gen_sweeps > 0);
        assert!(hi.stats.cells_recycled > 0);
    }

    #[test]
    fn request_sessions_allocate_far_more_than_they_retain() {
        let g = generate_streamed(
            &spec(
                StreamShape::RequestSession {
                    session_objects: 24,
                    survivor_fraction: 0.1,
                },
                3000,
            ),
            LayoutKind::Bidirectional,
        );
        // ~10% survivor rate → allocation volume is a large multiple of
        // the live set (high allocation rate, most of it garbage).
        assert!(
            g.stats.allocated as f64 > 4.0 * g.live_objects as f64,
            "allocated {} vs live {}",
            g.stats.allocated,
            g.live_objects
        );
        assert!(g.stats.gen_sweeps > 0, "sessions must recycle garbage");
    }

    #[test]
    fn actor_mesh_churn_grows_allocations_not_the_live_set() {
        let live = 4000usize;
        let shape = |churn_messages| StreamShape::ActorMesh {
            peers: 3,
            mailbox_depth: 4,
            churn_messages,
        };
        let lo = generate_streamed(&spec(shape(6.0), live), LayoutKind::Bidirectional);
        let lo2 = generate_streamed(&spec(shape(6.0), live), LayoutKind::Bidirectional);
        let hi = generate_streamed(&spec(shape(24.0), live), LayoutKind::Bidirectional);
        // Deterministic.
        assert_eq!(lo.live_objects, lo2.live_objects);
        assert_eq!(lo.stats.allocated, lo2.stats.allocated);
        assert_eq!(
            lo.heap.reachable_from_roots(),
            lo2.heap.reachable_from_roots()
        );
        // Message churn multiplies allocations while the live set stays
        // mailbox-bounded — overwrites kill what they replace.
        assert!(hi.stats.allocated > lo.stats.allocated * 2);
        assert!(
            (hi.live_objects as f64) < live as f64 * 1.1,
            "live {} for target {live}",
            hi.live_objects
        );
        assert!(
            (hi.live_objects as f64) > live as f64 * 0.5,
            "live {} for target {live}",
            hi.live_objects
        );
        // More churn can only fill more mailbox slots, never unbound them.
        assert!(hi.live_objects >= lo.live_objects);
        assert!(hi.stats.gen_sweeps > 0, "churn must trigger sweeps");
        // Peak tracked memory is live-set-bounded, not churn-bounded.
        assert_eq!(lo.stats.peak_tracked, hi.stats.peak_tracked);
    }

    #[test]
    fn generator_peak_memory_tracks_live_set_not_allocations() {
        // Quadrupling the churn (total allocations) must leave the
        // generator's tracked-object peak unchanged; growing the live
        // set grows it.
        let live = 4000usize;
        let lo = generate_streamed(
            &spec(StreamShape::LruCache { churn_factor: 1.0 }, live),
            LayoutKind::Bidirectional,
        );
        let hi = generate_streamed(
            &spec(StreamShape::LruCache { churn_factor: 4.0 }, live),
            LayoutKind::Bidirectional,
        );
        assert!(hi.stats.allocated > lo.stats.allocated * 2);
        assert_eq!(
            lo.stats.peak_tracked, hi.stats.peak_tracked,
            "peak tracked objects must not grow with allocation volume"
        );
        // Budget: the tracker never holds more than the live set plus
        // window-sized slack.
        let s = spec(StreamShape::LruCache { churn_factor: 4.0 }, live);
        assert!(
            hi.stats.peak_tracked <= live + s.window + s.roots + s.hot_set + 256,
            "peak {} exceeds the live-set budget",
            hi.stats.peak_tracked
        );
        // Same property for the forest: garbage_factor changes
        // allocations, peak stays window-bounded.
        let f = |garbage_factor| {
            generate_streamed(
                &spec(
                    StreamShape::Forest {
                        mean_refs: 2.0,
                        array_fraction: 0.05,
                        popularity_s: 0.6,
                        hot_fraction: 0.05,
                        garbage_factor,
                    },
                    live,
                ),
                LayoutKind::Bidirectional,
            )
        };
        let (a, b) = (f(0.1), f(2.0));
        assert!(b.stats.allocated > a.stats.allocated + live as u64);
        let budget = 2 * s.window + s.roots + s.hot_set + 64;
        assert!(
            a.stats.peak_tracked <= budget && b.stats.peak_tracked <= budget,
            "forest peaks {} / {} exceed window budget {budget}",
            a.stats.peak_tracked,
            b.stats.peak_tracked
        );
    }

    #[test]
    fn generation_sweeps_bound_the_simulated_footprint() {
        // High churn with periodic sweeps: the touched physical
        // footprint stays well under the total allocated bytes because
        // cells are recycled in place.
        let g = generate_streamed(
            &spec(StreamShape::LruCache { churn_factor: 8.0 }, 4000),
            LayoutKind::Bidirectional,
        );
        let allocated_bytes = g.heap.stats().bytes_allocated;
        let resident = g.heap.phys.resident_bytes();
        assert!(
            resident < allocated_bytes,
            "resident {resident} should be below total allocated {allocated_bytes}"
        );
    }

    #[test]
    fn all_shapes_generate_collect_and_sweep() {
        let shapes = [
            ("forest", forest_shape()),
            ("lru", StreamShape::LruCache { churn_factor: 2.0 }),
            (
                "sessions",
                StreamShape::RequestSession {
                    session_objects: 24,
                    survivor_fraction: 0.2,
                },
            ),
            (
                "social",
                StreamShape::SocialGraph {
                    supernodes: 8,
                    supernode_degree: 600,
                },
            ),
            (
                "actors",
                StreamShape::ActorMesh {
                    peers: 3,
                    mailbox_depth: 4,
                    churn_messages: 8.0,
                },
            ),
        ];
        for (name, shape) in shapes {
            let mut g = generate_streamed(&spec(shape, 3000), LayoutKind::Bidirectional);
            assert!(g.live_objects > 0, "{name}: nothing live");
            let marked = software_mark(&mut g.heap);
            assert_eq!(marked, g.live_objects as u64, "{name}: mark mismatch");
            software_sweep(&mut g.heap);
            check_free_lists(&g.heap).unwrap();
        }
    }
}
