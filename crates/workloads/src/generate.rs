//! Heap-snapshot generation and mutator churn.

use tracegc_heap::{Heap, HeapConfig, LayoutKind, ObjRef};
use tracegc_sim::dist::{log_normal, Zipf};
use tracegc_sim::rng::{Rng, StdRng};

use crate::spec::BenchSpec;

/// A generated benchmark heap plus the bookkeeping experiments need.
#[derive(Debug, Clone)]
pub struct WorkloadHeap {
    /// The heap, roots already published.
    pub heap: Heap,
    /// Every allocated object (live and dead).
    pub objects: Vec<ObjRef>,
    /// Number of objects reachable from the roots at generation time.
    pub live_objects: usize,
    /// The hot set (targets of [`BenchSpec::hot_fraction`] of edges).
    pub hot_set: Vec<ObjRef>,
    /// RNG state for subsequent churn, seeded from the spec.
    pub rng: StdRng,
}

/// Draws an out-degree with the given mean (geometric-like, capped).
fn draw_refs(rng: &mut StdRng, spec: &BenchSpec) -> u32 {
    if rng.random::<f64>() < spec.array_fraction {
        // Reference arrays: long objects exercising the tracer's
        // decoupling (§IV-A.II).
        rng.random_range(8..96)
    } else {
        // Geometric around the mean.
        let p = 1.0 / (spec.mean_refs + 1.0);
        let mut k = 0u32;
        while k < 12 && rng.random::<f64>() >= p {
            k += 1;
        }
        k
    }
}

fn draw_scalars(rng: &mut StdRng, spec: &BenchSpec) -> u32 {
    (log_normal(rng, spec.scalar_mu, spec.scalar_sigma) as u32).min(64)
}

/// Generates a heap snapshot for `spec` under the given layout.
///
/// The live subgraph is a random spanning forest (guaranteeing
/// reachability) plus Zipf-popular cross edges with a dedicated hot set;
/// dead objects form chains among themselves. All randomness comes from
/// `spec.seed`.
pub fn generate_heap(spec: &BenchSpec, layout: LayoutKind) -> WorkloadHeap {
    generate_heap_opts(spec, layout, false)
}

/// Like [`generate_heap`], with the heap mapped using 2 MiB superpages
/// when `superpages` is set (the §VII TLB-relief ablation).
pub fn generate_heap_opts(spec: &BenchSpec, layout: LayoutKind, superpages: bool) -> WorkloadHeap {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Physical memory: comfortably larger than the heap footprint
    // (superpage alignment wastes some physical space).
    let approx_bytes = spec.objects as u64 * 120;
    let phys = (approx_bytes * 8).next_power_of_two().max(64 << 20);
    let mut heap = Heap::new(HeapConfig {
        phys_bytes: phys,
        layout,
        superpages,
        ..HeapConfig::default()
    });

    let shapes: Vec<(u32, u32, bool)> = (0..spec.objects)
        .map(|_| {
            let is_array = rng.random::<f64>() < spec.array_fraction;
            (
                draw_refs(&mut rng, spec),
                draw_scalars(&mut rng, spec),
                is_array,
            )
        })
        .collect();
    let objects: Vec<ObjRef> = shapes
        .iter()
        .map(|&(r, s, a)| heap.alloc(r, s, a).expect("heap sized for the benchmark"))
        .collect();

    let live_count = ((spec.objects as f64) * spec.live_fraction) as usize;
    let live = &objects[..live_count];
    let dead = &objects[live_count..];
    let hot: Vec<ObjRef> = live.iter().take(spec.hot_set).copied().collect();
    let zipf = Zipf::new(live_count.max(1), spec.popularity_s);

    // Spanning forest over the live set: object i>0 hangs off an earlier
    // live object, guaranteeing reachability from object 0.
    for i in 1..live_count {
        let parent = rng.random_range(0..i);
        let slot_count = heap.nrefs(live[parent]);
        if slot_count == 0 {
            // Parent has no slots; hang off object 0's subtree via a
            // retry walk backwards (object 0 is made wide below).
            let mut p = parent;
            loop {
                if p == 0 || heap.nrefs(live[p]) > 0 {
                    break;
                }
                p -= 1;
            }
            let n = heap.nrefs(live[p]);
            if n > 0 {
                let slot = rng.random_range(0..n);
                if heap.get_ref(live[p], slot).is_none() {
                    heap.set_ref(live[p], slot, Some(live[i]));
                    continue;
                }
            }
            // Fall back: attach to the previous object in a chain slot.
            // (Rare; only when a run of zero-slot objects precedes i.)
            continue;
        }
        let slot = rng.random_range(0..slot_count);
        heap.set_ref(live[parent], slot, Some(live[i]));
    }

    // Cross edges: fill remaining empty slots of live objects with
    // Zipf-popular targets; a fixed fraction aims at the hot set.
    for &obj in live {
        let n = heap.nrefs(obj);
        for slot in 0..n {
            if heap.get_ref(obj, slot).is_some() {
                continue;
            }
            let target = if !hot.is_empty() && rng.random::<f64>() < spec.hot_fraction {
                hot[rng.random_range(0..hot.len())]
            } else {
                live[zipf.sample(&mut rng)]
            };
            heap.set_ref(obj, slot, Some(target));
        }
    }

    // Dead objects chain among themselves (garbage subgraphs).
    for i in 0..dead.len() {
        let n = heap.nrefs(dead[i]);
        for slot in 0..n.min(2) {
            let target = dead[rng.random_range(0..dead.len())];
            heap.set_ref(dead[i], slot, Some(target));
        }
    }

    // Roots: object 0 (the forest root) plus random live objects.
    let mut roots = vec![live[0]];
    for _ in 1..spec.roots.min(live_count) {
        roots.push(live[rng.random_range(0..live_count)]);
    }
    heap.set_roots(&roots);

    let live_objects = heap.reachable_count();
    WorkloadHeap {
        heap,
        objects,
        live_objects,
        hot_set: hot,
        rng,
    }
}

/// Mutator churn between two GC pauses: a fraction of live edges are
/// redirected to freshly allocated objects and some subtrees are
/// dropped, so the next pause has both new live objects and new garbage.
///
/// Returns the number of objects allocated.
pub fn churn(w: &mut WorkloadHeap, fraction: f64) -> usize {
    let live: Vec<ObjRef> = w.heap.reachable_from_roots().into_iter().collect();
    if live.is_empty() {
        return 0;
    }
    let n = ((live.len() as f64) * fraction) as usize;
    let mut allocated = 0;
    for _ in 0..n {
        let victim = live[w.rng.random_range(0..live.len())];
        let slots = w.heap.nrefs(victim);
        if slots == 0 {
            continue;
        }
        let slot = w.rng.random_range(0..slots);
        if w.rng.random::<f64>() < 0.5 {
            // Allocate a small object and link it in (new live data).
            let nrefs = w.rng.random_range(0..4);
            let scalars = w.rng.random_range(0..6);
            if let Ok(obj) = w.heap.alloc(nrefs, scalars, false) {
                // Point one of its slots back into the live graph so the
                // graph stays connected and interesting.
                if nrefs > 0 {
                    let back = live[w.rng.random_range(0..live.len())];
                    w.heap.set_ref(obj, 0, Some(back));
                }
                w.heap.set_ref(victim, slot, Some(obj));
                w.objects.push(obj);
                allocated += 1;
            }
        } else {
            // Drop the edge (what it pointed to may become garbage).
            w.heap.set_ref(victim, slot, None);
        }
    }
    allocated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, DACAPO};
    use tracegc_heap::verify::{check_free_lists, software_mark, software_sweep};

    fn small(name: &str) -> BenchSpec {
        by_name(name).unwrap().scaled(0.02)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_heap(&small("avrora"), LayoutKind::Bidirectional);
        let b = generate_heap(&small("avrora"), LayoutKind::Bidirectional);
        assert_eq!(a.live_objects, b.live_objects);
        assert_eq!(a.objects.len(), b.objects.len());
        assert_eq!(a.heap.reachable_from_roots(), b.heap.reachable_from_roots());
    }

    #[test]
    fn live_fraction_is_roughly_respected() {
        let spec = small("pmd");
        let w = generate_heap(&spec, LayoutKind::Bidirectional);
        let expected = (spec.objects as f64 * spec.live_fraction) as usize;
        // The spanning forest guarantees most of the designated live set
        // is reachable (a few zero-slot parents may strand children).
        assert!(
            w.live_objects > expected * 8 / 10,
            "live {} of expected {}",
            w.live_objects,
            expected
        );
        assert!(w.live_objects <= spec.objects);
    }

    #[test]
    fn all_benchmarks_generate_and_collect() {
        for spec in DACAPO {
            let spec = spec.scaled(0.01);
            let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
            let marked = software_mark(&mut w.heap);
            assert_eq!(marked, w.live_objects as u64, "{}", spec.name);
            software_sweep(&mut w.heap);
            check_free_lists(&w.heap).unwrap();
        }
    }

    #[test]
    fn hot_set_receives_disproportionate_in_edges() {
        let spec = small("luindex");
        let w = generate_heap(&spec, LayoutKind::Bidirectional);
        // Count in-edges per object.
        let mut in_hot = 0u64;
        let mut total = 0u64;
        let hot: std::collections::HashSet<_> = w.hot_set.iter().copied().collect();
        for &obj in &w.objects {
            for r in w.heap.refs_of(obj) {
                total += 1;
                if hot.contains(&r) {
                    in_hot += 1;
                }
            }
        }
        let share = in_hot as f64 / total as f64;
        assert!(
            share > 0.05,
            "hot set should draw a visible share of edges: {share}"
        );
    }

    #[test]
    fn churn_creates_new_garbage_and_new_objects() {
        let spec = small("lusearch");
        let mut w = generate_heap(&spec, LayoutKind::Bidirectional);
        software_mark(&mut w.heap);
        software_sweep(&mut w.heap);
        let allocated = churn(&mut w, 0.2);
        assert!(allocated > 0, "churn should allocate");
        // The next GC still works and frees something.
        assert!(software_mark(&mut w.heap) > 0);
        let out = software_sweep(&mut w.heap);
        check_free_lists(&w.heap).unwrap();
        let _ = out;
    }

    #[test]
    fn conventional_layout_generates_identical_graph_size() {
        let spec = small("sunflow");
        let a = generate_heap(&spec, LayoutKind::Bidirectional);
        let b = generate_heap(&spec, LayoutKind::Conventional);
        assert_eq!(a.live_objects, b.live_objects);
    }

    #[test]
    fn arrays_appear_in_the_population() {
        let spec = small("sunflow");
        let w = generate_heap(&spec, LayoutKind::Bidirectional);
        let arrays = w
            .objects
            .iter()
            .filter(|&&o| w.heap.header(o).is_array())
            .count();
        assert!(arrays > 0);
    }
}
