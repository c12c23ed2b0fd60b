//! Fig. 21: the mark-bit cache.
//!
//! * Fig. 21a — a small number of objects account for ~10% of all mark
//!   accesses (≈56 objects in the paper's luindex run). An object's
//!   mark accesses are counted from the collected heap: one per root
//!   slot and one per non-null reference slot of each reachable object
//!   that points at it. On a clean pass that is exactly how often the
//!   marker dequeued the object's reference. Under `--fault-rate` it is
//!   still the heap's reference in-degree, not the partial count the
//!   unit had reached when it trapped.
//! * Fig. 21b — a small LRU cache of recently marked references filters
//!   those duplicates before they reach memory.

use std::collections::HashMap;

use tracegc_heap::{Heap, LayoutKind};
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc, MemKind};
use crate::table::Table;

const CACHE_SIZES: [usize; 5] = [0, 64, 105, 128, 256];

/// Mark accesses per object address (Fig. 21a): each root slot plus
/// each non-null reference slot of each object reachable from the roots.
fn mark_access_counts(heap: &Heap) -> HashMap<u64, u32> {
    let mut counts = HashMap::new();
    let reachable = heap.reachable_from_roots();
    let slots = heap.roots().iter().copied();
    for target in slots.chain(reachable.iter().flat_map(|&obj| heap.refs_of(obj))) {
        *counts.entry(target.addr()).or_insert(0) += 1;
    }
    counts
}

/// Access-frequency histogram and cache-size sweep on luindex.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("luindex")
        .expect("luindex exists")
        .scaled(opts.scale);
    // Every run below collects a copy of this one heap.
    let fresh = generate_heap(&spec, LayoutKind::Bidirectional).heap;

    // Fig. 21a: object-access-frequency distribution from one mark pass.
    let mut heap = fresh.clone();
    let cfg = GcUnitConfig {
        trace: opts.trace,
        ..GcUnitConfig::default()
    };
    let mut run = run_unit_gc(&mut heap, cfg, MemKind::ddr3_default(), opts.fault);
    let mut freq: Vec<u32> = mark_access_counts(&heap).into_values().collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));
    let total_accesses: u64 = freq.iter().map(|&c| c as u64).sum();
    let top56: u64 = freq.iter().take(56).map(|&c| c as u64).sum();

    let mut hist = Table::new(
        "Fig 21a: number of objects per mark-access count (log2 bins)",
        &["accesses", "objects"],
    );
    let mut bins = std::collections::BTreeMap::new();
    for &c in &freq {
        let bin = 1u32 << (31 - c.max(1).leading_zeros());
        *bins.entry(bin).or_insert(0u64) += 1;
    }
    for (bin, n) in bins {
        hist.row(vec![format!(">={bin}"), format!("{n}")]);
    }

    // Fig. 21b: cache-size sweep.
    let mut sweep = Table::new(
        "Fig 21b: mark-bit cache size vs marker memory traffic (luindex)",
        &[
            "cache-entries",
            "filtered-%",
            "mark-reqs-per-ref",
            "mark-ms",
        ],
    );
    let mut metrics = MetricsDoc::new("fig21");
    metrics.phase(
        "luindex.hist_run.unit_mark",
        run.report.mark.cycles(),
        1,
        run.report.mark.stalls,
    );
    super::note_unit_faults(&mut metrics, &run);
    metrics.counter("mark_accesses", total_accesses);
    for size in CACHE_SIZES {
        let cfg = GcUnitConfig {
            markbit_cache: size,
            ..GcUnitConfig::default()
        };
        let run = run_unit_gc(&mut fresh.clone(), cfg, MemKind::ddr3_default(), opts.fault);
        let mark = &run.report.mark;
        let attempts = mark.objects_marked + mark.already_marked + mark.filtered;
        let reqs = mark.objects_marked + mark.already_marked; // AMOs that reached memory
        sweep.row(vec![
            format!("{size}"),
            format!(
                "{:.1}%",
                100.0 * mark.filtered as f64 / attempts.max(1) as f64
            ),
            format!("{:.3}", reqs as f64 / attempts.max(1) as f64),
            crate::table::ms(mark.cycles()),
        ]);
        metrics.phase(
            &format!("luindex.cache{size}.unit_mark"),
            mark.cycles(),
            1,
            mark.stalls,
        );
        super::note_unit_faults(&mut metrics, &run);
    }

    ExperimentOutput {
        title: "Fig 21: mark-bit cache",
        tables: vec![hist, sweep],
        metrics,
        trace: run.unit.take_trace(),
        notes: vec![
            format!(
                "Top-56 objects receive {:.1}% of all {} mark accesses (paper: ~10%).",
                100.0 * top56 as f64 / total_accesses.max(1) as f64,
                total_accesses
            ),
            "Paper: the largest gain per area comes from a small cache (<64 \
             entries); overall mark time is not substantially affected at DDR3 \
             bandwidth."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegc_heap::{HeapConfig, ObjRef};
    use tracegc_hwgc::TraversalUnit;
    use tracegc_mem::MemSystem;

    #[test]
    fn access_counts_reflect_popularity() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let hub = h.alloc(0, 0, false).unwrap();
        let objs: Vec<ObjRef> = (0..100).map(|_| h.alloc(2, 0, false).unwrap()).collect();
        for i in 0..100usize {
            h.set_ref(objs[i], 0, Some(hub));
            if i + 1 < 100 {
                h.set_ref(objs[i], 1, Some(objs[i + 1]));
            }
        }
        h.set_roots(&[objs[0]]);
        let counts = mark_access_counts(&h);
        assert_eq!(counts[&hub.addr()], 100);
        // On a clean pass every counted reference is one mark operation:
        // filtered, already marked or newly marked.
        let mut mem = MemSystem::ddr3(Default::default());
        let mut unit = TraversalUnit::new(GcUnitConfig::default(), &mut h);
        let r = unit.try_run_mark(&mut h, &mut mem, 0).unwrap();
        let total: u64 = counts.values().map(|&c| u64::from(c)).sum();
        assert_eq!(total, r.objects_marked + r.already_marked + r.filtered);
    }
}
