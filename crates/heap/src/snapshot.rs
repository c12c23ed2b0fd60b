//! Heap snapshots: a textual dump/load of the object graph.
//!
//! The paper's `libhwgc` shim had a debugging mode that "performs
//! software checks of the hardware unit (or produces a snapshot of the
//! heap). This approach helped for debugging" (§V-E). This module is
//! that facility: [`dump`] serializes the object graph (shapes, edges,
//! mark bits, roots) to a stable text format, and [`load`] rebuilds an
//! equivalent heap — with fresh addresses but an isomorphic graph — so
//! failing GC runs can be captured, replayed and diffed.
//!
//! # Format
//!
//! ```text
//! tracegc-snapshot v1
//! layout bidirectional
//! object <id> nrefs <n> scalars <s> array <0|1> marked <0|1>
//! ref <obj-id> <slot> <target-id>
//! root <id>
//! ```
//!
//! Object ids are dense indices in dump order, so snapshots diff cleanly.

use std::io;

use crate::heap::{Heap, HeapConfig};
use crate::layout::{bidi, conv, LayoutKind, ObjRef, WORD};
use crate::space::SpaceMap;

/// A malformed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line of the offending input (0 for structural errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotError {}

fn err(line: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError {
        line,
        message: message.into(),
    }
}

/// Parses the `what` field `s` of line `lno` as a `T`, rejecting a
/// value `T` cannot hold instead of truncating it.
fn number<T: std::str::FromStr>(lno: usize, what: &str, s: &str) -> Result<T, SnapshotError> {
    s.parse().map_err(|_| {
        err(
            lno,
            format!("bad {what} {s:?}: not a {}", std::any::type_name::<T>()),
        )
    })
}

/// Scalar words an object's cell provides beyond its references and
/// headers (the requested count is not recoverable, only the capacity).
fn scalar_capacity(heap: &Heap, obj: ObjRef, cell_bytes: u64) -> u32 {
    let nrefs = heap.nrefs(obj) as u64;
    let words = cell_bytes / WORD;
    let used = match heap.layout() {
        LayoutKind::Bidirectional => 2 + nrefs,
        LayoutKind::Conventional => 3 + nrefs,
    };
    words.saturating_sub(used) as u32
}

/// Serializes the heap's object graph through `out`, streaming line by
/// line — the snapshot text is never materialized in memory, so dumping
/// a multi-GB heap to a file costs only the id table (16 bytes per
/// object) on top of the object list.
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn dump_to<W: io::Write>(heap: &Heap, out: &mut W) -> io::Result<()> {
    writeln!(out, "tracegc-snapshot v1")?;
    writeln!(
        out,
        "layout {}",
        match heap.layout() {
            LayoutKind::Bidirectional => "bidirectional",
            LayoutKind::Conventional => "conventional",
        }
    )?;
    let objects = heap.iter_objects();
    // Id lookup: a sorted (address, dump-order id) table binary-searched
    // per edge — half the footprint of a HashMap and cache-friendly.
    let mut ids: Vec<(u64, u32)> = objects
        .iter()
        .enumerate()
        .map(|(i, o)| (o.addr(), i as u32))
        .collect();
    ids.sort_unstable();
    let id_of = |obj: ObjRef| -> Option<u32> {
        ids.binary_search_by_key(&obj.addr(), |&(a, _)| a)
            .ok()
            .map(|i| ids[i].1)
    };
    // Block lookup for cell sizes: sorted ranges, binary search per
    // object instead of a linear scan over all blocks.
    let mut block_ranges: Vec<(u64, u64, u64)> = heap
        .blocks()
        .iter()
        .map(|b| (b.base_va, b.base_va + b.ncells * b.cell_bytes, b.cell_bytes))
        .collect();
    block_ranges.sort_unstable();
    let cell_of = |obj: ObjRef| -> u64 {
        let cell_base = match heap.layout() {
            LayoutKind::Bidirectional => bidi::cell_of_header(obj.addr(), heap.nrefs(obj)),
            LayoutKind::Conventional => conv::cell_of_header(obj.addr()),
        };
        let i = block_ranges.partition_point(|&(base, _, _)| base <= cell_base);
        match i.checked_sub(1).map(|i| block_ranges[i]) {
            Some((_, end, cell_bytes)) if cell_base < end => cell_bytes,
            // LOS object: report the minimal capacity.
            _ => (heap.nrefs(obj) as u64 + 2) * WORD,
        }
    };
    for (i, &obj) in objects.iter().enumerate() {
        let h = heap.header(obj);
        writeln!(
            out,
            "object {i} nrefs {} scalars {} array {} marked {}",
            h.nrefs(),
            scalar_capacity(heap, obj, cell_of(obj)),
            u8::from(h.is_array()),
            u8::from(h.is_marked()),
        )?;
    }
    for (i, &obj) in objects.iter().enumerate() {
        for slot in 0..heap.nrefs(obj) {
            if let Some(target) = heap.get_ref(obj, slot) {
                if let Some(tid) = id_of(target) {
                    writeln!(out, "ref {i} {slot} {tid}")?;
                }
            }
        }
    }
    for &root in heap.roots() {
        if let Some(rid) = id_of(root) {
            writeln!(out, "root {rid}")?;
        }
    }
    Ok(())
}

/// Serializes the heap's object graph into one `String`. Convenient for
/// small heaps and diffs; large heaps should [`dump_to`] a file instead.
pub fn dump(heap: &Heap) -> String {
    let mut buf = Vec::new();
    dump_to(heap, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("snapshot text is ASCII")
}

/// Rebuilds a heap from a snapshot. Addresses differ from the original;
/// the object graph, mark bits and roots are isomorphic.
///
/// # Errors
///
/// Returns [`SnapshotError`] on malformed input or dangling ids.
pub fn load(text: &str) -> Result<Heap, SnapshotError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let (_, header) = lines.next().ok_or_else(|| err(0, "empty snapshot"))?;
    if header != "tracegc-snapshot v1" {
        return Err(err(1, format!("bad header {header:?}")));
    }
    let (lno, layout_line) = lines.next().ok_or_else(|| err(0, "missing layout"))?;
    let layout = match layout_line.strip_prefix("layout ") {
        Some("bidirectional") => LayoutKind::Bidirectional,
        Some("conventional") => LayoutKind::Conventional,
        _ => return Err(err(lno, format!("bad layout line {layout_line:?}"))),
    };

    #[derive(Clone, Copy)]
    struct Shape {
        nrefs: u32,
        scalars: u32,
        array: bool,
        marked: bool,
    }
    let mut shapes: Vec<Shape> = Vec::new();
    let mut edges: Vec<(usize, u32, usize)> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();

    for (lno, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["object", id, "nrefs", n, "scalars", s, "array", a, "marked", m] => {
                if number::<usize>(lno, "object id", id)? != shapes.len() {
                    return Err(err(lno, "object ids must be dense and in order"));
                }
                shapes.push(Shape {
                    nrefs: number(lno, "nrefs", n)?,
                    scalars: number(lno, "scalars", s)?,
                    array: number::<u64>(lno, "array flag", a)? != 0,
                    marked: number::<u64>(lno, "marked flag", m)? != 0,
                });
            }
            ["ref", obj, slot, target] => {
                edges.push((
                    number(lno, "ref source", obj)?,
                    number(lno, "slot", slot)?,
                    number(lno, "ref target", target)?,
                ));
            }
            ["root", id] => roots.push(number(lno, "root id", id)?),
            _ => return Err(err(lno, format!("unrecognized line {line:?}"))),
        }
    }

    // Every object takes at least its cell bytes out of the mark-sweep
    // space or the LOS, so a snapshot that needs more than both hold
    // could never load; reject it before sizing memory for it.
    let cell_bytes = |s: &Shape| {
        WORD * match layout {
            LayoutKind::Bidirectional => bidi::cell_words(s.nrefs, s.scalars),
            LayoutKind::Conventional => conv::cell_words(s.nrefs, s.scalars),
        }
    };
    let spaces = SpaceMap::default();
    let capacity = spaces.ms_size + spaces.los_size;
    let needed = shapes
        .iter()
        .try_fold(0u64, |sum, s| sum.checked_add(cell_bytes(s)));
    if needed.is_none_or(|n| n > capacity) {
        let needed = needed.map_or_else(|| format!("over {}", u64::MAX), |n| n.to_string());
        return Err(err(
            0,
            format!(
                "objects need {needed} bytes, more than the {capacity} bytes \
                 the mark-sweep and large-object spaces hold"
            ),
        ));
    }
    let approx = shapes
        .iter()
        .map(|s| (s.nrefs as u64 + s.scalars as u64 + 3) * WORD)
        .sum::<u64>();
    let cfg = HeapConfig {
        phys_bytes: (approx * 6).next_power_of_two().max(64 << 20),
        layout,
        ..HeapConfig::default()
    };
    // The root region holds a count word, then one word per root.
    let max_roots = cfg.spaces.hwgc_size / WORD - 1;
    if roots.len() as u64 > max_roots {
        return Err(err(
            0,
            format!(
                "{} roots exceed the root region's limit of {max_roots}",
                roots.len()
            ),
        ));
    }
    let mut heap = Heap::new(cfg);
    let objects: Vec<ObjRef> = shapes
        .iter()
        .map(|s| {
            heap.alloc(s.nrefs, s.scalars, s.array)
                .map_err(|e| err(0, format!("allocation failed: {e}")))
        })
        .collect::<Result<_, _>>()?;
    for (obj, slot, target) in edges {
        let from = *objects
            .get(obj)
            .ok_or_else(|| err(0, "dangling ref source"))?;
        let to = *objects
            .get(target)
            .ok_or_else(|| err(0, "dangling ref target"))?;
        if slot >= heap.nrefs(from) {
            return Err(err(0, format!("slot {slot} out of range for object {obj}")));
        }
        heap.set_ref(from, slot, Some(to));
    }
    for (i, s) in shapes.iter().enumerate() {
        if s.marked {
            heap.mark(objects[i]);
        }
    }
    let root_refs: Vec<ObjRef> = roots
        .iter()
        .map(|&i| {
            objects
                .get(i)
                .copied()
                .ok_or_else(|| err(0, "dangling root"))
        })
        .collect::<Result<_, _>>()?;
    heap.set_roots(&root_refs);
    Ok(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_free_lists, software_mark};

    fn demo_heap() -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..100)
            .map(|i| h.alloc(2, (i % 3) as u32, i % 7 == 0).unwrap())
            .collect();
        for i in 0..60usize {
            h.set_ref(objs[i], 0, Some(objs[(i + 1) % 60]));
            h.set_ref(objs[i], 1, Some(objs[(i * 13 + 3) % 60]));
        }
        h.set_roots(&[objs[0], objs[30]]);
        h
    }

    #[test]
    fn roundtrip_preserves_the_graph() {
        let original = demo_heap();
        let text = dump(&original);
        let restored = load(&text).expect("well-formed snapshot");
        assert_eq!(
            original.reachable_from_roots().len(),
            restored.reachable_from_roots().len()
        );
        assert_eq!(original.iter_objects().len(), restored.iter_objects().len());
    }

    #[test]
    fn roundtrip_preserves_marks() {
        let mut original = demo_heap();
        software_mark(&mut original);
        let restored = load(&dump(&original)).expect("well-formed");
        assert_eq!(original.marked_set().len(), restored.marked_set().len());
    }

    #[test]
    fn double_roundtrip_is_stable() {
        let original = demo_heap();
        let once = dump(&original);
        let twice = dump(&load(&once).expect("ok"));
        assert_eq!(once, twice, "snapshot format should be a fixpoint");
    }

    #[test]
    fn gc_on_restored_heap_matches_original() {
        let mut original = demo_heap();
        let mut restored = load(&dump(&original)).expect("ok");
        let a = software_mark(&mut original).len();
        let b = software_mark(&mut restored).len();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(load("").is_err());
        assert!(load("not-a-snapshot").is_err());
        assert!(load("tracegc-snapshot v1\nlayout sideways\n").is_err());
        let bad_ids = "tracegc-snapshot v1\nlayout bidirectional\n\
                       object 5 nrefs 0 scalars 0 array 0 marked 0\n";
        assert!(load(bad_ids).is_err());
        let dangling = "tracegc-snapshot v1\nlayout bidirectional\n\
                        object 0 nrefs 1 scalars 0 array 0 marked 0\nref 0 0 9\n";
        assert!(load(dangling).is_err());
        // Counts and slots past u32 are errors naming their line, not
        // truncated: these would otherwise load as 1 ref and 0
        // scalars, and as a ref into slot 0.
        let wide_counts = "tracegc-snapshot v1\nlayout bidirectional\n\
                           object 0 nrefs 4294967297 scalars 4294967296 array 0 marked 0\n";
        let e = load(wide_counts).expect_err("nrefs past u32 must be rejected");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nrefs"), "{e}");
        let wide_slot = "tracegc-snapshot v1\nlayout bidirectional\n\
                         object 0 nrefs 1 scalars 0 array 0 marked 0\n\
                         object 1 nrefs 0 scalars 0 array 0 marked 0\n\
                         ref 0 4294967296 1\n";
        let e = load(wide_slot).expect_err("a slot past u32 must be rejected");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("slot"), "{e}");
        // One root past what the 4 MiB root region holds.
        let mut too_many_roots = String::from(
            "tracegc-snapshot v1\nlayout bidirectional\n\
             object 0 nrefs 0 scalars 0 array 0 marked 0\n",
        );
        too_many_roots.push_str(&"root 0\n".repeat(524_288));
        let e = load(&too_many_roots).expect_err("too many roots must be rejected");
        assert!(e.message.contains("524288 roots"), "{e}");
        assert!(e.message.contains("524287"), "{e}");
        // A full root region still loads.
        let full = &too_many_roots[..too_many_roots.len() - "root 0\n".len()];
        assert_eq!(
            load(full).expect("a full root region").roots().len(),
            524_287
        );
        // Shapes no space could hold are an error naming the bytes they
        // need and what the spaces hold, before any memory is sized for
        // them (sizing it from these shapes asked the host for 1 TiB).
        let capacity = (512u64 << 20) + (128 << 20);
        for layout in ["bidirectional", "conventional"] {
            let mut huge = format!("tracegc-snapshot v1\nlayout {layout}\n");
            for i in 0..10_000 {
                huge.push_str(&format!(
                    "object {i} nrefs 4294967295 scalars 4294967295 array 0 marked 0\n"
                ));
            }
            let e = load(&huge).expect_err("oversized shapes must be rejected");
            let per_object =
                8 * (if layout == "bidirectional" { 2 } else { 3 } + 2 * 4294967295u64);
            assert!(
                e.message
                    .contains(&format!("need {} bytes", 10_000 * per_object)),
                "{e}"
            );
            assert!(e.message.contains(&capacity.to_string()), "{e}");
        }
        // Conventional shapes whose TIBs overflow the 16 MiB immortal
        // space, though their cells fit: one TIB of 3 000 001 words, and
        // 6 000 distinct TIBs of 1..6 000 words.
        let one_big = "tracegc-snapshot v1\nlayout conventional\n\
                       object 0 nrefs 3000000 scalars 0 array 0 marked 0\n";
        let mut many = String::from("tracegc-snapshot v1\nlayout conventional\n");
        for i in 0..6_000 {
            many.push_str(&format!(
                "object {i} nrefs {i} scalars 0 array 0 marked 0\n"
            ));
        }
        for text in [one_big, &many] {
            let e = load(text).expect_err("TIBs past the immortal space must be rejected");
            assert!(e.message.contains("allocation failed"), "{e}");
        }
    }

    /// Twelve objects of mixed shapes with edges, two roots and four
    /// marks, in `layout`.
    fn small_heap(layout: LayoutKind) -> Heap {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            layout,
            ..HeapConfig::default()
        });
        let objs: Vec<ObjRef> = (0..12u32)
            .map(|i| h.alloc(i % 3, i % 4, i % 5 == 0).unwrap())
            .collect();
        for (i, &obj) in objs.iter().enumerate() {
            for slot in 0..h.nrefs(obj) {
                h.set_ref(obj, slot, Some(objs[(i * 7 + slot as usize + 1) % 12]));
            }
        }
        h.set_roots(&[objs[0], objs[5]]);
        for &obj in objs.iter().step_by(3) {
            h.mark(obj);
        }
        h
    }

    /// Loads `bytes` (lossily decoded) and checks that `load` returns a
    /// typed error or a heap with sound free lists whose dump is a
    /// fixpoint; `what` names the input in a failure. Returns whether it
    /// loaded.
    fn load_is_sound(bytes: &[u8], what: impl Fn() -> String) -> bool {
        let text = String::from_utf8_lossy(bytes);
        let loaded = std::panic::catch_unwind(|| load(&text))
            .unwrap_or_else(|_| panic!("load panicked on {}", what()));
        let Ok(heap) = loaded else {
            return false;
        };
        check_free_lists(&heap).unwrap_or_else(|e| panic!("{}: {e}", what()));
        let once = dump(&heap);
        let again = load(&once).unwrap_or_else(|e| panic!("{}: reload: {e}", what()));
        assert_eq!(dump(&again), once, "{}: dump is not a fixpoint", what());
        true
    }

    /// Every prefix of a small snapshot, and every one-bit flip of every
    /// byte, in both layouts.
    #[test]
    fn every_truncation_and_bit_flip_loads_or_errors() {
        for layout in [LayoutKind::Bidirectional, LayoutKind::Conventional] {
            let image = dump(&small_heap(layout)).into_bytes();
            let mut loaded = 0;
            for len in 0..=image.len() {
                if load_is_sound(&image[..len], || format!("{layout:?} cut at byte {len}")) {
                    loaded += 1;
                }
            }
            let mut flipped = image.clone();
            for i in 0..image.len() {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    if load_is_sound(&flipped, || format!("{layout:?} byte {i} bit {bit}")) {
                        loaded += 1;
                    }
                    flipped[i] ^= 1 << bit;
                }
            }
            // The whole image is one load; the checks must also have
            // run on mutated images that still parse.
            assert!(loaded > 1, "{layout:?}: no mutated image loaded");
        }
    }

    #[test]
    fn dump_to_streams_the_same_bytes_as_dump() {
        // A sink that accepts one byte at a time: proves dump_to really
        // goes through io::Write (no hidden buffering contract) and
        // produces exactly the materialized text.
        struct TrickleSink(Vec<u8>);
        impl std::io::Write for TrickleSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let heap = demo_heap();
        let mut sink = TrickleSink(Vec::new());
        dump_to(&heap, &mut sink).expect("streamed dump");
        assert_eq!(String::from_utf8(sink.0).unwrap(), dump(&heap));
    }

    #[test]
    fn dump_to_propagates_sink_errors() {
        struct FailSink;
        impl std::io::Write for FailSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(dump_to(&demo_heap(), &mut FailSink).is_err());
    }

    #[test]
    fn conventional_layout_roundtrips() {
        let mut h = Heap::new(HeapConfig {
            phys_bytes: 64 << 20,
            layout: LayoutKind::Conventional,
            ..HeapConfig::default()
        });
        let a = h.alloc(2, 1, false).unwrap();
        let b = h.alloc(0, 0, false).unwrap();
        h.set_ref(a, 1, Some(b));
        h.set_roots(&[a]);
        let restored = load(&dump(&h)).expect("ok");
        assert_eq!(restored.reachable_from_roots().len(), 2);
        assert_eq!(restored.layout(), LayoutKind::Conventional);
    }
}
