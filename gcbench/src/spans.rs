//! Host-time spans recorded around every call the benchmark makes into
//! a layer (a workspace crate).
//!
//! Spans are named `<layer>.<operation>`; the layer is the part before
//! the first dot. They stay in memory and are written out once the run
//! ends. A disabled tracer records nothing and reads no clock, so the
//! untraced run executes the same code without the cost.

use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// The collection the span worked for (0 = none yet).
    pub collection: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    collection: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            collection: 0,
        }
    }

    /// Tags the spans that follow with collection `id`.
    pub fn set_collection(&mut self, id: u64) {
        self.collection = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            collection: self.collection,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines, tagged with the workload and the repeat.
    pub fn to_jsonl(&self, workload: &str, repeat: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"repeat\":{repeat},\"collection\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.collection
            ));
        }
        out
    }
}

/// Self time of every span in `spans` (which must be closed and hold
/// their parents before them): its duration minus the part of that
/// interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Self time in seconds summed per span name over `spans`, plus the
/// same summed per layer (keyed `<layer>.self_s`).
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by: std::collections::BTreeMap<String, u64> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.name.to_string()).or_default() += t;
        *by.entry(format!("{}.self_s", s.layer())).or_default() += t;
    }
    by.into_iter().map(|(k, v)| (k, v as f64 * 1e-9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            collection: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.collect", 0, 100, None),
            span("hwgc.mark", 10, 40, Some(0)),
            span("mem.new", 15, 20, Some(1)),
            span("cpu.mark", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("bench.collect", 0, 100, None),
            span("a.x", 10, 50, Some(0)),
            span("a.y", 30, 60, Some(0)),
            span("a.z", 90, 130, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_seconds_group_by_name_and_layer() {
        let spans = vec![
            span("bench.collect", 0, 1_000_000_000, None),
            span("hwgc.mark", 0, 250_000_000, Some(0)),
            span("hwgc.sweep", 250_000_000, 500_000_000, Some(0)),
        ];
        let by: std::collections::BTreeMap<_, _> =
            self_seconds_by_name(&spans).into_iter().collect();
        assert!((by["hwgc.self_s"] - 0.5).abs() < 1e-12);
        assert!((by["hwgc.mark"] - 0.25).abs() < 1e-12);
        assert!((by["bench.self_s"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_collection(7);
        t.enter("bench.collect");
        let v = t.span("cpu.mark", || 3);
        t.exit();
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].collection, 7);
        assert_eq!(t.spans()[1].layer(), "cpu");
        assert!(t.to_jsonl("w", 0).lines().count() == 2);

        let mut off = Tracer::new(false);
        off.enter("bench.collect");
        off.span("cpu.mark", || ());
        off.exit();
        assert!(off.spans().is_empty());
    }
}
