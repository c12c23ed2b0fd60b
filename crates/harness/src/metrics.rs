//! Machine-readable metrics sidecars and event-trace export.
//!
//! Every experiment emits a [`MetricsDoc`] alongside its CSV tables: a
//! deterministic, hand-rolled JSON document (schema
//! `tracegc-metrics-v1`, no external crates) carrying per-phase cycle
//! attribution ([`StallAccounting`]), named counters and named gauges.
//! [`chrome_trace_json`] renders a drained event ring in the Chrome
//! trace-event format (`chrome://tracing`, Perfetto), treating one
//! simulated cycle as one microsecond tick.

use std::fmt::Write as _;
use std::path::Path;

use tracegc_sim::{StallAccounting, StallReason, TraceEvent};

use crate::runner::PauseResult;

/// Schema tag written into every sidecar.
pub const SCHEMA: &str = "tracegc-metrics-v1";

/// Cycle attribution for one named phase of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Phase name, e.g. `pause0.unit_mark`.
    pub name: String,
    /// Wall cycles the phase took.
    pub cycles: u64,
    /// Parallel lanes accounted (1 for mark/CPU phases, the sweeper
    /// count for the unit's sweep).
    pub lanes: u64,
    /// The phase's cycle ledger: `stalls.total() == cycles * lanes`.
    pub stalls: StallAccounting,
}

/// One experiment's metrics document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    /// Experiment id (`fig15`, `ablA`, ...).
    pub id: String,
    /// Cycle-attributed phases, in emission order.
    pub phases: Vec<PhaseMetrics>,
    /// Named integer counters, in emission order.
    pub counters: Vec<(String, u64)>,
    /// Named fault-injection counters, in emission order. Kept apart
    /// from `counters` so tooling can find the fault section without
    /// name conventions; empty for clean (fault-free) runs.
    pub faults: Vec<(String, u64)>,
    /// Named float gauges, in emission order.
    pub gauges: Vec<(String, f64)>,
}

impl MetricsDoc {
    /// Starts an empty document for experiment `id`.
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_string(),
            ..Self::default()
        }
    }

    /// Appends a cycle-attributed phase.
    pub fn phase(&mut self, name: &str, cycles: u64, lanes: u64, stalls: StallAccounting) {
        self.phases.push(PhaseMetrics {
            name: name.to_string(),
            cycles,
            lanes: lanes.max(1),
            stalls,
        });
    }

    /// Adds `v` to counter `name` (creating it at 0).
    pub fn counter(&mut self, name: &str, v: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| n == name) {
            slot.1 += v;
        } else {
            self.counters.push((name.to_string(), v));
        }
    }

    /// Adds `v` to fault counter `name` (creating it at 0).
    pub fn fault(&mut self, name: &str, v: u64) {
        if let Some(slot) = self.faults.iter_mut().find(|(n, _)| n == name) {
            slot.1 += v;
        } else {
            self.faults.push((name.to_string(), v));
        }
    }

    /// The current value of counter `name`, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Folds the nonzero counters of one fault-injector snapshot into
    /// the faults section. Zero entries are skipped, so clean runs keep
    /// an empty section and zero-rate sidecars stay byte-identical to
    /// fault-free ones.
    pub fn note_faults(&mut self, stats: &tracegc_sim::FaultStats) {
        for (name, v) in stats.entries() {
            if v > 0 {
                self.fault(name, v);
            }
        }
    }

    /// The current value of fault counter `name`, if present.
    pub fn fault_value(&self, name: &str) -> Option<u64> {
        self.faults.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Sets gauge `name` to `v` (overwriting).
    pub fn gauge(&mut self, name: &str, v: f64) {
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _)| n == name) {
            slot.1 = v;
        } else {
            self.gauges.push((name.to_string(), v));
        }
    }

    /// Records the four attributed phases of one paired pause under
    /// `<prefix>.{cpu,unit}_{mark,sweep}` names.
    pub fn pause_phases(&mut self, prefix: &str, p: &PauseResult) {
        self.phase(
            &format!("{prefix}.cpu_mark"),
            p.cpu_mark_cycles,
            1,
            p.cpu_mark_stalls,
        );
        self.phase(
            &format!("{prefix}.cpu_sweep"),
            p.cpu_sweep_cycles,
            1,
            p.cpu_sweep_stalls,
        );
        self.phase(
            &format!("{prefix}.unit_mark"),
            p.unit_mark_cycles,
            1,
            p.unit_mark_stalls,
        );
        self.phase(
            &format!("{prefix}.unit_sweep"),
            p.unit_sweep_cycles,
            p.unit_sweep_lanes,
            p.unit_sweep_stalls,
        );
    }

    /// Checks the accounting invariant on every phase: attributed busy +
    /// stall cycles must equal `cycles * lanes` exactly.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.id.is_empty() {
            return Err("metrics doc has an empty id".into());
        }
        for p in &self.phases {
            let want = p.cycles * p.lanes;
            let got = p.stalls.total();
            if got != want {
                return Err(format!(
                    "{}: phase {} attributes {got} cycles, expected {} x {} = {want}",
                    self.id, p.name, p.cycles, p.lanes
                ));
            }
        }
        Ok(())
    }

    /// Fraction of phase cycles spent stalled, over all phases whose
    /// name ends in `suffix` (e.g. `unit_mark`). `None` with no match.
    pub fn stall_fraction(&self, suffix: &str) -> Option<f64> {
        let mut total = 0u64;
        let mut stalled = 0u64;
        for p in self.phases.iter().filter(|p| p.name.ends_with(suffix)) {
            total += p.stalls.total();
            stalled += p.stalls.total_stalled();
        }
        (total > 0).then(|| stalled as f64 / total as f64)
    }

    /// Renders the document as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json_string(SCHEMA));
        let _ = writeln!(s, "  \"id\": {},", json_string(&self.id));
        s.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"name\": {}, \"cycles\": {}, \"lanes\": {}, \"busy\": {}, \"stalls\": {{",
                json_string(&p.name),
                p.cycles,
                p.lanes,
                p.stalls.busy_cycles()
            );
            for (j, r) in StallReason::ALL.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {}", r.name(), p.stalls.stalled(*r));
            }
            s.push_str("}}");
        }
        s.push_str(if self.phases.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: {v}", json_string(name));
        }
        s.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        s.push_str("  \"faults\": {");
        for (i, (name, v)) in self.faults.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: {v}", json_string(name));
        }
        s.push_str(if self.faults.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        s.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: {}", json_string(name), json_f64(*v));
        }
        s.push_str(if self.gauges.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        s.push_str("}\n");
        s
    }
}

/// Writes `doc` to `<dir>/<id>.metrics.json`; returns the path written.
pub fn write_sidecar(dir: &Path, doc: &MetricsDoc) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.metrics.json", doc.id));
    std::fs::write(&path, doc.to_json())?;
    Ok(path)
}

/// Peak resident set size of this process in KiB: the `VmHWM` line of
/// `/proc/self/status`. `None` where `/proc` is unavailable (non-Linux)
/// or unparsable. A high-water mark, not an instantaneous reading.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Renders drained ring events in the Chrome trace-event format
/// (one simulated cycle = 1 µs). Stall events (`stall:*`) use their
/// `arg` as the duration; all others are unit-duration slices.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Stable component -> tid mapping in first-appearance order.
    let mut components: Vec<&'static str> = Vec::new();
    for e in events {
        if !components.contains(&e.component) {
            components.push(e.component);
        }
    }
    let tid = |c: &str| components.iter().position(|&x| x == c).unwrap_or(0) + 1;

    let mut s = String::with_capacity(64 + events.len() * 96);
    s.push_str("{\"traceEvents\": [");
    let mut first = true;
    for c in &components {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "\n  {{\"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": {}}}}}",
            tid(c),
            json_string(c)
        );
    }
    for e in events {
        if !first {
            s.push(',');
        }
        first = false;
        let dur = if e.kind.starts_with("stall:") {
            e.arg.max(1)
        } else {
            1
        };
        let _ = write!(
            s,
            "\n  {{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {dur}, \
             \"name\": {}, \"cat\": {}, \"args\": {{\"arg\": {}}}}}",
            tid(e.component),
            e.cycle,
            json_string(e.kind),
            json_string(e.component),
            e.arg
        );
    }
    s.push_str("\n]}\n");
    s
}

/// Escapes `v` as a JSON string literal (quotes included).
fn json_string(v: &str) -> String {
    crate::json::escape(v)
}

/// Formats a float as JSON: `{:?}` always produces a decimal point or
/// exponent; non-finite values (not representable in JSON) become 0.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A full JSON well-formedness check (no external crates), built on the
/// strict parser in [`crate::json`]: beyond the grammar it rejects
/// duplicate object keys, malformed escapes, raw control characters in
/// strings, leading-zero numbers, and trailing garbage. Values are not
/// retained; use [`crate::json::parse`] to read them.
pub fn json_syntax_check(s: &str) -> Result<(), String> {
    crate::json::parse(s).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stalls() -> StallAccounting {
        let mut s = StallAccounting::default();
        s.busy(70);
        s.stall(StallReason::MemLatency, 25);
        s.stall(StallReason::TlbMiss, 5);
        s
    }

    #[test]
    fn doc_roundtrip_is_valid_json() {
        let mut doc = MetricsDoc::new("fig15");
        doc.phase("pause0.unit_mark", 100, 1, sample_stalls());
        doc.counter("objects_marked", 600);
        doc.counter("objects_marked", 1); // accumulates
        doc.gauge("scale", 0.015);
        doc.gauge("speedup", 4.2);
        let json = doc.to_json();
        json_syntax_check(&json).unwrap();
        assert!(json.contains("\"schema\": \"tracegc-metrics-v1\""));
        assert!(json.contains("\"objects_marked\": 601"));
        assert!(json.contains("\"mem_latency\": 25"));
        doc.check_invariants().unwrap();
    }

    #[test]
    fn invariant_check_catches_short_attribution() {
        let mut doc = MetricsDoc::new("x");
        let mut s = StallAccounting::default();
        s.busy(99); // one cycle short of 100
        doc.phase("p", 100, 1, s);
        assert!(doc.check_invariants().is_err());
    }

    #[test]
    fn empty_doc_is_valid_json() {
        let doc = MetricsDoc::new("empty");
        json_syntax_check(&doc.to_json()).unwrap();
        doc.check_invariants().unwrap();
    }

    #[test]
    fn fault_section_accumulates_and_renders() {
        let mut doc = MetricsDoc::new("faultsweep");
        // Clean docs still carry an (empty) faults object, so the
        // sidecar shape is rate-independent.
        assert!(doc.to_json().contains("\"faults\": {},"));
        doc.fault("retries", 3);
        doc.fault("retries", 2);
        doc.fault("fallback_runs", 1);
        let json = doc.to_json();
        json_syntax_check(&json).unwrap();
        assert!(json.contains("\"retries\": 5"));
        assert_eq!(doc.fault_value("retries"), Some(5));
        assert_eq!(doc.fault_value("fallback_runs"), Some(1));
        assert_eq!(doc.fault_value("nope"), None);
        // Faults live in their own namespace, not in counters.
        assert_eq!(doc.counter_value("retries"), None);
        doc.counter("retries", 9);
        assert_eq!(doc.counter_value("retries"), Some(9));
        assert_eq!(doc.fault_value("retries"), Some(5));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let events = vec![
            TraceEvent {
                cycle: 5,
                component: "marker",
                kind: "mark_issue",
                arg: 0x1000,
            },
            TraceEvent {
                cycle: 9,
                component: "traversal",
                kind: "stall:mem_latency",
                arg: 12,
            },
        ];
        let json = chrome_trace_json(&events);
        json_syntax_check(&json).unwrap();
        assert!(json.contains("\"dur\": 12"));
        assert!(json.contains("thread_name"));
        // Empty trace still renders a valid document.
        json_syntax_check(&chrome_trace_json(&[])).unwrap();
    }

    #[test]
    fn syntax_check_rejects_garbage() {
        assert!(json_syntax_check("{\"a\": }").is_err());
        assert!(json_syntax_check("{} trailing").is_err());
        assert!(json_syntax_check("{\"a\": 1,}").is_err());
        assert!(json_syntax_check("[1, 2, {\"k\": \"v\"}]").is_ok());
        assert!(json_syntax_check("-1.5e-3").is_ok());
    }

    #[test]
    fn syntax_check_rejects_malformed_escapes() {
        assert!(json_syntax_check(r#"{"a": "bad \q escape"}"#).is_err());
        assert!(json_syntax_check(r#"{"a": "trunc \u00"}"#).is_err());
        assert!(json_syntax_check(r#"{"a": "nonhex \uZZZZ"}"#).is_err());
        assert!(json_syntax_check(r#"{"a": "ok A \n \t \" \\"}"#).is_ok());
    }

    #[test]
    fn syntax_check_rejects_truncated_objects() {
        assert!(json_syntax_check("{\"schema\": \"tracegc-metrics-v1\"").is_err());
        assert!(json_syntax_check("{\"phases\": [").is_err());
        assert!(json_syntax_check("{\"counters\": {\"a\"").is_err());
        assert!(json_syntax_check("{\"gauges\": {\"a\":").is_err());
        // A sidecar cut off mid-write must never pass the checker: take a
        // real document and chop it at every byte.
        let mut doc = MetricsDoc::new("trunc");
        doc.phase("p", 100, 1, sample_stalls());
        doc.counter("c", 1);
        let json = doc.to_json();
        // Stop before the closing brace: beyond it only trailing
        // whitespace remains and the document is already complete.
        for cut in 1..=json.rfind('}').unwrap() {
            if json.is_char_boundary(cut) {
                assert!(
                    json_syntax_check(&json[..cut]).is_err(),
                    "truncation at byte {cut} slipped through"
                );
            }
        }
    }

    #[test]
    fn syntax_check_rejects_duplicate_keys() {
        assert!(json_syntax_check(r#"{"a": 1, "a": 2}"#).is_err());
        // Nested duplicate, the shape a double-emitted counter would take.
        assert!(json_syntax_check(r#"{"counters": {"x": 1, "x": 2}}"#).is_err());
        // The same key in sibling objects is legal.
        assert!(json_syntax_check(r#"[{"x": 1}, {"x": 2}]"#).is_ok());
    }

    #[test]
    fn non_finite_gauges_become_zero() {
        let mut doc = MetricsDoc::new("inf");
        doc.gauge("bad", f64::INFINITY);
        let json = doc.to_json();
        json_syntax_check(&json).unwrap();
        assert!(json.contains("\"bad\": 0.0"));
    }

    #[test]
    fn stall_fraction_aggregates_matching_phases() {
        let mut doc = MetricsDoc::new("f");
        doc.phase("pause0.unit_mark", 100, 1, sample_stalls());
        doc.phase("pause1.unit_mark", 100, 1, sample_stalls());
        let f = doc.stall_fraction("unit_mark").unwrap();
        assert!((f - 0.3).abs() < 1e-12);
        assert!(doc.stall_fraction("unit_sweep").is_none());
    }
}
