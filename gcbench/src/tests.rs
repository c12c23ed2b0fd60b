//! The benchmark's own tests: metric-name grammar, the `BENCHMARK.json`
//! schema, argument parsing, and a tiny-scale run of every workload.

use std::collections::BTreeSet;

use tracegc::json::{parse, Json};

use super::*;

/// Whether `name` is a valid metric name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn keys(j: &Json) -> Vec<&str> {
    j.members()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn strs<'a>(j: &'a Json, key: &str) -> Vec<&'a str> {
    j.get(key)
        .and_then(Json::elements)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|e| e.as_str().expect("a string"))
        .collect()
}

#[test]
fn metric_name_grammar() {
    for name in ["wall_s", "hwgc.markq.ns_per_op", "0x", "a-b.c_d"] {
        assert!(valid_metric_name(name), "{name}");
    }
    let long = "a".repeat(65);
    for name in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
        assert!(!valid_metric_name(name), "{name}");
    }
    assert!(valid_metric_name(&"a".repeat(64)));
    for unit in ["s", "cycles/s", "GB/s", "%", "count"] {
        assert!(valid_unit(unit), "{unit}");
    }
    for unit in ["", "a b", "seventeen-letters"] {
        assert!(!valid_unit(unit), "{unit}");
    }
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
        assert!(seen.insert(*name), "{name} defined twice");
    }
}

#[test]
fn benchmark_json_matches_the_benchmark() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = strs(&b, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    let paths = strs(&b, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in &paths {
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
    }
    for arg in &command {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(paths.iter().any(|p| arg.starts_with(&format!("{p}/"))));
        }
    }

    let secs = b
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let workloads = b
        .get("workloads")
        .and_then(Json::elements)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);

    let e2e = b
        .get("end_to_end")
        .and_then(Json::elements)
        .expect("end_to_end");
    let mut bounds = Vec::new();
    for (m, (name, unit)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        let better = m.get("better").and_then(Json::as_str).expect("better");
        assert!(better == "lower" || better == "higher");
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        bounds.push((name, bound));
    }
    assert_eq!(e2e.len(), END_TO_END.len());
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s")
        .1;
    assert!(
        bounds.iter().all(|(_, b)| *b <= setup),
        "setup_s has the largest bound"
    );

    let layers = b
        .get("per_layer")
        .and_then(Json::elements)
        .expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
    }
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = args("--workload shared-ddr3 --seed 7 --seconds 3 --trace 1").expect("valid");
    assert_eq!(a.workload, Workload::SharedDdr3);
    assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    for bad in [
        "",
        "--workload nope",
        "--workload fault-fleet --trace 2",
        "--workload fault-fleet --seed -1",
        "--workload fault-fleet --bogus 1",
        "--workload",
    ] {
        assert!(args(bad).is_err(), "{bad}");
    }
}

#[test]
fn result_line_is_json_with_the_contract_keys() {
    let m = BTreeMap::from([("wall_s".to_string(), 1.25), ("setup_s".to_string(), 0.5)]);
    let j = parse(&result_json(true, 10, 0, &m)).expect("valid JSON");
    assert_eq!(keys(&j), ["correct", "attempted", "failed", "metrics"]);
    let wall = j
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
    assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
}

#[test]
fn children_merge_by_median_and_absent_layers_read_zero() {
    let child = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    };
    let merged = merge(
        true,
        vec![
            child(&[("wall_s", 3.0), ("mark_err.heldout", 0.2)]),
            child(&[("wall_s", 1.0)]),
            child(&[("wall_s", 2.0)]),
        ],
    );
    assert_eq!(merged["wall_s"], 2.0);
    assert_eq!(merged["mark_err.heldout"], 0.2);
    assert_eq!(merged["sim.fleet_s"], 0.0);
    assert!(PER_LAYER.iter().all(|(n, _)| merged.contains_key(*n)));
    assert!(!merge(false, vec![child(&[("wall_s", 1.0)])]).contains_key("sim.fleet_s"));

    // Lap 0 is fastest in child 1, lap 1 in child 0.
    let untraced = merge(
        false,
        vec![
            child(&[
                ("lap.0", 2.0),
                ("lap.1", 1.0),
                ("sim_cycles", 6.0),
                ("setup_s", 1.0),
            ]),
            child(&[
                ("lap.0", 1.0),
                ("lap.1", 3.0),
                ("sim_cycles", 6.0),
                ("setup_s", 3.0),
            ]),
            child(&[
                ("lap.0", 4.0),
                ("lap.1", 2.0),
                ("sim_cycles", 6.0),
                ("setup_s", 2.0),
            ]),
        ],
    );
    let names: Vec<&str> = untraced.keys().map(String::as_str).collect();
    assert_eq!(names, ["cpu_s", "setup_s", "sim_cycles_per_s"]);
    assert_eq!(untraced["cpu_s"], 2.0);
    assert_eq!(untraced["sim_cycles_per_s"], 3.0);
    assert_eq!(untraced["setup_s"], 2.0);
}

/// Layers whose spans each workload must record.
fn layers_run_by(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::PausePair => &["workloads", "heap", "cpu", "hwgc", "mem"],
        Workload::StreamHeap => &["workloads", "hwgc", "mem"],
        Workload::SharedDdr3 => &["workloads", "heap", "hwgc", "mem", "sim"],
        Workload::FaultFleet => &["workloads", "heap", "cpu", "hwgc", "mem", "sim"],
    }
}

#[test]
fn every_workload_runs_checks_and_matches_the_runner_at_tiny_scale() {
    let scale = 0.1;
    let per_layer: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    for w in Workload::ALL {
        let mut t = Tracer::new(true);
        let r = w
            .run(3, scale, &mut t)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(r.stats.collections > 0 && r.stats.sim_cycles > 0);
        assert_eq!(r.stats.failed, 0, "{}", w.name());
        assert_eq!(r.first, w.reference_first(3, scale), "{}", w.name());

        let again = w
            .run(3, scale, &mut Tracer::new(false))
            .expect("second repeat");
        assert_eq!(r.stats.digest(), again.stats.digest(), "{}", w.name());
        assert!(r.timed.laps.len() > 1, "{}", w.name());
        assert_eq!(r.timed.laps.len(), again.timed.laps.len(), "{}", w.name());

        for (name, v) in r.stats.metrics() {
            assert!(per_layer.contains(name), "{name} is not a per-layer metric");
            assert!(v.is_finite(), "{name}");
        }
        let layers: BTreeSet<&str> = t.spans().iter().map(|s| s.layer()).collect();
        for l in layers_run_by(w) {
            assert!(layers.contains(l), "{}: no {l} span", w.name());
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let a = Workload::SharedDdr3
        .run(1, 0.1, &mut Tracer::new(false))
        .expect("seed 1");
    let b = Workload::SharedDdr3
        .run(2, 0.1, &mut Tracer::new(false))
        .expect("seed 2");
    assert_ne!(a.stats.digest(), b.stats.digest());
}
