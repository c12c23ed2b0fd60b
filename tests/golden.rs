//! Registry-wide golden-fingerprint wall: every experiment in the
//! registry has checked-in golden artifacts (CSV tables **and** the
//! metrics sidecar) under `tests/golden/`, enumerated by
//! `tests/golden/MANIFEST.txt`, and each must match byte for byte at
//! smoke scale.
//!
//! The manifest is what makes coverage a closed set: an experiment
//! added to the registry without goldens fails
//! `manifest_covers_entire_registry` (not just "no test existed"), a
//! golden file deleted or orphaned fails the same test, and any model
//! drift shows up as a readable CSV or JSON diff.
//!
//! Regenerate after an intentional model change with
//!
//! ```text
//! cargo test --release -p tracegc --test golden regenerate_goldens -- --ignored
//! ```
//!
//! which reruns every experiment (including the two that force their
//! own workload scale, ~13 s of it in release) and rewrites the
//! artifacts plus the manifest. Commit the result alongside the model
//! change.
//!
//! Those two, fig18 and ablE, are the only golden experiments that put
//! a large heap through the DDR3 model. Their byte comparison is the
//! `#[ignore]`d `golden_wall_full`, too slow for the debug profile;
//! `ci.sh` runs it in release, with the other ignored tests over them:
//!
//! ```text
//! cargo test --release --offline -p tracegc --test golden --test metrics_sidecar \
//!     --test experiments_smoke -- --ignored --skip regenerate_goldens
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use tracegc::experiments::{self, run_ids, CompletedExperiment, Options};

/// The smoke fingerprint point: tiny but large enough that every
/// experiment exercises its full pipeline.
fn golden_opts() -> Options {
    Options {
        scale: 0.015,
        pauses: 1,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ..Options::default()
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The two experiments that force their own workload scale internally
/// and therefore cost minutes under the debug profile; their goldens
/// are still mandatory (the manifest check covers them) but their
/// byte-comparison runs in the `#[ignore]`d full-wall test, which
/// `ci.sh` runs in release.
const EXPENSIVE: [&str; 2] = ["fig18", "ablE"];

fn smoke_ids() -> Vec<&'static str> {
    experiments::ALL
        .iter()
        .copied()
        .filter(|id| !EXPENSIVE.contains(id))
        .collect()
}

/// The golden artifacts of one completed experiment: `(file name,
/// expected bytes)` — the CSV naming scheme the CLI uses for `--out`,
/// plus the metrics sidecar.
fn artifacts(done: &CompletedExperiment) -> Vec<(String, String)> {
    let id = done.output.id;
    let mut files = Vec::new();
    let n = done.output.tables.len();
    for (i, table) in done.output.tables.iter().enumerate() {
        let name = if n == 1 {
            format!("{id}.csv")
        } else {
            format!("{id}_{i}.csv")
        };
        files.push((name, table.to_csv()));
    }
    files.push((format!("{id}.metrics.json"), done.output.metrics.to_json()));
    files
}

/// Parses `MANIFEST.txt` into `id -> artifact file names`.
fn read_manifest() -> BTreeMap<String, Vec<String>> {
    let path = golden_dir().join("MANIFEST.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden manifest {}: {e}", path.display()));
    let mut manifest = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, files) = line
            .split_once(':')
            .unwrap_or_else(|| panic!("malformed manifest line '{line}'"));
        let files: Vec<String> = files.split_whitespace().map(str::to_string).collect();
        assert!(!files.is_empty(), "manifest entry '{id}' lists no files");
        let prev = manifest.insert(id.trim().to_string(), files);
        assert!(prev.is_none(), "duplicate manifest entry '{id}'");
    }
    manifest
}

fn assert_wall(ids: &[&str]) {
    let manifest = read_manifest();
    let completed = run_ids(ids, &golden_opts()).expect("known ids");
    for done in &completed {
        let id = done.output.id;
        let produced = artifacts(done);
        let names: Vec<String> = produced.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(
            manifest.get(id),
            Some(&names),
            "{id}: manifest entry out of date; regenerate tests/golden \
             (see this file's header)"
        );
        for (name, actual) in produced {
            let path = golden_dir().join(&name);
            let expected = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
            assert_eq!(
                actual, expected,
                "{name} drifted from its golden copy; if the model change is \
                 intentional, regenerate tests/golden (see this file's header)"
            );
        }
    }
}

/// Coverage is a closed set: every registry experiment has a manifest
/// entry, every listed golden exists and is non-empty, and nothing in
/// `tests/golden/` is unaccounted for. Costs no simulation, so adding
/// an experiment without goldens fails even the fastest test tier.
#[test]
fn manifest_covers_entire_registry() {
    let manifest = read_manifest();
    for id in experiments::ALL {
        assert!(
            manifest.contains_key(id),
            "experiment '{id}' has no golden manifest entry; regenerate \
             tests/golden (see this file's header)"
        );
    }
    for id in manifest.keys() {
        assert!(
            experiments::ALL.contains(&id.as_str()),
            "manifest entry '{id}' is not a registry experiment"
        );
    }
    let mut listed: Vec<&String> = manifest.values().flatten().collect();
    listed.sort();
    listed.windows(2).for_each(|w| {
        assert_ne!(w[0], w[1], "golden file {} listed twice", w[0]);
    });
    for name in &listed {
        let path = golden_dir().join(name);
        let meta = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert!(meta.len() > 0, "golden {name} is empty");
    }
    // No orphans: everything on disk is reachable from the manifest.
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let file_name = entry.unwrap().file_name().into_string().unwrap();
        if file_name == "MANIFEST.txt" {
            continue;
        }
        assert!(
            listed.iter().any(|n| **n == file_name),
            "tests/golden/{file_name} is not listed in MANIFEST.txt"
        );
    }
}

/// Byte-compares every affordable experiment (the registry minus the
/// two scale-forcing ones) against its goldens.
#[test]
fn golden_wall_smoke() {
    assert_wall(&smoke_ids());
}

/// The expensive rest of the wall; `ci.sh` runs it in release (see
/// the module docs).
#[test]
#[ignore = "fig18/ablE force their own workload scale (minutes under the debug profile); ci.sh runs it in release"]
fn golden_wall_full() {
    assert_wall(&EXPENSIVE);
}

/// Regenerates every golden artifact and the manifest. `#[ignore]`d:
/// run explicitly (release profile strongly recommended) after an
/// intentional model change, then review the diff and commit.
#[test]
#[ignore = "writes tests/golden/; run explicitly to regenerate"]
fn regenerate_goldens() {
    let ids: Vec<&str> = experiments::ALL.to_vec();
    let completed = run_ids(&ids, &golden_opts()).expect("known ids");
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = String::from(
        "# Golden artifacts per registry experiment, written by the\n\
         # regenerate_goldens test (see tests/golden.rs). Do not edit by hand.\n",
    );
    for done in &completed {
        let produced = artifacts(done);
        let names: Vec<String> = produced.iter().map(|(n, _)| n.clone()).collect();
        manifest.push_str(&format!("{}: {}\n", done.output.id, names.join(" ")));
        for (name, bytes) in produced {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    std::fs::write(dir.join("MANIFEST.txt"), manifest).unwrap();
}
