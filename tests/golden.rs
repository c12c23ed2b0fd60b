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
//! `#[ignore]`d `golden_wall_full` (and, under injected faults,
//! `faulted_large_heaps_match_their_goldens`), too slow for the debug
//! profile; `ci.sh` runs them in release, with the other ignored tests
//! over them:
//!
//! ```text
//! cargo test --release --offline -p tracegc --test golden --test metrics_sidecar \
//!     --test experiments_smoke -- --ignored --skip regenerate_goldens
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use tracegc::experiments::{self, exit_code_for, run_ids, CompletedExperiment, Options};
use tracegc::sim::{with_pacing, FaultConfig, Pacing};

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

/// The affordable experiments with goldens in `tests/golden_faulted/`;
/// the two expensive ones have theirs too.
const FAULTED: [&str; 5] = ["fig19", "fig21", "ablA", "ablB", "ablC"];

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
    let id = done.output.metrics.id.as_str();
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
        let id = done.output.metrics.id.as_str();
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
        let id = &done.output.metrics.id;
        manifest.push_str(&format!("{id}: {}\n", names.join(" ")));
        for (name, bytes) in produced {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    std::fs::write(dir.join("MANIFEST.txt"), manifest).unwrap();
}

/// Fault-injected full collections (trap, software fallback, then the
/// unit's sweep) have goldens of their own in `tests/golden_faulted/`,
/// outside the manifest: the CLI's `--fault-rate 1e-3 --fault-seed 7`
/// at the smoke point. Both pacings must reproduce every file there
/// byte for byte. This test covers the affordable experiments, which
/// degrade 27 collections, and fails on a file no faulted experiment
/// owns; `faulted_large_heaps_match_their_goldens` covers fig18 and
/// ablE. Regenerate after an intentional model change with
///
/// ```text
/// rm -f tests/golden_faulted/*
/// experiments --scale 0.015 --pauses 1 --jobs 1 --fault-rate 1e-3 --fault-seed 7 \
///     --out tests/golden_faulted fig19 fig21 ablA ablB ablC fig18 ablE
/// ```
#[test]
fn faulted_collections_match_their_goldens() {
    for name in faulted_goldens().keys() {
        let owner = artifact_owner(name);
        assert!(
            FAULTED.contains(&owner) || EXPENSIVE.contains(&owner),
            "tests/golden_faulted/{name} belongs to no faulted experiment"
        );
    }
    assert_faulted(&FAULTED);
}

/// fig18 and ablE under the same fault config: every one of their 14
/// collections traps and falls back to the software mark on the two
/// large heaps before the unit sweeps. `ci.sh` runs it in release.
#[test]
#[ignore = "fig18/ablE force their own workload scale (minutes under the debug profile); ci.sh runs it in release"]
fn faulted_large_heaps_match_their_goldens() {
    assert_faulted(&EXPENSIVE);
}

/// The experiment a golden file belongs to: the CLI names it
/// `<id>.csv`, `<id>_<i>.csv` or `<id>.metrics.json`.
fn artifact_owner(name: &str) -> &str {
    let stem = name.split('.').next().unwrap_or(name);
    stem.split_once('_').map_or(stem, |(id, _)| id)
}

/// Every file in `tests/golden_faulted/`, by name.
fn faulted_goldens() -> BTreeMap<String, String> {
    let dir = golden_dir().join("../golden_faulted");
    std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect()
}

/// Runs `ids` under the faulted config with both pacings and compares
/// their artifacts with the goldens those ids own: the same file names
/// and the same bytes, and exit code 2.
fn assert_faulted(ids: &[&str]) {
    let opts = Options {
        fault: Some(FaultConfig::uniform(7, 1e-3)),
        ..golden_opts()
    };
    let mut on_disk = faulted_goldens();
    on_disk.retain(|name, _| ids.contains(&artifact_owner(name)));
    for pacing in [Pacing::FastForward, Pacing::Lockstep] {
        let done = with_pacing(pacing, || run_ids(ids, &opts)).expect("known ids");
        assert_eq!(exit_code_for(&done), 2, "{pacing:?}: these runs degrade");
        let produced: BTreeMap<String, String> = done.iter().flat_map(artifacts).collect();
        let names = |files: &BTreeMap<String, String>| files.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&produced), names(&on_disk), "{pacing:?}");
        for (name, actual) in &produced {
            assert_eq!(
                actual, &on_disk[name],
                "{pacing:?}: {name} drifted from its golden"
            );
        }
    }
}
