//! The calibration harness itself is under test: the shrunken-config
//! smoke run over the committed golden artifacts must pass, the report
//! must be byte-deterministic, order-independent in its verdicts, and
//! the CLI exit-code contract must hold.
//!
//! `tests/golden/` doubles as the input corpus here: it holds every
//! figure's CSVs and sidecars at smoke scale (0.015), so the
//! scale-robust trend checks are exercised in every `cargo test -q`
//! while the absolute bands correctly report `skipped` (they are
//! calibrated at scale 0.25 — the committed `results/`, which ci.sh
//! gates on with the same binary).

use std::path::{Path, PathBuf};

use tracegc::calib::{self, Status, CALIBRATED_SCALE, FIGURES};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A scratch copy of the calibration inputs, so tests that write
/// `calibration.json` never dirty `tests/golden/` (the golden manifest
/// test treats unlisted files as failures).
fn scratch_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracegc-calib-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// The smoke gate: every scale-robust trend assertion holds on the
/// golden corpus, every absolute band is skipped (not failed) because
/// the corpus is not at the calibrated scale, and nothing fails.
#[test]
fn calibration_smoke_passes_on_golden_corpus() {
    let report = calib::evaluate_all(&golden_dir()).expect("known figures");
    let failed: Vec<_> = report
        .checks
        .iter()
        .filter(|c| c.status == Status::Fail)
        .collect();
    assert!(failed.is_empty(), "failed checks: {failed:#?}");
    assert!(report.passed());
    let (passed, _, skipped) = report.tally();
    assert!(
        passed >= 10,
        "suspiciously few passing trend checks ({passed}); are the goldens present?"
    );
    // The corpus is at smoke scale, so at least the pure band checks
    // must be skipped rather than silently evaluated off-calibration.
    assert!(
        skipped >= 5,
        "band checks should skip at smoke scale, got {skipped} skips"
    );
    for c in &report.checks {
        if c.status == Status::Skipped {
            let reason = c.reason.as_deref().unwrap_or("");
            assert!(
                reason.contains(&CALIBRATED_SCALE.to_string())
                    || reason.contains("no spill traffic"),
                "{}: unexpected skip reason '{reason}'",
                c.id
            );
        }
    }
}

/// Verdicts are order-independent: whatever order (or duplication) the
/// figures are requested in, the report lists its checks in canonical
/// order and renders byte-identical JSON.
#[test]
fn report_is_order_independent() {
    let dir = golden_dir();
    let canonical = calib::evaluate(&dir, FIGURES).unwrap().to_json();
    let mut figs: Vec<&str> = FIGURES.to_vec();
    // Deterministic shuffles: reversal plus every rotation, and a
    // duplicated-id request. Between them every pairwise order
    // inversion is exercised.
    figs.reverse();
    assert_eq!(calib::evaluate(&dir, &figs).unwrap().to_json(), canonical);
    for rot in 1..FIGURES.len() {
        let mut rotated: Vec<&str> = FIGURES.to_vec();
        rotated.rotate_left(rot);
        assert_eq!(
            calib::evaluate(&dir, &rotated).unwrap().to_json(),
            canonical,
            "rotation {rot} changed the report bytes"
        );
    }
    let duplicated: Vec<&str> = FIGURES
        .iter()
        .chain(FIGURES.iter().rev())
        .copied()
        .collect();
    assert_eq!(
        calib::evaluate(&dir, &duplicated).unwrap().to_json(),
        canonical
    );
    // A subset request still reports in canonical order.
    let subset = calib::evaluate(&dir, &["fig20", "table1", "fig15"]).unwrap();
    assert_eq!(subset.figures, vec!["table1", "fig15", "fig20"]);
}

/// Two evaluations of the same inputs write byte-identical
/// `calibration.json`, and the written file round-trips the in-memory
/// rendering exactly.
#[test]
fn calibration_json_is_deterministic() {
    let dir = scratch_copy("det");
    let a = calib::evaluate_all(&dir).unwrap();
    let path = calib::write_calibration(&dir, &a).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, a.to_json());
    let b = calib::evaluate_all(&dir).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    // The report is strict JSON by its own parser's standards.
    tracegc::json::parse(&on_disk).expect("calibration.json must be strict JSON");
    assert!(on_disk.contains("\"schema\": \"tracegc-calib-v1\""));
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown figures are rejected up front, before any evaluation.
#[test]
fn unknown_figures_are_rejected() {
    let err = calib::evaluate(&golden_dir(), &["fig15", "fig99"]).unwrap_err();
    assert!(err.contains("fig99"), "unhelpful error: {err}");
}

/// An empty input directory fails every check — missing inputs are
/// violations, never silent passes.
#[test]
fn missing_inputs_fail() {
    let dir = std::env::temp_dir().join(format!("tracegc-calib-empty-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let report = calib::evaluate_all(&dir).unwrap();
    assert!(!report.passed());
    let (passed, failed, _) = report.tally();
    assert_eq!(passed, 0);
    assert!(failed > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI contract end to end: `experiments --calibrate` exits 0 on a
/// conforming corpus (writing the report), 4 on violations, 1 on usage
/// errors; and the written report is byte-identical across invocations.
/// An experiment run exits 1 on out-of-range `--scale`/`--pauses` and
/// when an output file cannot be written.
#[test]
fn cli_exit_code_contract() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let run = |dir: &Path, extra: &[&str]| {
        std::process::Command::new(exe)
            .arg("--calibrate")
            .arg("--out")
            .arg(dir)
            .args(extra)
            .output()
            .expect("spawn experiments")
    };

    // Conforming corpus: exit 0, report written.
    let good = scratch_copy("cli");
    let out = run(&good, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = std::fs::read_to_string(good.join("calibration.json")).unwrap();
    let out = run(&good, &[]);
    assert_eq!(out.status.code(), Some(0));
    let second = std::fs::read_to_string(good.join("calibration.json")).unwrap();
    assert_eq!(first, second, "calibration.json differs across invocations");

    // Violations (empty corpus): exit 4, and the report still lands so
    // CI artifacts show what failed.
    let empty = std::env::temp_dir().join(format!("tracegc-calib-cli4-{}", std::process::id()));
    std::fs::remove_dir_all(&empty).ok();
    std::fs::create_dir_all(&empty).unwrap();
    let out = run(&empty, &[]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(empty.join("calibration.json").is_file());

    // Usage error: unknown figure, exit 1, no report.
    let out = run(&empty, &["fig99"]);
    assert_eq!(out.status.code(), Some(1));

    // Experiment input that would panic, abort or run on a clamped
    // heap: exit 1 with the usage text before anything runs.
    let experiments = |args: &[&str]| {
        std::process::Command::new(exe)
            .args(args)
            .output()
            .expect("spawn experiments")
    };
    let out_arg = empty.to_str().unwrap();
    for bad in [
        &["--pauses", "0"][..],
        &["--scale", "inf"],
        &["--scale", "1e300"],
        &["--scale", "1e12"],
        &["--scale", "nan"],
        &["--scale", "-1"],
        &["--scale", "0"],
        &["--scale", "1.5"],
    ] {
        let out = experiments(&[bad, &["--out", out_arg, "fig15"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
    }

    // An output path under a regular file: the tables still print, but
    // a CSV, sidecar or trace that cannot be written exits 1.
    let file = empty.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let under_file = file.join("out");
    let quick = ["--scale", "0.015", "--pauses", "1"];
    let out = experiments(
        &[
            &quick[..],
            &["--out", under_file.to_str().unwrap(), "table1"],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!under_file.exists());
    let trace = file.join("trace.json");
    let out = experiments(
        &[
            &quick[..],
            &[
                "--out",
                out_arg,
                "--trace",
                trace.to_str().unwrap(),
                "table1",
            ],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(empty.join("table1.metrics.json").is_file());

    std::fs::remove_dir_all(&good).ok();
    std::fs::remove_dir_all(&empty).ok();
}
