//! The fleet experiment's determinism wall: tables and the metrics
//! sidecar must be byte-identical under both scheduler pacings, with
//! and without active fault injection — the in-process counterpart of
//! ci.sh's cross-process `cmp` gate. (One experiment id never fans out
//! under `--jobs`; `tests/determinism.rs` pins that axis.)

use tracegc::experiments::{exit_code_for, run_ids, CompletedExperiment, Options};
use tracegc::sim::{with_pacing, FaultConfig, Pacing};

/// Runs the fleet experiment under `pacing`.
fn run_fleet(opts: &Options, pacing: Pacing) -> Vec<CompletedExperiment> {
    with_pacing(pacing, || run_ids(&["fleet"], opts)).expect("fleet is registered")
}

/// Flattens every byte the CLI would write for a fleet run: all table
/// CSVs plus the metrics sidecar JSON.
fn fleet_bytes(done: &[CompletedExperiment]) -> String {
    let out = &done[0].output;
    let mut bytes = String::new();
    for t in &out.tables {
        bytes.push_str(&t.to_csv());
        bytes.push('\n');
    }
    bytes.push_str(&out.metrics.to_json());
    bytes
}

fn smoke_opts(fault: Option<FaultConfig>) -> Options {
    Options {
        scale: 0.015,
        pauses: 1,
        fault,
        ..Options::default()
    }
}

/// Every rate class active, like the CLI's `--fault-rate`.
fn active_fault(rate: f64) -> FaultConfig {
    FaultConfig {
        seed: 0x5EED,
        bit_flip_rate: rate,
        drop_rate: rate,
        delay_rate: rate,
        corrupt_ref_rate: rate,
        corrupt_header_rate: rate,
        pte_fault_rate: rate,
        ..FaultConfig::zero_rates(0x5EED)
    }
}

#[test]
fn fleet_is_byte_identical_across_pacings() {
    let opts = smoke_opts(None);
    assert_eq!(
        fleet_bytes(&run_fleet(&opts, Pacing::FastForward)),
        fleet_bytes(&run_fleet(&opts, Pacing::Lockstep)),
        "fleet output differs between pacings"
    );
}

#[test]
fn faulted_fleet_degrades_gracefully_and_stays_deterministic() {
    // A fault rate known to degrade at least one tenant at smoke scale:
    // every degraded tenant's mark is differentially checked against
    // the reachability oracle inside the runner (a mismatch becomes a
    // failed run), so `fallback_runs` without `failed_runs` *is* the
    // graceful-degradation property. The exit-code contract follows.
    let opts = smoke_opts(Some(active_fault(1e-3)));
    let done = run_fleet(&opts, Pacing::FastForward);
    let metrics = &done[0].output.metrics;
    assert!(
        metrics.fault_value("fallback_runs").unwrap_or(0) > 0,
        "this rate/seed must degrade at least one tenant"
    );
    assert_eq!(
        metrics.fault_value("failed_runs"),
        None,
        "degraded tenants must still pass the reachability oracle"
    );
    assert_eq!(exit_code_for(&done), 2, "degraded-but-correct exits 2");

    // And the faulted run is just as pacing-invariant as the clean one:
    // traps, retries and fallbacks land on the same cycles.
    assert_eq!(
        fleet_bytes(&done),
        fleet_bytes(&run_fleet(&opts, Pacing::Lockstep)),
        "faulted fleet output differs between pacings"
    );
}
