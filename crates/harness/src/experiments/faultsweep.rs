//! `faultsweep`: mark-time overhead and degradation behaviour under
//! injected faults.
//!
//! Not a paper figure — a robustness experiment for this reproduction.
//! One mark pass per (fault rate, repeat) grid point, all fault classes
//! driven by a single per-access rate knob. Reports how often the unit
//! absorbed the faults (retries + ECC), how often it trapped into the
//! software-fallback mark, and what each outcome cost relative to the
//! clean baseline. Every non-failed run is differentially checked
//! inside [`run_faulted_mark`]: the final mark set must equal the
//! reachable set regardless of which path produced it.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_sim::{FaultConfig, StallAccounting};
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_faulted_mark, MarkOutcome, MemKind};
use crate::table::Table;

/// Per-access fault rates swept, one column per rate. Rate 0 is the
/// clean baseline the overhead column is computed against.
pub const RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];

/// The fault configuration for one grid point: every fault class driven
/// by the same `rate`, seeded from the grid index so the sweep is
/// byte-identical under any `--jobs` value (worker order never touches
/// the seed).
fn fault_config(rate: f64, grid_index: usize) -> FaultConfig {
    FaultConfig {
        seed: 0x5EED_0000 + grid_index as u64,
        bit_flip_rate: rate,
        drop_rate: rate,
        delay_rate: rate,
        corrupt_ref_rate: rate,
        corrupt_header_rate: rate,
        pte_fault_rate: rate,
        ..FaultConfig::default()
    }
}

/// Fault-rate sweep on avrora.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("avrora").expect("avrora exists").scaled(opts.scale);
    let repeats = opts.pauses.max(1);

    // The full (rate, repeat) grid, flattened so the seed and the
    // output order both derive from the grid index alone.
    let grid: Vec<(usize, usize)> = (0..RATES.len())
        .flat_map(|ri| (0..repeats).map(move |rep| (ri, rep)))
        .collect();

    let runs: Vec<_> = grid
        .iter()
        .copied()
        .map(|(ri, rep)| {
            let rate = RATES[ri];
            run_faulted_mark(
                &spec,
                LayoutKind::Bidirectional,
                GcUnitConfig::default(),
                MemKind::ddr3_default(),
                fault_config(rate, ri * repeats + rep),
            )
        })
        .collect();

    // Clean baseline: mean total mark cycles at rate 0 (all its runs
    // are identical — zero rates inject nothing).
    let baseline: f64 = {
        let zero: Vec<&_> = grid
            .iter()
            .zip(&runs)
            .filter(|((ri, _), _)| *ri == 0)
            .map(|(_, r)| r)
            .collect();
        zero.iter().map(|r| r.total_cycles() as f64).sum::<f64>() / zero.len().max(1) as f64
    };

    let mut table = Table::new(
        "faultsweep: mark outcome and overhead vs per-access fault rate (avrora)",
        &[
            "rate",
            "run",
            "outcome",
            "unit-cycles",
            "fallback-cycles",
            "overhead",
            "retries",
            "faults",
        ],
    );
    let mut metrics = MetricsDoc::new("faultsweep");
    let (mut clean, mut fell_back, mut failed) = (0u64, 0u64, 0u64);
    for ((ri, rep), r) in grid.iter().zip(&runs) {
        let outcome = match &r.outcome {
            MarkOutcome::Clean => {
                clean += 1;
                "clean".to_string()
            }
            MarkOutcome::Fallback(fb) => {
                fell_back += 1;
                format!("fallback:{:?}", fb.trap.kind)
            }
            MarkOutcome::Failed(e) => {
                failed += 1;
                format!("failed:{e}")
            }
        };
        table.row(vec![
            format!("{:e}", RATES[*ri]),
            format!("{rep}"),
            outcome,
            format!("{}", r.unit_cycles),
            format!("{}", r.fallback_cycles),
            format!("{:.2}x", r.total_cycles() as f64 / baseline.max(1.0)),
            format!("{}", r.stats.retries),
            format!("{}", r.stats.total()),
        ]);
        metrics.note_faults(&r.stats);
    }
    // One attributed phase per execution path, aggregated over the whole
    // grid: the ledgers sum to exactly the cycles each path consumed, so
    // the busy+stalls == cycles invariant holds by construction.
    let (mut unit_stalls, mut fb_stalls) = (StallAccounting::default(), StallAccounting::default());
    for r in &runs {
        unit_stalls.merge(&r.unit_stalls);
        fb_stalls.merge(&r.fallback_stalls);
    }
    metrics.phase("unit_mark", unit_stalls.total(), 1, unit_stalls);
    if fb_stalls.total() > 0 {
        metrics.phase("sw_fallback", fb_stalls.total(), 1, fb_stalls);
    }
    // Run-outcome counters drive the CLI exit code (see
    // `exit_code_for`); only nonzero ones are emitted so clean sweeps
    // keep an empty faults section.
    for (name, v) in [
        ("clean_runs", clean),
        ("fallback_runs", fell_back),
        ("failed_runs", failed),
    ] {
        if v > 0 {
            metrics.fault(name, v);
        }
    }
    metrics.counter("grid_points", grid.len() as u64);

    ExperimentOutput {
        id: "faultsweep",
        title: "Fault sweep: graceful degradation under injected faults",
        tables: vec![table],
        metrics,
        trace: Vec::new(),
        notes: vec![
            format!(
                "{} grid points: {clean} clean, {fell_back} fell back to the \
                 software mark, {failed} failed.",
                grid.len()
            ),
            "Every completed run's mark set was differentially checked against \
             reachability; overhead is relative to the rate-0 baseline."
                .into(),
        ],
    }
}
