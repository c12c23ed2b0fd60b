//! One module per paper table/figure, each returning printable tables.
//!
//! The experiment index lives in DESIGN.md; paper-vs-measured values are
//! recorded in EXPERIMENTS.md. Run everything with
//! `cargo run -p tracegc --release --bin experiments -- all`.

pub mod ablations;
pub mod concurrent;
pub mod faultsweep;
pub mod fig01;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fleet;
pub mod heapscale;
pub mod multiunit;
pub mod overlap;
pub mod table1;

use tracegc_sim::TraceEvent;

use crate::metrics::MetricsDoc;
use crate::table::Table;

/// Options controlling experiment cost.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Scale factor applied to every benchmark spec (1.0 = the full
    /// scaled-down suite of DESIGN.md; 0.1 = quick smoke runs).
    pub scale: f64,
    /// Maximum GC pauses measured per benchmark.
    pub pauses: usize,
    /// Worker threads used to run experiments concurrently (`--jobs`
    /// on the CLI). Each experiment builds its whole simulated context
    /// from seeds, so results are byte-identical for any value; see
    /// [`run_ids`] and DESIGN.md §10.
    pub jobs: usize,
    /// Turns on event-ring tracing in the experiments that support it
    /// (those that run a single instrumented unit); the drained events
    /// land in [`ExperimentOutput::trace`].
    pub trace: bool,
    /// Fault-injection configuration threaded into every unit-only
    /// collection (`None`, the default, runs everything clean). An
    /// inactive config (all rates zero) is equivalent to `None`.
    pub fault: Option<tracegc_sim::FaultConfig>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: 0.25,
            pauses: 3,
            // The process default exec (serial unless an embedder set
            // one with `tracegc_sim::set_default_exec`).
            jobs: tracegc_sim::default_exec().workers(),
            trace: false,
            fault: None,
        }
    }
}

/// The output of one experiment: tables plus free-form notes.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (e.g. `fig15`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Commentary (paper values, caveats).
    pub notes: Vec<String>,
    /// Machine-readable metrics (phases, counters, gauges) written to
    /// the `<id>.metrics.json` sidecar.
    pub metrics: MetricsDoc,
    /// Drained event-ring events (empty unless `Options::trace` and the
    /// experiment supports tracing).
    pub trace: Vec<TraceEvent>,
}

/// Every experiment id, in paper order (scheduler-layer experiments
/// `overlap` and `multiunit` last).
pub const ALL: [&str; 27] = [
    "table1",
    "fig1a",
    "fig1b",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "ablA",
    "ablB",
    "ablC",
    "ablD",
    "ablE",
    "ablF",
    "ablG",
    "ablH",
    "conc",
    "multi",
    "overlap",
    "multiunit",
    "faultsweep",
    "heapscale",
    "fleet",
];

/// Runs one experiment by id. Returns `None` for unknown ids.
///
/// Every returned output carries a metrics doc stamped with the common
/// `scale` / `pauses` gauges on top of whatever the experiment recorded.
pub fn run(id: &str, opts: &Options) -> Option<ExperimentOutput> {
    let mut out = run_inner(id, opts)?;
    out.metrics.gauge("scale", opts.scale);
    out.metrics.gauge("pauses", opts.pauses as f64);
    debug_assert_eq!(out.metrics.id, out.id, "metrics doc id must match");
    Some(out)
}

fn run_inner(id: &str, opts: &Options) -> Option<ExperimentOutput> {
    Some(match id {
        "table1" => table1::run(opts),
        "fig1a" => fig01::run_1a(opts),
        "fig1b" => fig01::run_1b(opts),
        "fig15" => fig15::run(opts),
        "fig16" => fig16::run(opts),
        "fig17" => fig17::run(opts),
        "fig18" => fig18::run(opts),
        "fig19" => fig19::run(opts),
        "fig20" => fig20::run(opts),
        "fig21" => fig21::run(opts),
        "fig22" => fig22::run(opts),
        "fig23" => fig23::run(opts),
        "ablA" => ablations::run_memsched(opts),
        "ablB" => ablations::run_layout(opts),
        "ablC" => ablations::run_tlb(opts),
        "ablD" => ablations::run_barriers(opts),
        "ablE" => ablations::run_superpages(opts),
        "ablF" => ablations::run_throttle(opts),
        "ablG" => ablations::run_ooo(opts),
        "ablH" => ablations::run_refload(opts),
        "conc" => concurrent::run(opts),
        "multi" => concurrent::run_multi(opts),
        "overlap" => overlap::run(opts),
        "multiunit" => multiunit::run(opts),
        "faultsweep" => faultsweep::run(opts),
        "heapscale" => heapscale::run(opts),
        "fleet" => fleet::run(opts),
        _ => return None,
    })
}

/// One finished experiment plus how long it took on the wall clock.
#[derive(Debug, Clone)]
pub struct CompletedExperiment {
    /// The experiment's tables and notes.
    pub output: ExperimentOutput,
    /// Wall-clock time this experiment took (inside the pool, so
    /// concurrent experiments overlap).
    pub wall: std::time::Duration,
}

/// Runs a batch of experiments on `opts.jobs` workers, returning the
/// outputs in the order the ids were given.
///
/// This is the library entry point behind the CLI's `--jobs` flag and
/// the harness's only level of parallelism: experiments never share
/// simulated state, so they are the partitions of one
/// [`tracegc_sim::run_partitions`] superstep, and the outputs come back
/// in id order whatever the worker count. A panic in one experiment
/// stops the batch before any further experiment starts. The
/// determinism tests call this directly to assert that `jobs = 1` and
/// `jobs = 8` produce identical tables and sidecars. Unknown ids are
/// rejected up front (before anything runs) with an error naming the
/// offender.
pub fn run_ids(ids: &[&str], opts: &Options) -> Result<Vec<CompletedExperiment>, String> {
    if let Some(bad) = ids.iter().find(|id| !ALL.contains(id)) {
        return Err(format!("unknown experiment '{bad}'"));
    }
    let exec = tracegc_sim::Exec::from_workers(opts.jobs);
    Ok(tracegc_sim::run_partitions(exec, ids.to_vec(), |_, id| {
        let started = std::time::Instant::now();
        let output = run(id, opts).expect("ids were validated against ALL");
        CompletedExperiment {
            output,
            wall: started.elapsed(),
        }
    }))
}

/// Folds one unit run's fault outcome into an experiment's metrics doc:
/// nonzero injector counters plus a `fallback_runs` tick when the mark
/// degraded to software. Clean runs contribute nothing, keeping the
/// faults section empty (and sidecars byte-identical to fault-free
/// runs).
pub(crate) fn note_unit_faults(
    metrics: &mut MetricsDoc,
    stats: &tracegc_sim::FaultStats,
    fell_back: bool,
) {
    metrics.note_faults(stats);
    if fell_back {
        metrics.fault("fallback_runs", 1);
    }
}

/// Maps a finished batch to the CLI's exit code: `0` when every run was
/// clean, `2` when at least one collection degraded to the software
/// fallback (results are still correct), `3` when any run failed
/// outright. The codes are part of the CLI contract (see
/// EXPERIMENTS.md) so CI can distinguish "degraded as designed" from
/// "broken".
pub fn exit_code_for(completed: &[CompletedExperiment]) -> u8 {
    let sum = |key: &str| {
        completed
            .iter()
            .filter_map(|c| c.output.metrics.fault_value(key))
            .sum::<u64>()
    };
    if sum("failed_runs") > 0 {
        3
    } else if sum("fallback_runs") > 0 {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99", &Options::default()).is_none());
    }

    #[test]
    fn exit_codes_rank_failure_over_fallback_over_clean() {
        let mk = |faults: &[(&str, u64)]| {
            let mut metrics = MetricsDoc::new("x");
            for (k, v) in faults {
                metrics.fault(k, *v);
            }
            CompletedExperiment {
                output: ExperimentOutput {
                    id: "x",
                    title: "x",
                    tables: Vec::new(),
                    notes: Vec::new(),
                    metrics,
                    trace: Vec::new(),
                },
                wall: std::time::Duration::ZERO,
            }
        };
        assert_eq!(exit_code_for(&[]), 0);
        assert_eq!(exit_code_for(&[mk(&[])]), 0);
        assert_eq!(exit_code_for(&[mk(&[("retries", 4)])]), 0);
        assert_eq!(exit_code_for(&[mk(&[("fallback_runs", 1)])]), 2);
        assert_eq!(
            exit_code_for(&[mk(&[("fallback_runs", 2)]), mk(&[("failed_runs", 1)])]),
            3
        );
    }

    #[test]
    fn all_ids_are_known() {
        // Cheap structural check: the registry accepts every listed id.
        // (Execution of each experiment is covered by integration tests.)
        for id in ALL {
            // table1 and fig22 are cheap enough to actually run here.
            if id == "table1" || id == "fig22" {
                let out = run(id, &Options::default()).unwrap();
                assert!(!out.tables.is_empty());
            }
        }
    }
}
