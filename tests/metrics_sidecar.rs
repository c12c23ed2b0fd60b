//! Every experiment's metrics sidecar is well-formed, satisfies the
//! stall-attribution invariant (busy + stalls == cycles x lanes for
//! every phase), and is byte-identical across `--jobs` values.

use tracegc::experiments::{run, run_ids, Options, ALL};
use tracegc::metrics::{json_syntax_check, write_sidecar, SCHEMA};

fn smoke_opts() -> Options {
    Options {
        scale: 0.015,
        pauses: 1,
        ..Options::default()
    }
}

/// The registry minus fig18/ablE, which force large workload scales
/// (they get the same checks from the ignored test below).
fn smoke_ids() -> Vec<&'static str> {
    ALL.iter()
        .copied()
        .filter(|&id| id != "fig18" && id != "ablE")
        .collect()
}

#[test]
fn every_sidecar_is_valid_and_attributed() {
    for id in smoke_ids() {
        let out = run(id, &smoke_opts()).unwrap_or_else(|| panic!("unknown id {id}"));
        let doc = &out.metrics;
        assert_eq!(doc.id, id, "metrics doc id mismatch");
        doc.check_invariants()
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let json = doc.to_json();
        json_syntax_check(&json).unwrap_or_else(|e| panic!("{id}: malformed JSON: {e}"));
        assert!(json.contains(SCHEMA), "{id}: missing schema tag");
        // Every simulated experiment carries at least one attributed
        // phase — including the scheduler-composed runs (conc, multi,
        // overlap, multiunit), whose ledgers the scheduler charges
        // cycle-for-cycle; only the model/config-only experiments
        // (table1/fig22/ablD/ablH) are gauge/counter-only by design.
        if !matches!(id, "table1" | "fig22" | "ablD" | "ablH") {
            assert!(!doc.phases.is_empty(), "{id}: no phases recorded");
            let stalled: u64 = doc.phases.iter().map(|p| p.stalls.total_stalled()).sum();
            assert!(stalled > 0, "{id}: no stall cycles attributed anywhere");
        }
    }
}

/// Every registry experiment's CSVs and metrics sidecar are
/// byte-identical for `--jobs` 1 and 4. The name predates the removal
/// of the in-engine `--par-engines` level; `--jobs` is now the only
/// parallelism axis.
#[test]
fn sidecars_and_csvs_are_identical_across_jobs_and_par_engines() {
    let ids = smoke_ids();
    let opts = |jobs| Options {
        jobs,
        ..smoke_opts()
    };
    let baseline = run_ids(&ids, &opts(1)).expect("valid ids");
    let run = run_ids(&ids, &opts(4)).expect("valid ids");
    assert_eq!(baseline.len(), run.len());
    for (b, r) in baseline.iter().zip(&run) {
        assert_eq!(b.output.metrics.id, r.output.metrics.id);
        assert_eq!(
            b.output.metrics.to_json(),
            r.output.metrics.to_json(),
            "{} sidecar differs at --jobs 4",
            b.output.metrics.id
        );
        let csv = |c: &tracegc::experiments::CompletedExperiment| {
            c.output
                .tables
                .iter()
                .map(tracegc::table::Table::to_csv)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            csv(b),
            csv(r),
            "{} CSV differs at --jobs 4",
            b.output.metrics.id
        );
    }
}

#[test]
fn sidecar_file_round_trips() {
    let dir = std::env::temp_dir().join(format!("tracegc-metrics-{}", std::process::id()));
    let out = run("table1", &smoke_opts()).expect("table1 known");
    let path = write_sidecar(&dir, &out.metrics).expect("sidecar written");
    assert!(path.ends_with("table1.metrics.json"));
    let contents = std::fs::read_to_string(&path).expect("readable");
    assert_eq!(contents, out.metrics.to_json());
    json_syntax_check(&contents).expect("well-formed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[ignore = "fig18/ablE run at full workload scale (~11 s release, minutes debug); ci.sh runs it in release"]
fn forced_scale_sidecars_are_valid() {
    for id in ["fig18", "ablE"] {
        let out = run(id, &smoke_opts()).expect("known id");
        out.metrics
            .check_invariants()
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        json_syntax_check(&out.metrics.to_json()).unwrap();
    }
}
