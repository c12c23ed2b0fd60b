//! Every experiment in the registry runs end-to-end at smoke scale and
//! produces well-formed tables.

use tracegc::experiments::{run, Options, ALL};

fn smoke_opts() -> Options {
    Options {
        scale: 0.015,
        pauses: 1,
        ..Options::default()
    }
}

#[test]
fn every_experiment_runs_and_produces_tables() {
    for id in ALL {
        // fig18 and ablE internally raise their scale for TLB pressure;
        // they get their own (slower, ignored-by-default) test below.
        if id == "fig18" || id == "ablE" {
            continue;
        }
        let out = run(id, &smoke_opts()).unwrap_or_else(|| panic!("unknown id {id}"));
        assert_eq!(out.id, id);
        assert!(!out.tables.is_empty(), "{id} produced no tables");
        for table in &out.tables {
            assert!(!table.headers.is_empty(), "{id} has headerless table");
            assert!(!table.rows.is_empty(), "{id} has an empty table");
            for row in &table.rows {
                assert_eq!(row.len(), table.headers.len(), "{id} ragged row");
            }
            // CSV renders.
            let csv = table.to_csv();
            assert!(csv.lines().count() == table.rows.len() + 1);
        }
    }
}

#[test]
#[ignore = "fig18/ablE run at full workload scale (~11 s release, minutes debug); ci.sh runs it in release"]
fn forced_scale_experiments_run() {
    let out = run("fig18", &smoke_opts()).expect("fig18 known");
    assert_eq!(out.tables.len(), 2);
    let out = run("ablE", &smoke_opts()).expect("ablE known");
    assert_eq!(out.tables.len(), 1);
}

#[test]
fn fig15_reports_speedups_in_the_paper_band() {
    let out = run("fig15", &smoke_opts()).expect("fig15 known");
    let table = &out.tables[0];
    // The geomean row's mark-speedup column should land in the broad
    // calibration band of DESIGN.md §6 (3-6x at smoke scale).
    let geomean = table.rows.last().expect("geomean row");
    let mark = geomean[3].trim_end_matches('x').parse::<f64>().unwrap();
    assert!((2.0..=8.0).contains(&mark), "mark geomean {mark}");
    let sweep = geomean[6].trim_end_matches('x').parse::<f64>().unwrap();
    assert!((1.2..=4.0).contains(&sweep), "sweep geomean {sweep}");
}

#[test]
fn fig22_area_headline_matches_paper() {
    let out = run("fig22", &smoke_opts()).expect("fig22 known");
    let totals = &out.tables[0];
    let get = |name: &str| {
        totals
            .rows
            .iter()
            .find(|r| r[0] == name)
            .map(|r| r[1].parse::<f64>().unwrap())
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let ratio = get("gc-unit") / get("rocket-core");
    assert!((0.14..=0.23).contains(&ratio), "unit/core = {ratio}");
}

#[test]
fn csv_files_are_written() {
    let dir = std::env::temp_dir().join(format!("tracegc-smoke-{}", std::process::id()));
    let out = run("table1", &smoke_opts()).expect("table1 known");
    let path = dir.join("table1.csv");
    out.tables[0].write_csv(&path).expect("csv written");
    let contents = std::fs::read_to_string(&path).expect("readable");
    assert!(contents.contains("parameter"));
    std::fs::remove_dir_all(&dir).ok();
}
