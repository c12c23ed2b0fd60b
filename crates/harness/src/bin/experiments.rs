//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run -p tracegc --release --bin experiments -- all
//! cargo run -p tracegc --release --bin experiments -- fig15 fig20
//! cargo run -p tracegc --release --bin experiments -- --scale 1.0 --pauses 6 fig15
//! cargo run -p tracegc --release --bin experiments -- --quick --jobs 8 all
//! ```
//!
//! Each experiment prints its tables and writes CSVs under `results/`,
//! plus a `<id>.metrics.json` sidecar with cycle-attributed stall
//! breakdowns per phase. `--jobs N` runs N experiments concurrently;
//! output order, CSV contents, and sidecar bytes are identical to a
//! serial run for any N. `--trace FILE` (single experiment only)
//! additionally dumps a Chrome trace-event JSON viewable in
//! `about:tracing`/Perfetto.

use std::path::PathBuf;
use std::process::ExitCode;

use tracegc::calib;
use tracegc::experiments::{self, Options};
use tracegc::metrics;
use tracegc_sim::sched::{set_default_pacing, Pacing};

fn usage() -> String {
    format!(
        "usage: experiments [--quick] [--scale F] [--pauses N] [--jobs N] [--out DIR] \
         [--trace FILE] [--fault-rate R] [--fault-seed S] \
         [--sched lockstep|fastforward] [--rss-ceiling-mb N] <id>...\n\
         \x20      experiments --calibrate [--out DIR] [<figure>...]\n\
         ids: all {}\n\
         --sched picks the scheduler pacing (default fastforward; both produce \
         byte-identical results)\n\
         --calibrate checks DIR's CSVs and sidecars (default results/) against the \
         paper's numbers and writes DIR/calibration.json; figures default to all of: {}\n\
         --rss-ceiling-mb fails the run (exit 5) if the process's peak RSS exceeds \
         N MB — the CI memory gate for the paper-scale heapscale batch\n\
         exit codes: 0 clean, 2 degraded to the software-fallback mark, 3 a run \
         failed, 4 calibration out of tolerance, 5 peak RSS over the ceiling",
        experiments::ALL.join(" "),
        calib::FIGURES.join(" "),
    )
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() -> ExitCode {
    let mut opts = Options {
        jobs: default_jobs(),
        ..Options::default()
    };
    let mut out_dir = PathBuf::from("results");
    let mut trace_path: Option<PathBuf> = None;
    let mut calibrate = false;
    let mut rss_ceiling_mb: Option<u64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sched" => match args.next().as_deref().and_then(Pacing::parse) {
                Some(p) => set_default_pacing(p),
                None => {
                    eprintln!("--sched needs 'lockstep' or 'fastforward'\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--calibrate" => calibrate = true,
            "--quick" => {
                opts.scale = 0.05;
                opts.pauses = 2;
            }
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.scale = v,
                None => {
                    eprintln!("--scale needs a number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--pauses" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.pauses = v,
                None => {
                    eprintln!("--pauses needs a number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => opts.jobs = v,
                _ => {
                    eprintln!("--jobs needs a positive number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(v) => out_dir = PathBuf::from(v),
                None => {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fault-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if (0.0..=1.0).contains(&v) => {
                    let mut cfg = opts
                        .fault
                        .unwrap_or_else(|| tracegc_sim::FaultConfig::zero_rates(0x5EED));
                    cfg.bit_flip_rate = v;
                    cfg.drop_rate = v;
                    cfg.delay_rate = v;
                    cfg.corrupt_ref_rate = v;
                    cfg.corrupt_header_rate = v;
                    cfg.pte_fault_rate = v;
                    opts.fault = Some(cfg);
                }
                _ => {
                    eprintln!("--fault-rate needs a probability in [0, 1]\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fault-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => {
                    let mut cfg = opts
                        .fault
                        .unwrap_or_else(|| tracegc_sim::FaultConfig::zero_rates(v));
                    cfg.seed = v;
                    opts.fault = Some(cfg);
                }
                None => {
                    eprintln!("--fault-seed needs a number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--rss-ceiling-mb" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => rss_ceiling_mb = Some(v),
                _ => {
                    eprintln!("--rss-ceiling-mb needs a positive number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(v) => {
                    trace_path = Some(PathBuf::from(v));
                    opts.trace = true;
                }
                None => {
                    eprintln!("--trace needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    // --calibrate is a pure evaluation mode: it reruns nothing, it
    // checks the CSVs and sidecars already in the output directory
    // against the in-tree paper-number table and writes
    // calibration.json there. Exit 0 = within tolerance, 4 = a check
    // failed, 1 = usage or I/O error.
    if calibrate {
        let figures: Vec<&str> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
            calib::FIGURES.to_vec()
        } else {
            ids.iter().map(String::as_str).collect()
        };
        let report = match calib::evaluate(&out_dir, &figures) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("calibrate: {e}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        for c in &report.checks {
            let detail = match (&c.measured, &c.reason) {
                (Some(v), _) => format!(
                    "measured {v:.4} in [{}, {}]{}",
                    c.lo,
                    c.hi.map_or("inf".to_string(), |h| h.to_string()),
                    c.paper.map_or(String::new(), |p| format!(", paper {p}")),
                ),
                (None, Some(reason)) => reason.clone(),
                (None, None) => String::new(),
            };
            println!(
                "calibrate: [{:>7}] {:<32} {}",
                c.status.name(),
                c.id,
                detail
            );
        }
        match calib::write_calibration(&out_dir, &report) {
            Ok(path) => println!("calibrate: report {}", path.display()),
            Err(e) => {
                eprintln!("calibrate: could not write calibration.json: {e}");
                return ExitCode::FAILURE;
            }
        }
        let (passed, failed, skipped) = report.tally();
        println!(
            "calibrate: {} checks over {} figure(s): {passed} passed, {failed} failed, \
             {skipped} skipped (bands apply at scale {})",
            report.checks.len(),
            report.figures.len(),
            calib::CALIBRATED_SCALE,
        );
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            eprintln!("exit 4: calibration outside tolerance (see calibration.json)");
            ExitCode::from(4)
        };
    }
    if ids.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    if trace_path.is_some() && ids.len() != 1 {
        eprintln!(
            "--trace requires exactly one experiment id (got {})\n{}",
            ids.len(),
            usage()
        );
        return ExitCode::FAILURE;
    }

    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let started = std::time::Instant::now();
    let completed = match experiments::run_ids(&id_refs, &opts) {
        Ok(completed) => completed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed();
    // Rendering happens after the pool drains, in registry order, so
    // output and CSVs are identical for every --jobs value.
    for (id, done) in id_refs.iter().zip(&completed) {
        let output = &done.output;
        println!("\n################ {} ################", output.title);
        for (i, table) in output.tables.iter().enumerate() {
            println!("{}", table.render());
            let path = if output.tables.len() == 1 {
                out_dir.join(format!("{id}.csv"))
            } else {
                out_dir.join(format!("{id}_{i}.csv"))
            };
            if let Err(e) = table.write_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        for note in &output.notes {
            println!("note: {note}");
        }
        match metrics::write_sidecar(&out_dir, &output.metrics) {
            Ok(path) => println!("metrics: {}", path.display()),
            Err(e) => eprintln!("warning: could not write metrics sidecar for {id}: {e}"),
        }
        let stall_summary: Vec<String> = ["cpu_mark", "cpu_sweep", "unit_mark", "unit_sweep"]
            .iter()
            .filter_map(|suffix| {
                output
                    .metrics
                    .stall_fraction(suffix)
                    .map(|f| format!("{suffix} {:.1}% stalled", 100.0 * f))
            })
            .collect();
        if !stall_summary.is_empty() {
            println!("stalls: {}", stall_summary.join(", "));
        }
        if let Some(path) = &trace_path {
            if output.trace.is_empty() {
                eprintln!(
                    "warning: {id} recorded no trace events (experiment may not \
                     support tracing)"
                );
            }
            let json = metrics::chrome_trace_json(&output.trace);
            match std::fs::write(path, &json) {
                Ok(()) => println!("trace: {} ({} events)", path.display(), output.trace.len()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        println!(
            "[{id} done in {:.1}s, scale={}, pauses={}]",
            done.wall.as_secs_f64(),
            opts.scale,
            opts.pauses
        );
    }

    let busy: f64 = completed.iter().map(|c| c.wall.as_secs_f64()).sum();
    let wall_s = wall.as_secs_f64();
    println!(
        "\n[{} experiments in {:.1}s wall with --jobs {} \
         ({:.1} experiment-seconds of work, \
         {:.2}x parallel speedup, {:.2} experiments/s)]",
        completed.len(),
        wall_s,
        opts.jobs,
        busy,
        busy / wall_s.max(1e-9),
        completed.len() as f64 / wall_s.max(1e-9),
    );
    // The CI memory gate: peak RSS is host-measured and therefore never
    // lands in any deterministic output, only in this check and its
    // diagnostic line.
    if let Some(ceiling) = rss_ceiling_mb {
        match metrics::peak_rss_kb() {
            Some(kb) => {
                let peak_mb = kb.div_ceil(1024);
                println!("rss: peak {peak_mb} MB, ceiling {ceiling} MB");
                if peak_mb > ceiling {
                    eprintln!("exit 5: peak RSS {peak_mb} MB exceeds --rss-ceiling-mb {ceiling}");
                    return ExitCode::from(5);
                }
            }
            None => eprintln!("warning: --rss-ceiling-mb set but peak RSS is unreadable"),
        }
    }
    // Degraded/failed runs surface in the exit code (0 clean, 2 the
    // software fallback completed a trapped mark, 3 a run failed) so CI
    // can gate on the difference without parsing sidecars.
    let code = experiments::exit_code_for(&completed);
    if code != 0 {
        eprintln!("exit {code}: fault injection degraded at least one run (see sidecars)");
    }
    ExitCode::from(code)
}
