//! Paper-calibration conformance: the paper's headline numbers as an
//! executable test suite.
//!
//! The reproduction's danger mode is silent drift: a timing-model or
//! scheduler change that keeps every test green while bending the
//! science — the figure trends — away from the paper. This module turns
//! the paper itself into a machine-checked oracle. An in-tree table of
//! the paper's reported numbers ([`CHECKS`]) is evaluated against the
//! CSVs and metrics sidecars an `experiments` run wrote under
//! `results/`, producing a deterministic `calibration.json` report
//! (schema [`CALIB_SCHEMA`]).
//!
//! Two kinds of assertion, mirroring how EXPERIMENTS.md reads the
//! figures:
//!
//! * **tolerance bands** — a derived quantity (e.g. the fig15 mark
//!   speedup geomean) must land inside a documented `[lo, hi]` band
//!   around the paper's value. Absolute bands are only meaningful at
//!   the scale they were calibrated at ([`CALIBRATED_SCALE`], the
//!   committed `results/` default), so band checks are *skipped* — not
//!   failed — when the sidecar records a different scale.
//! * **direction-of-trend assertions** — orderings and monotonicities
//!   that must hold at *any* scale: the unit beats the CPU on every
//!   benchmark, mark accelerates more than sweep, sweeper scaling
//!   rises to 4 lanes, the mark-bit cache filters more as it grows,
//!   compression halves spill traffic, the PTW dominates a shared
//!   cache. These are encoded as margins (`measured` is the worst-case
//!   margin, the band requires it positive).
//!
//! The report is byte-deterministic: checks are evaluated and emitted
//! in the canonical [`FIGURES`] order whatever order the caller asked
//! for, nothing host-measured is recorded, and the inputs themselves
//! are pacing- and `--jobs`-independent. `experiments --calibrate`
//! exits `4` on any failed check (see the CLI contract in
//! EXPERIMENTS.md); `ci.sh` runs it against the committed `results/`.

use std::fmt::Write as _;
use std::path::Path;

use crate::json;

/// Schema tag written into every calibration report.
pub const CALIB_SCHEMA: &str = "tracegc-calib-v1";

/// The workload scale the absolute tolerance bands were calibrated at —
/// the default scale of the committed `results/` run. Band checks
/// evaluated against a run at any other scale report `skipped`.
pub const CALIBRATED_SCALE: f64 = 0.25;

/// The figures the calibration suite covers, in canonical (paper)
/// order. Reports always list checks in this order.
pub const FIGURES: &[&str] = &[
    "table1", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
];

/// One check's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Measured value inside the band.
    Pass,
    /// Outside the band, or an input needed to compute it was missing
    /// or malformed (a calibration run must see every input it asks
    /// for).
    Fail,
    /// Not applicable to this run (band calibrated at a different
    /// scale, or the trend's precondition — e.g. any spill traffic at
    /// all — did not arise).
    Skipped,
}

impl Status {
    /// The status as it appears in the JSON report.
    pub fn name(&self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Fail => "fail",
            Status::Skipped => "skipped",
        }
    }
}

/// One evaluated check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Stable check id, `<figure>.<name>`.
    pub id: &'static str,
    /// The figure the check belongs to.
    pub figure: &'static str,
    /// What the check asserts, in paper terms.
    pub description: &'static str,
    /// The paper's reported value, when it reports one.
    pub paper: Option<f64>,
    /// Inclusive lower bound on `measured`.
    pub lo: f64,
    /// Inclusive upper bound on `measured` (`None` = unbounded).
    pub hi: Option<f64>,
    /// The measured value, when it could be computed.
    pub measured: Option<f64>,
    /// Verdict.
    pub status: Status,
    /// Why, for `fail`/`skipped`.
    pub reason: Option<String>,
}

/// A full calibration report.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibReport {
    /// Figures evaluated, in canonical order.
    pub figures: Vec<&'static str>,
    /// Every check, in canonical order.
    pub checks: Vec<CheckResult>,
}

impl CalibReport {
    /// `true` when no check failed (skips are not failures).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.status != Status::Fail)
    }

    /// Counts by status: (passed, failed, skipped).
    pub fn tally(&self) -> (usize, usize, usize) {
        let count = |s: Status| self.checks.iter().filter(|c| c.status == s).count();
        (
            count(Status::Pass),
            count(Status::Fail),
            count(Status::Skipped),
        )
    }

    /// Renders the report as deterministic, pretty-printed JSON
    /// (schema [`CALIB_SCHEMA`]). Contains nothing host-measured, so
    /// two evaluations of the same inputs are byte-identical.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(v) => json::number(v),
            None => "null".to_string(),
        };
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json::escape(CALIB_SCHEMA));
        let _ = writeln!(
            s,
            "  \"calibrated_scale\": {},",
            json::number(CALIBRATED_SCALE)
        );
        let _ = write!(s, "  \"figures\": [");
        for (i, f) in self.figures.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json::escape(f));
        }
        s.push_str("],\n");
        s.push_str("  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"id\": {}, \"figure\": {}, \"description\": {}, \
                 \"paper\": {}, \"lo\": {}, \"hi\": {}, \"measured\": {}, \
                 \"status\": {}, \"reason\": {}}}",
                json::escape(c.id),
                json::escape(c.figure),
                json::escape(c.description),
                opt(c.paper),
                json::number(c.lo),
                opt(c.hi),
                opt(c.measured),
                json::escape(c.status.name()),
                match &c.reason {
                    Some(r) => json::escape(r),
                    None => "null".to_string(),
                },
            );
        }
        s.push_str(if self.checks.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let (passed, failed, skipped) = self.tally();
        let _ = writeln!(s, "  \"summary\": {{");
        let _ = writeln!(s, "    \"checks\": {},", self.checks.len());
        let _ = writeln!(s, "    \"passed\": {passed},");
        let _ = writeln!(s, "    \"failed\": {failed},");
        let _ = writeln!(s, "    \"skipped\": {skipped},");
        let _ = writeln!(
            s,
            "    \"pass\": {}",
            if self.passed() { "true" } else { "false" }
        );
        s.push_str("  }\n}\n");
        s
    }
}

/// Writes `report` to `<dir>/calibration.json`; returns the path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_calibration(dir: &Path, report: &CalibReport) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("calibration.json");
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

// ---------------------------------------------------------------------
// The paper-number table.
//
// Band values (`lo`/`hi`) document, per figure, how far the scaled-down
// simulator may sit from the paper's reported number before the build
// fails; the rationale for each width lives in DESIGN.md §9 and the
// paper-vs-measured tables of EXPERIMENTS.md. Trend checks carry the
// margin bound instead (usually "strictly positive").
// ---------------------------------------------------------------------

/// What a check compares.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Absolute band around the paper's number; only meaningful at
    /// [`CALIBRATED_SCALE`], skipped elsewhere.
    Band,
    /// Direction-of-trend margin; holds at any scale.
    Trend,
}

/// A static check specification: the executable row of the paper table.
#[derive(Debug, Clone, Copy)]
pub struct CheckSpec {
    /// Stable id, `<figure>.<name>`.
    pub id: &'static str,
    /// Owning figure.
    pub figure: &'static str,
    /// What it asserts.
    pub description: &'static str,
    /// The paper's reported value, if it reports one.
    pub paper: Option<f64>,
    /// Inclusive bounds on the measured value / margin.
    pub lo: f64,
    /// Upper bound; `None` = unbounded above.
    pub hi: Option<f64>,
    /// Band (calibrated-scale only) or trend (any scale).
    pub kind: Kind,
}

/// Every calibration check, in canonical report order.
pub const CHECKS: &[CheckSpec] = &[
    // Table I — SoC configuration (scale-independent; exact by
    // construction, so bands are point intervals).
    CheckSpec {
        id: "table1.l2_over_l1",
        figure: "table1",
        description: "L2 capacity over L1 D-cache capacity (256 KiB / 16 KiB)",
        paper: Some(16.0),
        lo: 16.0,
        hi: Some(16.0),
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "table1.tlb_reach_per_entry_kib",
        figure: "table1",
        description: "TLB reach per entry = page size (128 KiB / 32 entries)",
        paper: Some(4.0),
        lo: 4.0,
        hi: Some(4.0),
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "table1.config_strings",
        figure: "table1",
        description: "fraction of Table I config rows matching the paper verbatim \
                      (FR-FCFS 16/8, open page, 14-14-14-47, 8 banks, cache sizes)",
        paper: Some(1.0),
        lo: 1.0,
        hi: Some(1.0),
        kind: Kind::Trend,
    },
    // Fig. 15 — mark & sweep speedups on DDR3 (the headline figure).
    CheckSpec {
        id: "fig15.mark_speedup_geomean",
        figure: "fig15",
        description: "geomean hw-vs-sw mark speedup, DDR3 (paper 4.2x)",
        paper: Some(4.2),
        lo: 3.0,
        hi: Some(8.4),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig15.sweep_speedup_geomean",
        figure: "fig15",
        description: "geomean hw-vs-sw sweep speedup, DDR3 (paper 1.9x)",
        paper: Some(1.9),
        lo: 1.25,
        hi: Some(3.1),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig15.total_speedup_geomean",
        figure: "fig15",
        description: "geomean overall GC speedup, DDR3 (paper 3.3x)",
        paper: Some(3.3),
        lo: 2.2,
        hi: Some(5.7),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig15.unit_wins_every_bench",
        figure: "fig15",
        description: "worst per-benchmark speedup (mark, sweep and total) — the unit \
                      must win everywhere",
        paper: None,
        lo: 1.01,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig15.mark_exceeds_sweep",
        figure: "fig15",
        description: "worst per-benchmark (mark speedup - sweep speedup) — marking \
                      accelerates more than sweeping",
        paper: None,
        lo: 0.01,
        hi: None,
        kind: Kind::Trend,
    },
    // Fig. 16 — memory bandwidth over one pause.
    CheckSpec {
        id: "fig16.bandwidth_ratio",
        figure: "fig16",
        description: "unit avg GB/s over CPU avg GB/s across the pause (paper ~2.5x)",
        paper: Some(2.5),
        lo: 1.5,
        hi: Some(4.0),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig16.unit_sustains_more_bandwidth",
        figure: "fig16",
        description: "unit average bandwidth exceeds the CPU's (ratio)",
        paper: None,
        lo: 1.1,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig16.unit_peak_exceeds_cpu_peak",
        figure: "fig16",
        description: "unit peak bandwidth exceeds the CPU's peak (ratio)",
        paper: None,
        lo: 1.01,
        hi: None,
        kind: Kind::Trend,
    },
    // Fig. 17 — potential performance on the 1-cycle 8 GB/s pipe.
    CheckSpec {
        id: "fig17.mark_speedup_geomean",
        figure: "fig17",
        description: "geomean mark speedup on the ideal memory pipe (paper 9.0x)",
        paper: Some(9.0),
        lo: 5.6,
        hi: Some(14.5),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig17.exceeds_fig15",
        figure: "fig17",
        description: "ideal-pipe mark geomean over the DDR3 mark geomean — removing \
                      DRAM latency must speed the unit up",
        paper: None,
        lo: 1.05,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig17.issue_interval_cycles",
        figure: "fig17",
        description: "mean cycles between unit memory requests on the pipe (paper \
                      8.66; ours issues smaller, more frequent requests)",
        paper: Some(8.66),
        lo: 3.0,
        hi: Some(10.0),
        kind: Kind::Band,
    },
    // Fig. 18 — cache partitioning (forces its own workload scale, so
    // both checks are scale-free trends).
    CheckSpec {
        id: "fig18.ptw_dominates_shared",
        figure: "fig18",
        description: "minimum PTW share of shared-cache requests, % (paper ~2/3)",
        paper: Some(66.7),
        lo: 50.0,
        hi: Some(100.0),
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig18.workers_dominate_partitioned",
        figure: "fig18",
        description: "minimum marker+tracer share of memory requests after \
                      partitioning, %",
        paper: None,
        lo: 60.0,
        hi: Some(100.0),
        kind: Kind::Trend,
    },
    // Fig. 19 — mark-queue sizing and spill compression.
    CheckSpec {
        id: "fig19.compression_halves_spill",
        figure: "fig19",
        description: "uncompressed over compressed spill writes at the smallest \
                      queue (paper: compression halves spill traffic)",
        paper: Some(2.0),
        lo: 1.3,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig19.spill_fraction_small",
        figure: "fig19",
        description: "worst-case spill requests as % of all memory requests \
                      (paper ~2%)",
        paper: Some(2.0),
        lo: 0.0,
        hi: Some(6.0),
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig19.spill_drops_at_large_queue",
        figure: "fig19",
        description: "spill writes at the largest queue over the smallest (a queue \
                      that fits the frontier stops spilling)",
        paper: None,
        lo: 0.0,
        hi: Some(0.5),
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig19.mark_time_flat",
        figure: "fig19",
        description: "max/min mark time across a 65x queue-size range (paper: \
                      nearly flat)",
        paper: Some(1.0),
        lo: 1.0,
        hi: Some(1.25),
        kind: Kind::Band,
    },
    // Fig. 20 — block-sweeper scaling.
    CheckSpec {
        id: "fig20.scaling_to_four",
        figure: "fig20",
        description: "worst per-benchmark consecutive speedup margin from 1 to 4 \
                      sweepers — scaling must rise monotonically",
        paper: None,
        lo: 1e-6,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig20.four_sweeper_speedup",
        figure: "fig20",
        description: "geomean speedup with 4 sweepers (paper 2-3x; ours runs hotter)",
        paper: Some(2.5),
        lo: 1.8,
        hi: Some(6.0),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig20.contention_at_eight",
        figure: "fig20",
        description: "worst per-benchmark (4-sweeper - 8-sweeper) speedup margin — \
                      DRAM row conflicts must bite by 8 lanes (scale-sensitive, \
                      checked at the calibrated scale only)",
        paper: None,
        lo: 1e-6,
        hi: None,
        kind: Kind::Band,
    },
    // Fig. 21 — mark-bit cache.
    CheckSpec {
        id: "fig21.hot_set_exists",
        figure: "fig21",
        description: "objects receiving >=16 mark accesses (the Zipf hot set the \
                      cache exploits)",
        paper: None,
        lo: 1.0,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig21.filter_grows_with_cache",
        figure: "fig21",
        description: "worst consecutive increase of filtered mark ops as the cache \
                      grows, percentage points",
        paper: None,
        lo: 1e-6,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig21.reqs_per_ref_drops",
        figure: "fig21",
        description: "worst consecutive decrease of mark requests per reference as \
                      the cache grows",
        paper: None,
        lo: 1e-6,
        hi: None,
        kind: Kind::Trend,
    },
    CheckSpec {
        id: "fig21.largest_cache_filter",
        figure: "fig21",
        description: "% of mark ops filtered by the largest cache (paper: a small \
                      cache captures ~10%)",
        paper: Some(10.0),
        lo: 4.0,
        hi: Some(15.0),
        kind: Kind::Band,
    },
    CheckSpec {
        id: "fig21.mark_time_flat",
        figure: "fig21",
        description: "max/min mark time across cache sizes (paper: no substantial \
                      effect at DDR3 bandwidth)",
        paper: Some(1.0),
        lo: 1.0,
        hi: Some(1.15),
        kind: Kind::Band,
    },
];

// ---------------------------------------------------------------------
// Input loading.
// ---------------------------------------------------------------------

/// A loaded CSV table.
struct Csv {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    fn load(dir: &Path, name: &str) -> Result<Csv, String> {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("missing input {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let headers = split_csv_line(lines.next().ok_or_else(|| format!("{name}: empty CSV"))?);
        let rows: Vec<Vec<String>> = lines.map(split_csv_line).collect();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != headers.len() {
                return Err(format!(
                    "{name}: row {} has {} cells, header has {}",
                    i + 1,
                    r.len(),
                    headers.len()
                ));
            }
        }
        Ok(Csv { headers, rows })
    }

    fn col_index(&self, header: &str) -> Result<usize, String> {
        self.headers
            .iter()
            .position(|h| h == header)
            .ok_or_else(|| format!("missing CSV column '{header}'"))
    }

    /// Numeric column, one value per row; `skip_last` drops trailing
    /// summary rows (e.g. the geomean line).
    fn num_col(&self, header: &str, skip_last: usize) -> Result<Vec<f64>, String> {
        let idx = self.col_index(header)?;
        let end = self.rows.len().saturating_sub(skip_last);
        self.rows[..end]
            .iter()
            .map(|r| parse_num(&r[idx]).ok_or_else(|| format!("bad number in '{header}'")))
            .collect()
    }

    /// The value cell of a `parameter,value`-style row.
    fn lookup(&self, key: &str) -> Option<&str> {
        self.rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(key))
            .and_then(|r| r.get(1))
            .map(String::as_str)
    }
}

/// Splits one CSV line, honouring the double-quote escaping
/// `Table::to_csv` emits.
fn split_csv_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => {
                cells.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    cells.push(cur);
    cells
}

/// Parses a cell like `6.92x`, `59%`, or `3.14` to a float.
fn parse_num(cell: &str) -> Option<f64> {
    cell.trim().trim_end_matches(['x', '%']).parse::<f64>().ok()
}

/// The `scale` gauge recorded in `<figure>.metrics.json`.
fn sidecar_scale(dir: &Path, figure: &str) -> Result<f64, String> {
    let path = dir.join(format!("{figure}.metrics.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("missing sidecar {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{figure}.metrics.json: {e}"))?;
    doc.get("gauges")
        .and_then(|g| g.get("scale"))
        .and_then(json::Json::as_f64)
        .ok_or_else(|| format!("{figure}.metrics.json: no scale gauge"))
}

/// A named gauge from `<figure>.metrics.json`.
fn sidecar_gauge(dir: &Path, figure: &str, gauge: &str) -> Result<f64, String> {
    let path = dir.join(format!("{figure}.metrics.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("missing sidecar {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{figure}.metrics.json: {e}"))?;
    doc.get("gauges")
        .and_then(|g| g.get(gauge))
        .and_then(json::Json::as_f64)
        .ok_or_else(|| format!("{figure}.metrics.json: no gauge '{gauge}'"))
}

fn geomean(vs: &[f64]) -> Option<f64> {
    if vs.is_empty() || vs.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((vs.iter().map(|v| v.ln()).sum::<f64>() / vs.len() as f64).exp())
}

/// Worst (minimum) consecutive difference `v[i+1] - v[i]`.
fn min_consecutive_rise(vs: &[f64]) -> Option<f64> {
    vs.windows(2)
        .map(|w| w[1] - w[0])
        .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
}

// ---------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------

/// How one measured quantity came out: a value, a reason to skip, or a
/// reason to fail.
enum Measured {
    Value(f64),
    Skip(String),
    Err(String),
}

impl From<Result<f64, String>> for Measured {
    fn from(r: Result<f64, String>) -> Self {
        match r {
            Ok(v) => Measured::Value(v),
            Err(e) => Measured::Err(e),
        }
    }
}

fn spec_for(id: &str) -> &'static CheckSpec {
    CHECKS
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("unknown check id {id}"))
}

/// Resolves one check: applies the scale gate for bands, then the band
/// itself.
fn resolve(id: &str, scale: &Result<f64, String>, measured: Measured) -> CheckResult {
    let spec = spec_for(id);
    let mut result = CheckResult {
        id: spec.id,
        figure: spec.figure,
        description: spec.description,
        paper: spec.paper,
        lo: spec.lo,
        hi: spec.hi,
        measured: None,
        status: Status::Pass,
        reason: None,
    };
    if matches!(spec.kind, Kind::Band) {
        match scale {
            Ok(s) if *s != CALIBRATED_SCALE => {
                result.status = Status::Skipped;
                result.reason = Some(format!(
                    "band calibrated at scale {CALIBRATED_SCALE}; run recorded scale {s}"
                ));
                return result;
            }
            Ok(_) => {}
            Err(e) => {
                result.status = Status::Fail;
                result.reason = Some(e.clone());
                return result;
            }
        }
    }
    match measured {
        Measured::Err(e) => {
            result.status = Status::Fail;
            result.reason = Some(e);
        }
        Measured::Skip(why) => {
            result.status = Status::Skipped;
            result.reason = Some(why);
        }
        Measured::Value(v) => {
            result.measured = Some(v);
            let above = result.hi.is_some_and(|hi| v > hi);
            if v < result.lo || above {
                result.status = Status::Fail;
                result.reason = Some(format!(
                    "measured {v:.4} outside [{}, {}]",
                    result.lo,
                    result.hi.map_or("inf".to_string(), |h| format!("{h}")),
                ));
            }
        }
    }
    result
}

fn eval_table1(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "table1");
    let l2_over_l1 = (|| {
        let l1 = sidecar_gauge(dir, "table1", "l1d_kib")?;
        let l2 = sidecar_gauge(dir, "table1", "l2_kib")?;
        if l1 <= 0.0 {
            return Err("l1d_kib gauge is zero".into());
        }
        Ok(l2 / l1)
    })();
    let cpu = Csv::load(dir, "table1_0.csv");
    let mem = Csv::load(dir, "table1_1.csv");
    let tlb_reach = (|| {
        let row = cpu
            .as_ref()
            .map_err(Clone::clone)?
            .lookup("ITLB/DTLB reach")
            .ok_or_else(|| "table1_0.csv: no 'ITLB/DTLB reach' row".to_string())?;
        // "128 KiB (32 entries each)" -> 128 / 32.
        let nums: Vec<f64> = row
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect();
        match nums.as_slice() {
            [reach, entries, ..] if *entries > 0.0 => Ok(reach / entries),
            _ => Err(format!("table1_0.csv: unparsable TLB row '{row}'")),
        }
    })();
    let config = (|| {
        let cpu = cpu.as_ref().map_err(Clone::clone)?;
        let mem = mem.as_ref().map_err(Clone::clone)?;
        let expectations: [(&Csv, &str, &str); 6] = [
            (cpu, "L1 caches", "16 KiB"),
            (cpu, "L2 cache", "256 KiB"),
            (mem, "Memory access scheduler", "FrFcfs (16/8"),
            (mem, "Page policy", "Open"),
            (mem, "DRAM latencies (ns)", "14-14-14-47"),
            (mem, "Banks", "8"),
        ];
        let matched = expectations
            .iter()
            .filter(|(csv, key, want)| csv.lookup(key).is_some_and(|v| v.contains(want)))
            .count();
        Ok(matched as f64 / expectations.len() as f64)
    })();
    vec![
        resolve("table1.l2_over_l1", &scale, l2_over_l1.into()),
        resolve("table1.tlb_reach_per_entry_kib", &scale, tlb_reach.into()),
        resolve("table1.config_strings", &scale, config.into()),
    ]
}

fn eval_fig15(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig15");
    let csv = Csv::load(dir, "fig15.csv");
    // The last row is the geomean summary; per-bench columns skip it.
    let per_bench = |col: &str| -> Result<Vec<f64>, String> {
        csv.as_ref().map_err(Clone::clone)?.num_col(col, 1)
    };
    let worst_any = (|| {
        let mut worst = f64::INFINITY;
        for col in ["mark-speedup", "sweep-speedup", "total-speedup"] {
            for v in per_bench(col)? {
                worst = worst.min(v);
            }
        }
        Ok(worst)
    })();
    let mark_minus_sweep = (|| {
        let mark = per_bench("mark-speedup")?;
        let sweep = per_bench("sweep-speedup")?;
        Ok(mark
            .iter()
            .zip(&sweep)
            .map(|(m, s)| m - s)
            .fold(f64::INFINITY, f64::min))
    })();
    vec![
        resolve(
            "fig15.mark_speedup_geomean",
            &scale,
            sidecar_gauge(dir, "fig15", "mark_speedup_geomean").into(),
        ),
        resolve(
            "fig15.sweep_speedup_geomean",
            &scale,
            sidecar_gauge(dir, "fig15", "sweep_speedup_geomean").into(),
        ),
        resolve(
            "fig15.total_speedup_geomean",
            &scale,
            sidecar_gauge(dir, "fig15", "total_speedup_geomean").into(),
        ),
        resolve("fig15.unit_wins_every_bench", &scale, worst_any.into()),
        resolve("fig15.mark_exceeds_sweep", &scale, mark_minus_sweep.into()),
    ]
}

fn eval_fig16(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig16");
    let ratio_of = |num_gauge: &str, den_gauge: &str| -> Result<f64, String> {
        let n = sidecar_gauge(dir, "fig16", num_gauge)?;
        let d = sidecar_gauge(dir, "fig16", den_gauge)?;
        if d <= 0.0 {
            return Err(format!("gauge '{den_gauge}' is zero"));
        }
        Ok(n / d)
    };
    let avg = ratio_of("unit_avg_gbps", "cpu_avg_gbps");
    let peak = ratio_of("unit_peak_gbps", "cpu_peak_gbps");
    vec![
        resolve("fig16.bandwidth_ratio", &scale, avg.clone().into()),
        resolve("fig16.unit_sustains_more_bandwidth", &scale, avg.into()),
        resolve("fig16.unit_peak_exceeds_cpu_peak", &scale, peak.into()),
    ]
}

fn eval_fig17(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig17");
    let geomean_pipe = sidecar_gauge(dir, "fig17", "mark_speedup_geomean");
    let vs_fig15 = (|| {
        let pipe = sidecar_gauge(dir, "fig17", "mark_speedup_geomean")?;
        let ddr3 = sidecar_gauge(dir, "fig15", "mark_speedup_geomean")?;
        if ddr3 <= 0.0 {
            return Err("fig15 mark geomean is zero".into());
        }
        Ok(pipe / ddr3)
    })();
    let interval = (|| {
        let csv = Csv::load(dir, "fig17_1.csv")?;
        let vs = csv.num_col("cycles-between-reqs", 0)?;
        if vs.is_empty() {
            return Err("fig17_1.csv has no rows".into());
        }
        Ok(vs.iter().sum::<f64>() / vs.len() as f64)
    })();
    vec![
        resolve("fig17.mark_speedup_geomean", &scale, geomean_pipe.into()),
        resolve("fig17.exceeds_fig15", &scale, vs_fig15.into()),
        resolve("fig17.issue_interval_cycles", &scale, interval.into()),
    ]
}

fn eval_fig18(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig18");
    let min_share = |file: &str, col: &str| -> Result<f64, String> {
        let csv = Csv::load(dir, file)?;
        let vs = csv.num_col(col, 0)?;
        vs.into_iter()
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
            .ok_or_else(|| format!("{file} has no rows"))
    };
    vec![
        resolve(
            "fig18.ptw_dominates_shared",
            &scale,
            min_share("fig18_0.csv", "ptw-share").into(),
        ),
        resolve(
            "fig18.workers_dominate_partitioned",
            &scale,
            min_share("fig18_1.csv", "marker+tracer-share").into(),
        ),
    ]
}

fn eval_fig19(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig19");
    let csv = Csv::load(dir, "fig19.csv");
    // Row accessors over (size-kb, variant) pairs.
    let writes_of = |variant: &str| -> Result<Vec<(f64, f64)>, String> {
        let csv = csv.as_ref().map_err(Clone::clone)?;
        let size_i = csv.col_index("size-kb")?;
        let var_i = csv.col_index("variant")?;
        let w_i = csv.col_index("spill-writes")?;
        let mut out = Vec::new();
        for r in &csv.rows {
            if r[var_i] == variant {
                let size = parse_num(&r[size_i]).ok_or("bad size-kb")?;
                let w = parse_num(&r[w_i]).ok_or("bad spill-writes")?;
                out.push((size, w));
            }
        }
        if out.is_empty() {
            return Err(format!("fig19.csv: no '{variant}' rows"));
        }
        Ok(out)
    };
    let compression = match (writes_of("TQ=128"), writes_of("compressed")) {
        (Ok(tq), Ok(comp)) => {
            let (_, tq0) = tq[0];
            let (_, comp0) = comp[0];
            if tq0 == 0.0 {
                Measured::Skip("no spill traffic at this scale".into())
            } else if comp0 == 0.0 {
                // Compression eliminated spilling outright: trivially
                // at least the required halving.
                Measured::Value(f64::MAX)
            } else {
                Measured::Value(tq0 / comp0)
            }
        }
        (Err(e), _) | (_, Err(e)) => Measured::Err(e),
    };
    let drop_at_large = match writes_of("TQ=128") {
        Ok(tq) => {
            let (_, first) = tq[0];
            let (_, last) = tq[tq.len() - 1];
            if first == 0.0 {
                Measured::Skip("no spill traffic at this scale".into())
            } else {
                Measured::Value(last / first)
            }
        }
        Err(e) => Measured::Err(e),
    };
    let spill_frac = (|| {
        let csv = csv.as_ref().map_err(Clone::clone)?;
        let vs = csv.num_col("spill-%-of-reqs", 0)?;
        Ok(vs.into_iter().fold(0.0, f64::max))
    })();
    let flat = (|| {
        let csv = csv.as_ref().map_err(Clone::clone)?;
        let vs = csv.num_col("mark-ms", 0)?;
        let max = vs.iter().copied().fold(f64::MIN, f64::max);
        let min = vs.iter().copied().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            return Err("fig19.csv: zero mark time".into());
        }
        Ok(max / min)
    })();
    vec![
        resolve("fig19.compression_halves_spill", &scale, compression),
        resolve("fig19.spill_fraction_small", &scale, spill_frac.into()),
        resolve("fig19.spill_drops_at_large_queue", &scale, drop_at_large),
        resolve("fig19.mark_time_flat", &scale, flat.into()),
    ]
}

fn eval_fig20(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig20");
    let csv = Csv::load(dir, "fig20.csv");
    let lane_cols = ["1", "2", "3", "4"];
    let rise = (|| {
        let csv = csv.as_ref().map_err(Clone::clone)?;
        let mut worst = f64::INFINITY;
        for row in 0..csv.rows.len() {
            let mut lane_speedups = Vec::new();
            for col in lane_cols {
                let idx = csv.col_index(col)?;
                lane_speedups.push(parse_num(&csv.rows[row][idx]).ok_or("bad fig20 speedup cell")?);
            }
            if let Some(m) = min_consecutive_rise(&lane_speedups) {
                worst = worst.min(m);
            }
        }
        if worst == f64::INFINITY {
            return Err("fig20.csv has no rows".into());
        }
        Ok(worst)
    })();
    let four = (|| {
        let csv = csv.as_ref().map_err(Clone::clone)?;
        let vs = csv.num_col("4", 0)?;
        geomean(&vs).ok_or_else(|| "fig20.csv: non-positive 4-sweeper speedup".into())
    })();
    let contention = (|| {
        let csv = csv.as_ref().map_err(Clone::clone)?;
        let four = csv.num_col("4", 0)?;
        let eight = csv.num_col("8", 0)?;
        Ok(four
            .iter()
            .zip(&eight)
            .map(|(f, e)| f - e)
            .fold(f64::INFINITY, f64::min))
    })();
    vec![
        resolve("fig20.scaling_to_four", &scale, rise.into()),
        resolve("fig20.four_sweeper_speedup", &scale, four.into()),
        resolve("fig20.contention_at_eight", &scale, contention.into()),
    ]
}

fn eval_fig21(dir: &Path) -> Vec<CheckResult> {
    let scale = sidecar_scale(dir, "fig21");
    let hot = (|| {
        let csv = Csv::load(dir, "fig21_0.csv")?;
        let acc_i = csv.col_index("accesses")?;
        let obj_i = csv.col_index("objects")?;
        let row = csv
            .rows
            .iter()
            .find(|r| r[acc_i] == ">=16")
            .ok_or("fig21_0.csv: no '>=16' row")?;
        parse_num(&row[obj_i]).ok_or_else(|| "fig21_0.csv: bad objects cell".into())
    })();
    let sweep = Csv::load(dir, "fig21_1.csv");
    let filtered = (|| {
        let csv = sweep.as_ref().map_err(Clone::clone)?;
        csv.num_col("filtered-%", 0)
    })();
    let grow = match &filtered {
        Ok(vs) => min_consecutive_rise(vs)
            .map(Measured::Value)
            .unwrap_or_else(|| Measured::Err("fig21_1.csv: fewer than 2 rows".into())),
        Err(e) => Measured::Err(e.clone()),
    };
    let reqs_drop = (|| {
        let csv = sweep.as_ref().map_err(Clone::clone)?;
        let vs = csv.num_col("mark-reqs-per-ref", 0)?;
        // Falling series: negate and reuse the rise helper.
        let neg: Vec<f64> = vs.iter().map(|v| -v).collect();
        min_consecutive_rise(&neg).ok_or_else(|| "fig21_1.csv: fewer than 2 rows".into())
    })();
    let largest = match &filtered {
        Ok(vs) => vs
            .last()
            .copied()
            .map(Measured::Value)
            .unwrap_or_else(|| Measured::Err("fig21_1.csv: no rows".into())),
        Err(e) => Measured::Err(e.clone()),
    };
    let flat = (|| {
        let csv = sweep.as_ref().map_err(Clone::clone)?;
        let vs = csv.num_col("mark-ms", 0)?;
        let max = vs.iter().copied().fold(f64::MIN, f64::max);
        let min = vs.iter().copied().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            return Err("fig21_1.csv: zero mark time".into());
        }
        Ok(max / min)
    })();
    vec![
        resolve("fig21.hot_set_exists", &scale, hot.into()),
        resolve("fig21.filter_grows_with_cache", &scale, grow),
        resolve("fig21.reqs_per_ref_drops", &scale, reqs_drop.into()),
        resolve("fig21.largest_cache_filter", &scale, largest),
        resolve("fig21.mark_time_flat", &scale, flat.into()),
    ]
}

/// Evaluates the calibration suite for `figures` against the artifacts
/// in `dir`, in canonical order regardless of the order (or
/// duplication) of `figures`. The report is a pure function of the
/// input files: evaluating twice, in any request order, under any
/// `--jobs` value or scheduler pacing, yields byte-identical JSON.
///
/// # Errors
///
/// An unknown figure name (one not in [`FIGURES`]); individual missing
/// or malformed inputs are reported per check, as failures, not as
/// evaluation errors.
pub fn evaluate(dir: &Path, figures: &[&str]) -> Result<CalibReport, String> {
    if let Some(bad) = figures.iter().find(|f| !FIGURES.contains(f)) {
        return Err(format!(
            "unknown calibration figure '{bad}' (known: {})",
            FIGURES.join(" ")
        ));
    }
    // Canonicalize: FIGURES order, duplicates collapsed.
    let ordered: Vec<&'static str> = FIGURES
        .iter()
        .copied()
        .filter(|f| figures.contains(f))
        .collect();
    let mut checks = Vec::new();
    for figure in &ordered {
        checks.extend(match *figure {
            "table1" => eval_table1(dir),
            "fig15" => eval_fig15(dir),
            "fig16" => eval_fig16(dir),
            "fig17" => eval_fig17(dir),
            "fig18" => eval_fig18(dir),
            "fig19" => eval_fig19(dir),
            "fig20" => eval_fig20(dir),
            "fig21" => eval_fig21(dir),
            other => unreachable!("figure {other} validated against FIGURES"),
        });
    }
    Ok(CalibReport {
        figures: ordered,
        checks,
    })
}

/// Evaluates every figure in [`FIGURES`].
///
/// # Errors
///
/// See [`evaluate`].
pub fn evaluate_all(dir: &Path) -> Result<CalibReport, String> {
    evaluate(dir, FIGURES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_check_id_is_unique_and_prefixed_by_its_figure() {
        for (i, c) in CHECKS.iter().enumerate() {
            assert!(
                c.id.starts_with(&format!("{}.", c.figure)),
                "{} not prefixed by {}",
                c.id,
                c.figure
            );
            assert!(FIGURES.contains(&c.figure), "{} has unknown figure", c.id);
            assert!(
                !CHECKS[..i].iter().any(|p| p.id == c.id),
                "duplicate check id {}",
                c.id
            );
            if let Some(hi) = c.hi {
                assert!(c.lo <= hi, "{}: lo > hi", c.id);
            }
            if let Some(paper) = c.paper {
                // A paper value outside its own band would make the
                // table self-contradictory. (Trend margins with paper
                // values use the band to encode the reproduction's
                // looser floor, so only bands are pinned.)
                if matches!(c.kind, Kind::Band) {
                    assert!(
                        paper >= c.lo / 2.0 && c.hi.is_none_or(|h| paper <= h * 2.0),
                        "{}: paper value {paper} wildly outside band",
                        c.id
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_figure_is_rejected() {
        let err = evaluate(Path::new("/nonexistent"), &["fig99"]).unwrap_err();
        assert!(err.contains("fig99"));
    }

    #[test]
    fn missing_inputs_fail_rather_than_pass() {
        let dir = std::env::temp_dir().join(format!("tracegc-calib-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = evaluate(&dir, &["fig15"]).unwrap();
        assert!(!report.passed());
        assert!(
            report.checks.iter().all(|c| c.status == Status::Fail),
            "{report:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let report = CalibReport {
            figures: vec!["fig15"],
            checks: vec![CheckResult {
                id: "fig15.mark_speedup_geomean",
                figure: "fig15",
                description: "d",
                paper: Some(4.2),
                lo: 3.0,
                hi: Some(8.4),
                measured: Some(6.92),
                status: Status::Pass,
                reason: None,
            }],
        };
        let json_text = report.to_json();
        crate::json::parse(&json_text).unwrap();
        assert_eq!(json_text, report.to_json());
        assert!(json_text.contains("\"schema\": \"tracegc-calib-v1\""));
        assert!(json_text.contains("\"pass\": true"));
        assert!(report.passed());
    }

    #[test]
    fn out_of_band_measurement_fails() {
        let r = resolve(
            "fig15.mark_speedup_geomean",
            &Ok(CALIBRATED_SCALE),
            Measured::Value(100.0),
        );
        assert_eq!(r.status, Status::Fail);
        assert!(r.reason.unwrap().contains("outside"));
        let r = resolve(
            "fig15.mark_speedup_geomean",
            &Ok(CALIBRATED_SCALE),
            Measured::Value(4.2),
        );
        assert_eq!(r.status, Status::Pass);
    }

    #[test]
    fn band_checks_skip_off_scale_but_trends_do_not() {
        let band = resolve(
            "fig15.mark_speedup_geomean",
            &Ok(0.015),
            Measured::Value(4.2),
        );
        assert_eq!(band.status, Status::Skipped);
        let trend = resolve(
            "fig15.unit_wins_every_bench",
            &Ok(0.015),
            Measured::Value(2.0),
        );
        assert_eq!(trend.status, Status::Pass);
        // A band check with no readable scale is a failure, not a skip.
        let noscale = resolve(
            "fig15.mark_speedup_geomean",
            &Err("missing sidecar".into()),
            Measured::Value(4.2),
        );
        assert_eq!(noscale.status, Status::Fail);
    }

    #[test]
    fn csv_split_honours_quotes() {
        assert_eq!(split_csv_line(r#"a,"b,c",d"#), vec!["a", "b,c", "d"]);
        assert_eq!(
            split_csv_line(r#""say ""hi""",x"#),
            vec![r#"say "hi""#, "x"]
        );
        assert_eq!(parse_num("6.92x"), Some(6.92));
        assert_eq!(parse_num("59%"), Some(59.0));
        assert_eq!(parse_num("-"), None);
    }

    #[test]
    fn helpers() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert_eq!(min_consecutive_rise(&[1.0, 3.0, 4.0]), Some(1.0));
        assert_eq!(min_consecutive_rise(&[1.0]), None);
    }
}
