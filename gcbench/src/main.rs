//! The tracegc benchmark: four fixed GC workloads, host-speed metrics
//! from an untraced run, and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path gcbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check exits with code 1. See README.md for the workloads, metrics
//! and layers.
//!
//! Host speed shifts by several percent from one process to the next
//! (address-space layout, hash seeds), so a run measures in
//! [`PROCESSES`] child processes one after another, each with an equal
//! share of the time, and reports the median of their results; `cpu_s`
//! is built from the fastest laps of the timed section in any child
//! (see [`fastest_laps`]). Host times are process CPU time.

mod kernels;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use spans::{self_seconds_by_name, Tracer};
use tracegc_sim::sched::{set_default_exec, set_default_pacing, Exec, Pacing};
use workloads::{Repeat, Workload};

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units. A layer that does not
/// run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("wall_s", "s"),
    ("workloads.gen_s", "s"),
    ("workloads.objects_per_s", "objects/s"),
    ("workloads.objects_allocated", "count"),
    ("workloads.self_s", "s"),
    ("heap.oracle_s", "s"),
    ("heap.resident_mb", "MB"),
    ("heap.self_s", "s"),
    ("cpu.mark_s", "s"),
    ("cpu.sweep_s", "s"),
    ("cpu.fallback_s", "s"),
    ("cpu.self_s", "s"),
    ("cpu.mark_cycles", "cycles"),
    ("cpu.sweep_cycles", "cycles"),
    ("cpu.stall_frac", "fraction"),
    ("cpu.l1_hit_rate", "fraction"),
    ("hwgc.mark_s", "s"),
    ("hwgc.sweep_s", "s"),
    ("hwgc.self_s", "s"),
    ("hwgc.mark_cycles", "cycles"),
    ("hwgc.sweep_cycles", "cycles"),
    ("hwgc.stall_frac", "fraction"),
    ("hwgc.port_busy_frac", "fraction"),
    ("hwgc.markq.spill_bytes", "bytes"),
    ("hwgc.markq.peak_occupancy", "entries"),
    ("hwgc.markbit.filter_rate", "fraction"),
    ("hwgc.traps", "count"),
    ("hwgc.fallback_cycles", "cycles"),
    ("hwgc.markq.ns_per_op", "ns"),
    ("vmem.l1_hit_rate", "fraction"),
    ("vmem.walks", "count"),
    ("vmem.walker_wait_cycles", "cycles"),
    ("vmem.ns_per_translate", "ns"),
    ("mem.requests", "count"),
    ("mem.bytes", "bytes"),
    ("mem.row_hit_rate", "fraction"),
    ("mem.avg_gbps", "GB/s"),
    ("mem.ns_per_req", "ns"),
    ("mem.self_s", "s"),
    ("sim.sched_s", "s"),
    ("sim.sched.cycles_per_s", "cycles/s"),
    ("sim.fleet_s", "s"),
    ("sim.fleet.utilization", "fraction"),
    ("sim.fleet.rejected_frac", "fraction"),
    ("sim.self_s", "s"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_s", "s"),
    ("ops_failed_frac", "fraction"),
    ("degraded_frac", "fraction"),
    ("slo_violation_frac", "fraction"),
    ("mark_err", "fraction"),
    ("sweep_err", "fraction"),
    ("mark_err.heldout", "fraction"),
    ("sweep_err.heldout", "fraction"),
];

/// The seed the DaCapo specs were calibrated at (spec seeds unchanged).
pub const DEFAULT_SEED: u64 = 0;
/// The seed claims are checked on: `mark_err.heldout` and
/// `sweep_err.heldout` are measured here on every traced `pause-pair` run.
pub const HELDOUT_SEED: u64 = 0x5EED_0BAD;

/// Prefix of the lap times an untraced child reports (see
/// [`fastest_laps`]); the parent sums them into `cpu_s`.
const LAP: &str = "lap.";
/// Simulated cycles of the timed section, reported by an untraced child;
/// the parent turns them into `sim_cycles_per_s`.
const SIM_CYCLES: &str = "sim_cycles";

/// Child processes a run measures in.
const PROCESSES: usize = 5;
/// Untraced (and, in a traced run, traced) repeats every child makes at
/// least, however long they take.
const MIN_REPEATS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: its index.
    child: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::PausePair,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        child: None,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&v).ok_or_else(bad)?),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--child" => a.child = Some(v.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything one run measured, checked across its repeats.
struct Run {
    untraced: Vec<Repeat>,
    traced: Vec<(Repeat, Tracer)>,
}

impl Run {
    fn all(&self) -> impl Iterator<Item = &Repeat> {
        self.untraced
            .iter()
            .chain(self.traced.iter().map(|(r, _)| r))
    }

    /// Every repeat simulated the same thing: identical digests.
    fn check_deterministic(&self) -> Result<(), String> {
        let mut it = self.all();
        let first = it.next().expect("at least one repeat");
        let d = first.stats.digest();
        match it.find(|r| r.stats.digest() != d) {
            Some(r) => Err(format!(
                "simulated statistics differ between repeats:\n{:?}\n{:?}",
                first.stats, r.stats
            )),
            None => Ok(()),
        }
    }
}

/// Runs repeats until `budget` is spent (at least [`MIN_REPEATS`]);
/// a traced run alternates untraced and traced repeats.
fn measure(a: &Args, budget: Duration) -> Result<Run, String> {
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let start = Instant::now();
    let mut n = 0;
    loop {
        let traced = a.trace && n % 2 == 1;
        let mut t = Tracer::new(traced);
        let r = a.workload.run(a.seed, 1.0, &mut t)?;
        if traced {
            run.traced.push((r, t));
        } else {
            run.untraced.push(r);
        }
        n += 1;
        let per = start.elapsed() / n as u32;
        let min = if a.trace {
            2 * MIN_REPEATS
        } else {
            MIN_REPEATS
        };
        if n >= min && start.elapsed() + per > budget {
            return Ok(run);
        }
    }
}

/// Each lap's fastest CPU time among the untraced repeats.
///
/// Other tenants of a shared host slow this process down by up to 2x, in
/// bursts of a few seconds, and only ever add time. A lap is one or a few
/// collections, far shorter than a burst, so over a run's repeats nearly
/// every lap runs at least once outside one: the sum of the fastest laps
/// varies far less from run to run than a median of whole repeats does.
fn fastest_laps(run: &Run) -> Result<Vec<f64>, String> {
    let laps = run.untraced[0].timed.laps.len();
    if run.untraced.iter().any(|r| r.timed.laps.len() != laps) {
        return Err("repeats split the timed section into different laps".into());
    }
    Ok((0..laps)
        .map(|j| {
            run.untraced
                .iter()
                .map(|r| r.timed.laps[j])
                .fold(f64::INFINITY, f64::min)
        })
        .collect())
}

/// What an untraced child reports: `setup_s` and `peak_rss_mb`, and the
/// parts the parent derives `cpu_s` and `sim_cycles_per_s` from.
fn end_to_end(run: &Run) -> Result<BTreeMap<String, f64>, String> {
    let setup = median(run.untraced.iter().map(|r| r.setup.cpu_s()).collect());
    let mut m = BTreeMap::from([
        ("setup_s".to_string(), setup),
        ("peak_rss_mb".to_string(), peak_rss_mb()?),
        (
            SIM_CYCLES.to_string(),
            run.untraced[0].stats.sim_cycles as f64,
        ),
    ]);
    for (j, lap) in fastest_laps(run)?.into_iter().enumerate() {
        m.insert(format!("{LAP}{j}"), lap);
    }
    Ok(m)
}

fn per_layer(a: &Args, run: &Run) -> Result<BTreeMap<String, f64>, String> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in run.untraced[0].stats.metrics() {
        m.insert(k.to_string(), v);
    }
    // Host-time self times: the median over traced repeats, per name.
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (_, t) in &run.traced {
        for (k, v) in self_seconds_by_name(t.spans()) {
            samples.entry(k).or_default().push(v);
        }
    }
    let traced = run.traced.len();
    let self_s = |name: &str| -> f64 {
        samples.get(name).map_or(0.0, |v| {
            let mut v = v.clone();
            v.resize(traced, 0.0);
            median(v)
        })
    };
    let sum = |names: &[&str]| names.iter().map(|n| self_s(n)).sum::<f64>();
    let gen_s = sum(&[
        "workloads.generate_heap",
        "workloads.generate_streamed",
        "workloads.churn",
    ]);
    let st = &run.untraced[0].stats;
    let sched_s = self_s("sim.sched");
    let cpu = median(run.untraced.iter().map(|r| r.timed.cpu_s()).collect());
    let traced_cpu = median(run.traced.iter().map(|(r, _)| r.timed.cpu_s()).collect());
    for (k, v) in [
        (
            "wall_s",
            median(run.untraced.iter().map(|r| r.timed.wall_s).collect()),
        ),
        ("workloads.gen_s", gen_s),
        (
            "workloads.objects_per_s",
            if gen_s > 0.0 {
                st.objects_allocated as f64 / gen_s
            } else {
                0.0
            },
        ),
        ("heap.oracle_s", self_s("heap.oracle")),
        ("cpu.mark_s", self_s("cpu.mark")),
        ("cpu.sweep_s", self_s("cpu.sweep")),
        ("cpu.fallback_s", self_s("cpu.fallback")),
        ("hwgc.mark_s", self_s("hwgc.mark")),
        ("hwgc.sweep_s", self_s("hwgc.sweep")),
        ("sim.sched_s", sched_s),
        (
            "sim.sched.cycles_per_s",
            if sched_s > 0.0 {
                st.sched_cycles as f64 / sched_s
            } else {
                0.0
            },
        ),
        ("sim.fleet_s", self_s("sim.fleet")),
        ("bench.trace_overhead_frac", (traced_cpu - cpu) / cpu),
        ("bench.unattributed_s", self_s("bench.collect")),
    ] {
        m.insert(k.to_string(), v);
    }
    for layer in ["workloads", "heap", "cpu", "hwgc", "mem", "sim"] {
        let k = format!("{layer}.self_s");
        m.insert(k.clone(), self_s(&k));
    }

    // Kernels, each under its own span in a tracer of their own.
    let mut kt = Tracer::new(true);
    kt.enter("bench.kernels");
    m.insert(
        "mem.ns_per_req".into(),
        kernels::mem_ns_per_req(&mut kt, a.seed, 400_000),
    );
    m.insert(
        "vmem.ns_per_translate".into(),
        kernels::vmem_ns_per_translate(&mut kt, a.seed, 400_000)?,
    );
    m.insert(
        "hwgc.markq.ns_per_op".into(),
        kernels::markq_ns_per_op(&mut kt, a.seed, 40)?,
    );
    kt.exit();

    if a.workload == Workload::PausePair && a.child == Some(0) {
        let held = Workload::PausePair.run(HELDOUT_SEED, 1.0, &mut Tracer::new(false))?;
        for (k, v) in held.stats.gauges {
            m.insert(format!("{k}.heldout"), v);
        }
    }

    write_spans(a, run, &kt);
    Ok(PER_LAYER
        .iter()
        .filter_map(|(name, _)| m.get(*name).map(|v| (name.to_string(), *v)))
        .collect())
}

/// Writes every recorded span as JSON lines under `gcbench/out/`.
fn write_spans(a: &Args, run: &Run, kernels: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = a.workload.name();
    let mut text = String::new();
    for (i, (_, t)) in run.traced.iter().enumerate() {
        text.push_str(&t.to_jsonl(name, i));
    }
    text.push_str(&kernels.to_jsonl(name, run.traced.len()));
    let path = dir.join(format!("{name}.{}.spans.jsonl", a.child.unwrap_or(0)));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn result_json(correct: bool, attempted: u64, failed: u64, m: &BTreeMap<String, f64>) -> String {
    let metrics: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(k)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics) = match a.child {
        Some(i) => child(&a, i),
        None => parent(&a),
    };
    if a.child.is_none() {
        for (k, v) in &metrics {
            println!("{:<28} {v:>16.6} {}", k, unit_of(k));
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Outcome = (bool, u64, u64, BTreeMap<String, f64>);

/// One child's share of a run. Child 0 also runs the composition guard
/// and, on `pause-pair`, the held-out seed. The line before the result
/// carries the digest of the simulated statistics.
fn child(a: &Args, index: usize) -> Outcome {
    // One thread, fast-forward pacing, whatever the environment says.
    set_default_pacing(Pacing::FastForward);
    set_default_exec(Exec::Serial);

    let budget = Duration::from_secs_f64(a.seconds as f64 / PROCESSES as f64);
    let run = match measure(a, budget) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("gcbench: {}: output check failed: {e}", a.workload.name());
            return (false, 0, 0, BTreeMap::new());
        }
    };
    let metrics = if a.trace {
        per_layer(a, &run)
    } else {
        end_to_end(&run)
    };
    let guard = run.check_deterministic().and_then(|()| {
        if index > 0 {
            return Ok(());
        }
        let reference = a.workload.reference_first(a.seed, 1.0);
        let ours = &run.untraced[0].first;
        if *ours == reference {
            Ok(())
        } else {
            Err(format!(
                "first collection differs from the tracegc::runner function: {ours:?} vs {reference:?}"
            ))
        }
    });
    let attempted: u64 = run.all().map(|r| r.stats.collections).sum();
    let failed: u64 = run.all().map(|r| r.stats.failed).sum();
    println!("digest {:016x}", run.untraced[0].stats.digest());
    match (metrics, guard) {
        (Ok(m), Ok(())) => (true, attempted, failed, m),
        (m, g) => {
            for e in [m.as_ref().err(), g.as_ref().err()].into_iter().flatten() {
                eprintln!("gcbench: {}: {e}", a.workload.name());
            }
            (false, attempted, failed, m.unwrap_or_default())
        }
    }
}

/// Runs the children one after another and reports the median of each
/// metric over them. Every child must pass its checks and all must
/// report the same simulated statistics.
fn parent(a: &Args) -> Outcome {
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut digests = Vec::new();
    let mut reports = Vec::new();
    for i in 0..PROCESSES {
        match run_child(a, i) {
            Ok((digest, (ok, at, fa, m))) => {
                correct &= ok;
                attempted += at;
                failed += fa;
                digests.push(digest);
                reports.push(m);
            }
            Err(e) => {
                eprintln!("gcbench: {}: child {i}: {e}", a.workload.name());
                correct = false;
            }
        }
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        eprintln!(
            "gcbench: {}: children simulated different statistics",
            a.workload.name()
        );
        correct = false;
    }
    (correct, attempted, failed, merge(a.trace, reports))
}

/// The median of each metric over the children that reported it (only
/// child 0 measures the held-out seed). In a traced run, a per-layer
/// metric no child reported is a layer that does not run: 0. In an
/// untraced run, `cpu_s` is the sum over laps of each lap's fastest time
/// in any child, and `sim_cycles_per_s` the simulated cycles over it.
fn merge(trace: bool, reports: Vec<BTreeMap<String, f64>>) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cpu_s = 0.0;
    for (k, v) in reports.into_iter().flatten() {
        samples.entry(k).or_default().push(v);
    }
    let mut metrics = BTreeMap::new();
    for (k, v) in samples {
        if k.starts_with(LAP) {
            cpu_s += v.into_iter().fold(f64::INFINITY, f64::min);
        } else {
            metrics.insert(k, median(v));
        }
    }
    if trace {
        for (name, _) in PER_LAYER {
            metrics.entry(name.to_string()).or_insert(0.0);
        }
    } else if let Some(cycles) = metrics.remove(SIM_CYCLES) {
        metrics.insert("cpu_s".to_string(), cpu_s);
        metrics.insert("sim_cycles_per_s".to_string(), cycles / cpu_s);
    }
    metrics
}

fn run_child(a: &Args, index: usize) -> Result<(String, Outcome), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .args(["--child", &index.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or("no output")?;
    let digest = lines
        .next()
        .and_then(|l| l.strip_prefix("digest "))
        .ok_or("no digest line")?
        .to_string();
    let j = tracegc::json::parse(result)?;
    let num = |k: &str| j.get(k).and_then(|v| v.as_f64()).ok_or(format!("no {k}"));
    let correct = j.get("correct") == Some(&tracegc::json::Json::Bool(true));
    let mut metrics = BTreeMap::new();
    for (k, v) in j
        .get("metrics")
        .and_then(|m| m.members())
        .ok_or("no metrics")?
    {
        let value = v
            .get("value")
            .and_then(|v| v.as_f64())
            .ok_or(format!("bad {k}"))?;
        metrics.insert(k.clone(), value);
    }
    let ok = correct && out.status.success();
    Ok((
        digest,
        (ok, num("attempted")? as u64, num("failed")? as u64, metrics),
    ))
}

#[cfg(test)]
mod tests;
