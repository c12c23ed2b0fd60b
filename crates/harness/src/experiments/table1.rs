//! Table I: the RocketChip/memory configuration the experiments model.

use tracegc_cpu::CpuConfig;
use tracegc_mem::ddr3::Ddr3Config;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::table::Table;

/// Prints the modelled SoC configuration (paper Table I).
pub fn run(_opts: &Options) -> ExperimentOutput {
    let cpu = CpuConfig::default();
    let ddr = Ddr3Config::default();

    let mut proc = Table::new(
        "Processor Design (Rocket In-Order CPU @ 1 GHz)",
        &["parameter", "value"],
    );
    proc.row(vec![
        "ITLB/DTLB reach".into(),
        format!(
            "{} KiB ({} entries each)",
            cpu.tlb.l1_entries * 4,
            cpu.tlb.l1_entries
        ),
    ]);
    proc.row(vec![
        "L1 caches".into(),
        format!(
            "{} KiB DCache ({}-way), {}-cycle hits",
            cpu.l1d.size_bytes / 1024,
            cpu.l1d.ways,
            cpu.l1d.hit_latency
        ),
    ]);
    proc.row(vec![
        "L2 cache".into(),
        format!(
            "{} KiB ({}-way set-associative)",
            cpu.l2.size_bytes / 1024,
            cpu.l2.ways
        ),
    ]);

    let mut mem = Table::new("Memory Model (DDR3-2000)", &["parameter", "value"]);
    mem.row(vec![
        "Memory access scheduler".into(),
        format!(
            "{:?} ({}/{} req. in flight)",
            ddr.scheduler, ddr.max_reads, ddr.max_writes
        ),
    ]);
    mem.row(vec!["Page policy".into(), "Open".into()]);
    mem.row(vec![
        "DRAM latencies (ns)".into(),
        format!("{}-{}-{}-{}", ddr.t_cas, ddr.t_rcd, ddr.t_rp, ddr.t_ras),
    ]);
    mem.row(vec!["Banks".into(), format!("{}", ddr.banks)]);

    let mut metrics = MetricsDoc::new("table1");
    metrics.gauge("l1d_kib", cpu.l1d.size_bytes as f64 / 1024.0);
    metrics.gauge("l2_kib", cpu.l2.size_bytes as f64 / 1024.0);
    metrics.counter("ddr_banks", ddr.banks as u64);

    ExperimentOutput {
        id: "table1",
        title: "Table I: RocketChip configuration",
        tables: vec![proc, mem],
        metrics,
        trace: Vec::new(),
        notes: vec![
            "Matches the paper's Table I: 16 KiB L1s, 256 KiB 8-way L2, FR-FCFS \
             MAS with 16/8 outstanding requests, open-page policy, 14-14-14-47."
                .into(),
        ],
    }
}
