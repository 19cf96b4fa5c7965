//! Observability export: run one Table-4 workload and one attack
//! pattern with the metrics sink enabled and dump everything the sink
//! recorded — registry counters, gauges, latency histograms with
//! percentiles, and the protocol trace ring — as JSONL and CSV under
//! `EXPERIMENTS-data/`.
//!
//! Outputs per scenario (`metrics_<scenario>`):
//! - `metrics_<scenario>.jsonl` — counters, gauges, histograms, events.
//! - `metrics_<scenario>_hist.csv` — one row per labeled histogram
//!   (read latency, inter-ACT gap, ABO service time, SRQ occupancy,
//!   row open time) with count/min/max/mean/p50/p95/p99.
//! - `metrics_<scenario>_trace.csv` — the trace ring, oldest first.
//!
//! Knobs: `MOPAC_INSTRS` (workload budget), `MOPAC_ATTACK_CYCLES`,
//! `MOPAC_WORKLOADS` (first entry picks the workload; default `xz`),
//! `MOPAC_TRACE_CAPACITY` (ring size, default 65536).

use mopac::config::MitigationConfig;
use mopac_bench::{attack_cycle_budget, data_dir, instr_budget, u64_knob, workload_filter, Report};
use mopac_sim::attack::{run_attack_instrumented, AttackConfig};
use mopac_sim::experiment::build_traces;
use mopac_sim::system::{System, SystemConfig};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::obs::{MetricsSnapshot, SinkConfig, TraceRing};
use mopac_types::{MopacError, MopacResult};
use mopac_workloads::attack::DoubleSidedHammer;

fn sink_config() -> MopacResult<SinkConfig> {
    let mut cfg = SinkConfig::default();
    let cap = u64_knob("MOPAC_TRACE_CAPACITY", cfg.trace_capacity as u64)?;
    cfg.trace_capacity = usize::try_from(cap).map_err(|_| {
        MopacError::config(format!("MOPAC_TRACE_CAPACITY={cap} does not fit in usize"))
    })?;
    Ok(cfg)
}

/// Writes the three export files for one scenario and summarizes the
/// histograms into the combined report.
fn dump(scenario: &str, snapshot: &MetricsSnapshot, table: &mut Report) {
    let dir = data_dir();
    std::fs::create_dir_all(&dir).expect("create data dir");
    let jsonl = dir.join(format!("metrics_{scenario}.jsonl"));
    mopac_types::persist::atomic_write_str(&jsonl, &snapshot.to_jsonl()).expect("write jsonl");
    let hist_csv = dir.join(format!("metrics_{scenario}_hist.csv"));
    mopac_types::persist::atomic_write_str(&hist_csv, &snapshot.hists_to_csv()).expect("write hist csv");
    let trace_csv = dir.join(format!("metrics_{scenario}_trace.csv"));
    let mut trace = String::from(TraceRing::CSV_HEADER);
    trace.push('\n');
    for e in &snapshot.events {
        trace.push_str(&e.to_csv_row());
        trace.push('\n');
    }
    mopac_types::persist::atomic_write_str(&trace_csv, &trace).expect("write trace csv");
    for h in &snapshot.hists {
        table.row(&[
            scenario.to_string(),
            h.name.to_string(),
            h.label.to_string(),
            h.count.to_string(),
            format!("{:.1}", h.mean),
            h.p50.to_string(),
            h.p95.to_string(),
            h.p99.to_string(),
        ]);
    }
    eprintln!(
        "  {scenario}: {} events ({} dropped), {} histograms -> {}",
        snapshot.events.len(),
        snapshot.counter("trace.events_dropped").unwrap_or(0),
        snapshot.hists.len(),
        jsonl.display()
    );
}

fn main() {
    let sink_cfg = sink_config().unwrap_or_else(|e| panic!("{e}"));
    let mut table = Report::new(
        "metrics_dump",
        "Observability export: histogram summaries per scenario",
        &["scenario", "hist", "label", "count", "mean", "p50", "p95", "p99"],
    );

    // Scenario 1: a Table-4 workload under MoPAC-d on the full-system
    // simulator.
    let workload = workload_filter()
        .and_then(|v| v.into_iter().next())
        .unwrap_or_else(|| "xz".to_string());
    let mut cfg = SystemConfig::paper_default(
        MitigationConfig::mopac_d(500),
        instr_budget().unwrap_or_else(|e| panic!("{e}")),
    );
    cfg.metrics = Some(sink_cfg);
    let traces = build_traces(&workload, &cfg).expect("build workload traces");
    let (run, snapshot) = System::new(cfg, traces)
        .expect("build system")
        .run_with_metrics()
        .expect("workload run");
    let snapshot = snapshot.expect("metrics were enabled");
    eprintln!(
        "workload {workload}: {} cycles, avg read latency {:.1}",
        run.cycles, run.avg_read_latency
    );
    dump(&workload, &snapshot, &mut table);

    // Scenario 2: a double-sided hammer against MoPAC-d on the tiny
    // geometry (ALERT/RFM activity shows up in the ABO service-time
    // histogram and the trace ring).
    let attack_cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(
            MitigationConfig::mopac_d(500),
            attack_cycle_budget().unwrap_or_else(|e| panic!("{e}")),
        )
    };
    let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let (attack, attack_snapshot) =
        run_attack_instrumented(&attack_cfg, &mut pattern, sink_cfg).expect("attack run");
    eprintln!(
        "attack double-sided: {} ACTs, {} alerts, {} violations",
        attack.activations,
        attack.dram.alerts(),
        attack.violations
    );
    dump("attack_double_sided", &attack_snapshot, &mut table);

    table.emit();
}
