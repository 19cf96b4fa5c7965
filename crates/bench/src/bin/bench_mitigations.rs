//! Per-engine performance snapshot: slowdown versus the unmitigated
//! baseline for every registered mitigation engine, on a small
//! workload set, plus a recovery-isolation probe: blocked-bank cycles
//! under a fixed ALERT-pressure attack (sub-channel-scope engines
//! stall every bank per recovery; bank-scope `practical` only the
//! alerting one).
//!
//! Results print as a table and land in workspace-root
//! `BENCH_mitigations.json` (keyed `<engine>` with per-workload and
//! mean slowdowns plus `blocked_bank_cycles`) for the CI trend line,
//! alongside `BENCH_kernel.json`. Budget knobs: `MOPAC_INSTRS`,
//! `MOPAC_WORKLOADS` (defaults to a representative low/high-MPKI
//! pair); the attack probe uses a fixed budget so the committed JSON
//! stays reproducible.

use mopac::config::MitigationConfig;
use mopac::EngineRegistry;
use mopac_bench::{instr_budget, pct, workload_filter, Report};
use mopac_sim::attack::{run_attack_instrumented, AttackConfig};
use mopac_sim::experiment::run_workload;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::obs::SinkConfig;
use mopac_workloads::attack::DoubleSidedHammer;
use std::fmt::Write as _;

/// Cycle budget for the ALERT-pressure probe. Deliberately not tied to
/// `MOPAC_ATTACK_CYCLES`: the committed `BENCH_mitigations.json` is
/// diff-checked by ci.sh, so this number must be identical everywhere.
const ABO_PRESSURE_CYCLES: u64 = 250_000;

/// Runs a double-sided hammer against one bank and reports how many
/// bank-cycles recovery blocking cost: each recovery stall multiplied
/// by the number of banks it froze. A bank-scope engine freezes only
/// the alerting bank, so this is where PRACtical's isolation shows.
fn blocked_bank_cycles(mitigation: MitigationConfig) -> u64 {
    let mut cfg = AttackConfig::new(mitigation, ABO_PRESSURE_CYCLES);
    cfg.geometry = DramGeometry::tiny();
    let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let (res, snap) = run_attack_instrumented(&cfg, &mut pattern, SinkConfig::default())
        .expect("blocked-bank probe");
    assert_eq!(res.violations, 0, "probe run must stay oracle-clean");
    snap.counter("dram.blocked_bank_cycles").unwrap_or(0)
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let instrs = instr_budget().unwrap_or_else(|e| panic!("{e}"));
    let workloads =
        workload_filter().unwrap_or_else(|| vec!["xz".to_string(), "cam4".to_string()]);
    let registry = EngineRegistry::builtin();
    let engines: Vec<_> = registry.specs().iter().filter(|s| s.tracks()).collect();

    let mut headers: Vec<&str> = vec!["engine"];
    for w in &workloads {
        headers.push(w.as_str());
    }
    headers.push("mean");
    headers.push("blocked bank-cycles @attack");
    let mut r = Report::new(
        "bench_mitigations",
        "Slowdown vs baseline per registered engine",
        &headers,
    );

    let baselines: Vec<_> = workloads
        .iter()
        .map(|w| {
            run_workload(w, MitigationConfig::baseline(), instrs).expect("baseline run")
        })
        .collect();

    let mut json = String::from("{\n");
    for (ei, spec) in engines.iter().enumerate() {
        let cfg = (spec.preset)(500);
        let mut cells = vec![spec.name.to_string()];
        let mut entries = Vec::new();
        let mut sum = 0.0f64;
        for (w, base) in workloads.iter().zip(&baselines) {
            let run = run_workload(w, cfg, instrs).expect("workload run");
            let s = run.slowdown_vs(base);
            sum += s;
            cells.push(pct(s));
            entries.push(format!("\"{w}\": {s:.6}"));
        }
        let mean = sum / workloads.len() as f64;
        cells.push(pct(mean));
        entries.push(format!("\"mean\": {mean:.6}"));
        let blocked = blocked_bank_cycles(cfg);
        cells.push(blocked.to_string());
        entries.push(format!("\"blocked_bank_cycles\": {blocked}"));
        r.row(&cells);
        let _ = write!(json, "  \"{}\": {{{}}}", spec.name, entries.join(", "));
        json.push_str(if ei + 1 < engines.len() { ",\n" } else { "\n" });
        eprintln!("  done {}", spec.name);
    }
    json.push_str("}\n");
    r.emit();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(
            || std::path::PathBuf::from("BENCH_mitigations.json"),
            |root| root.join("BENCH_mitigations.json"),
        );
    mopac_types::persist::atomic_write_str(&path, &json).expect("write BENCH_mitigations.json");
    println!("wrote {}", path.display());
}
