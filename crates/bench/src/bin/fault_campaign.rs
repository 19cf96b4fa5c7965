//! Fault-injection campaign: sweep a matrix of injected fault kinds
//! against the mitigations under test and report graceful degradation.
//!
//! The cell matrix and row schema live in [`mopac_sim::campaign`]; this
//! binary wires them to the deterministic parallel driver
//! ([`mopac_sim::ParallelCampaign`]): cells fan out across worker
//! threads, each inside the panic-isolated `IsolatedRunner` (wall-clock
//! timeout, livelock watchdog, one retry with a bumped seed), and rows
//! commit to `EXPERIMENTS-data/fault_campaign.csv` *incrementally in
//! submission order* — one flushed row per finished cell — so a crash
//! mid-campaign loses nothing that already ran, and the CSV bytes are
//! identical at any thread count.
//!
//! Knobs:
//! - `MOPAC_FAULT_INSTRS`: per-core instructions per cell (default 40k).
//! - `MOPAC_FAULT_TIMEOUT_SECS`: per-attempt wall-clock budget (default 300).
//! - `MOPAC_THREADS`: worker threads (unset or 0: available parallelism).
//!
//! At the defaults the output is pinned: `ci.sh` reruns the campaign
//! and diff-checks the committed `EXPERIMENTS-data/fault_campaign.csv`.

use mopac_bench::{thread_budget, u64_knob, IncrementalCsv, Report};
use mopac_sim::campaign::{
    fault_cells, run_fault_campaign, FaultCampaignSpec, FAULT_CAMPAIGN_HEADERS,
};
use mopac_sim::runner::RunStatus;
use mopac_types::MopacResult;
use std::time::Duration;

fn spec_from_env() -> MopacResult<FaultCampaignSpec> {
    let mut spec = FaultCampaignSpec::default();
    spec.instrs = u64_knob("MOPAC_FAULT_INSTRS", spec.instrs)?;
    let secs = u64_knob("MOPAC_FAULT_TIMEOUT_SECS", spec.timeout.as_secs())?;
    spec.timeout = Duration::from_secs(secs);
    spec.threads = thread_budget()?;
    Ok(spec)
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut csv = IncrementalCsv::create("fault_campaign", &FAULT_CAMPAIGN_HEADERS)
        .expect("create fault_campaign.csv");
    let mut table = Report::new(
        "fault_campaign_summary",
        "Fault-injection campaign: graceful degradation per (mitigation x fault)",
        &FAULT_CAMPAIGN_HEADERS,
    );
    let spec = spec_from_env().unwrap_or_else(|e| panic!("{e}"));
    let mut escapes = 0u64;
    let mut not_done = 0u64;
    let sink = |outcome: mopac_sim::FaultCellOutcome| {
        if outcome.status != RunStatus::Done {
            not_done += 1;
        }
        escapes += outcome.violations;
        csv.append(&outcome.row).expect("append campaign row");
        table.row(&outcome.row);
        eprintln!("  [{}] {}", outcome.row[2], outcome.label);
    };
    run_fault_campaign(&spec, sink);
    println!("{}", table.to_table());
    println!(
        "campaign complete: {} cells, {} not-done, {} oracle escapes; rows persisted to {}",
        fault_cells().len(),
        not_done,
        escapes,
        csv.path().display()
    );
}
