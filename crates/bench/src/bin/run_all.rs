//! Runs the full experiment suite — every table and figure — by
//! invoking the sibling experiment binaries. CSVs land in
//! `EXPERIMENTS-data/`.
//!
//! The binaries fan out across worker threads via the deterministic
//! parallel campaign driver ([`mopac_sim::ParallelCampaign`]): each
//! binary's output is captured and replayed on stdout in presentation
//! order, so the console log reads exactly like the old sequential
//! runner while the wall-clock time is bounded by the slowest
//! experiment, not the sum.
//!
//! Budget knobs: `MOPAC_INSTRS` (per-core instructions, default 250k),
//! `MOPAC_ATTACK_CYCLES`, `MOPAC_WORKLOADS` (comma list to restrict the
//! sweeps), `MOPAC_THREADS` (worker threads; unset or 0: available
//! parallelism), `MOPAC_RUN_ALL_TIMEOUT_SECS` (per-binary budget,
//! default 3600).

use mopac_bench::{thread_budget, u64_knob};
use mopac_sim::campaign::ParallelCampaign;
use mopac_sim::runner::{IsolatedRunner, RunReport};
use mopac_types::error::MopacError;
use std::process::Command;
use std::time::{Duration, Instant};

/// Experiment binaries in presentation order: analytical first
/// (seconds), then simulations (minutes).
const EXPERIMENTS: &[&str] = &[
    "table1_timings",
    "table2_moat_ath",
    "fig4_conflict_latency",
    "table5_epsilon",
    "table6_pe1",
    "table7_mopac_c_params",
    "table8_mopac_d_params",
    "table11_nup_params",
    "table13_related",
    "table14_rowpress_params",
    "alpha_monte_carlo",
    "table9_attack_mopac_c",
    "table10_attack_mopac_d",
    "table4_workloads",
    "fig2_prac_slowdown",
    "fig9_mopac_c",
    "fig11_mopac_d",
    "fig12_drain_sensitivity",
    "fig13_srq_sensitivity",
    "fig17_nup",
    "table12_srq_insertions",
    "fig18_rowpress",
    "fig19_chips",
    "table15_closure",
    "fig1d_headline",
    "attack_suite",
    "bench_mitigations",
];

/// Captured run of one experiment binary.
struct ExperimentRun {
    success: bool,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    secs: f32,
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let timeout = u64_knob("MOPAC_RUN_ALL_TIMEOUT_SECS", 3600).unwrap_or_else(|e| panic!("{e}"));
    let threads = thread_budget().unwrap_or_else(|e| panic!("{e}"));
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir").to_path_buf();
    let started = Instant::now();
    let mut failures = Vec::new();
    let campaign = ParallelCampaign::new(0)
        .with_runner(IsolatedRunner::with_timeout(Duration::from_secs(timeout)))
        .with_threads(threads);
    println!(
        "== run_all: {} experiments across {} worker threads ==",
        EXPERIMENTS.len(),
        campaign.threads()
    );
    campaign.run(
        EXPERIMENTS,
        |name| (*name).to_string(),
        move |name, _seed, _attempt| {
            let exe = dir.join(name);
            if !exe.exists() {
                return Err(MopacError::config(format!(
                    "binary not found at {}",
                    exe.display()
                )));
            }
            let t0 = Instant::now();
            let out = Command::new(&exe).output().map_err(|e| {
                MopacError::internal(format!("{name} failed to launch: {e}"))
            })?;
            Ok(ExperimentRun {
                success: out.status.success(),
                stdout: out.stdout,
                stderr: out.stderr,
                secs: t0.elapsed().as_secs_f32(),
            })
        },
        |idx, report: RunReport<ExperimentRun>| {
            let name = EXPERIMENTS[idx];
            println!("\n########## {name} ##########");
            match (report.value, report.error) {
                (Some(run), _) => {
                    print!("{}", String::from_utf8_lossy(&run.stdout));
                    eprint!("{}", String::from_utf8_lossy(&run.stderr));
                    if run.success {
                        println!("({name} finished in {:.1}s)", run.secs);
                    } else {
                        eprintln!("!! {name} exited with failure");
                        failures.push(name);
                    }
                }
                (None, err) => {
                    eprintln!(
                        "!! {name}: {}",
                        err.map_or_else(|| "no outcome".to_string(), |e| e.to_string())
                    );
                    failures.push(name);
                }
            }
        },
    );
    println!(
        "\n== run_all complete in {:.1} min; {} experiments, {} failures ==",
        started.elapsed().as_secs_f32() / 60.0,
        EXPERIMENTS.len(),
        failures.len()
    );
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
