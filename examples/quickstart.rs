//! Quickstart: compare PRAC against MoPAC on one workload.
//!
//! ```text
//! cargo run --release -p mopac-sim --example quickstart [workload] [t_rh]
//! ```
//!
//! Builds the paper's 8-core DDR5 system, runs the chosen workload
//! (default `xz`) under the unprotected baseline, PRAC+MOAT, MoPAC-C and
//! MoPAC-D at the chosen Rowhammer threshold (default 500), and prints
//! the derived security parameters and measured slowdowns.

use mopac::config::MitigationConfig;
use mopac_analysis::params::{mopac_c_params, mopac_d_params};
use mopac_sim::experiment::run_workload;

fn main() {
    mopac_types::knob::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "xz".to_string());
    let t_rh: u64 = args
        .next()
        .map(|v| v.parse().expect("t_rh must be an integer"))
        .unwrap_or(500);
    let instrs = 150_000;

    let pc = mopac_c_params(t_rh);
    let pd = mopac_d_params(t_rh);
    println!("MoPAC parameters for T_RH = {t_rh}:");
    println!(
        "  MoPAC-C: p = 1/{}, C = {}, ATH* = {}",
        pc.update_prob_denominator, pc.critical_updates, pc.ath_star
    );
    println!(
        "  MoPAC-D: p = 1/{}, C = {}, ATH* = {}, TTH = {}, drain-on-REF = {}",
        pd.update_prob_denominator, pd.critical_updates, pd.ath_star, pd.tth, pd.drain_on_ref
    );

    println!("\nSimulating '{workload}' ({instrs} instructions/core, 8 cores)...");
    let base = run_workload(&workload, MitigationConfig::baseline(), instrs).unwrap();
    for (name, cfg) in [
        ("PRAC+MOAT", MitigationConfig::prac(t_rh)),
        ("MoPAC-C", MitigationConfig::mopac_c(t_rh)),
        ("MoPAC-D", MitigationConfig::mopac_d(t_rh)),
        ("MoPAC-D+NUP", MitigationConfig::mopac_d_nup(t_rh)),
    ] {
        let run = run_workload(&workload, cfg, instrs).unwrap();
        println!(
            "  {name:12} slowdown {:+5.1}%   (ALERTs {}, mitigations {}, counter-updates {})",
            run.slowdown_vs(&base) * 100.0,
            run.dram.alerts(),
            run.dram.mitigations,
            run.mitigation.counter_updates,
        );
    }
    println!(
        "\nBaseline: {} cycles, row-buffer hit rate {:.2}, avg read latency {:.0} cycles",
        base.cycles,
        base.rbhr(),
        base.avg_read_latency
    );
}
