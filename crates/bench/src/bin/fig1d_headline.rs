//! Figure 1(d): the headline — average slowdown of PRAC vs MoPAC as the
//! Rowhammer threshold scales from 4000 (near-term) to 125 (long-term).
//!
//! Paper: PRAC stays ~10% across the range; MoPAC grows from 0.2% at 4K
//! to ~1.5% at 500 and 2.5% at 250.

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, pct, workload_filter, Report};
use mopac_sim::experiment::run_workload;
use mopac_workloads::spec::all_names;

fn mean_slowdown(
    cfg: MitigationConfig,
    bases: &[(String, mopac_sim::RunResult)],
    instrs: u64,
) -> f64 {
    let mut total = 0.0;
    for (name, base) in bases {
        let run = run_workload(name, cfg, instrs).expect("workload run");
        total += run.slowdown_vs(base);
    }
    total / bases.len() as f64
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let instrs = instr_budget().unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<String> = workload_filter()
        .unwrap_or_else(|| all_names().iter().map(|s| (*s).to_string()).collect());
    // Baselines once per workload, shared across every threshold.
    let bases: Vec<(String, mopac_sim::RunResult)> = names
        .iter()
        .map(|n| {
            let b = run_workload(n, MitigationConfig::baseline(), instrs).expect("baseline run");
            (n.clone(), b)
        })
        .collect();
    let mut r = Report::new(
        "fig1d",
        "Mean slowdown vs T_RH (paper Fig 1d: PRAC ~10% flat; MoPAC 0.2% -> 2.5%)",
        &["T_RH", "PRAC", "MoPAC-C", "MoPAC-D"],
    );
    // PRAC's overhead is threshold-invariant; measure once.
    let prac = mean_slowdown(MitigationConfig::prac(500), &bases, instrs);
    eprintln!("PRAC mean: {}", pct(prac));
    for t in [4000u64, 2000, 1000, 500, 250, 125] {
        let c = mean_slowdown(MitigationConfig::mopac_c(t), &bases, instrs);
        let d = mean_slowdown(MitigationConfig::mopac_d(t), &bases, instrs);
        r.row(&[t.to_string(), pct(prac), pct(c), pct(d)]);
        eprintln!("done T_RH = {t}");
    }
    r.emit();
}
