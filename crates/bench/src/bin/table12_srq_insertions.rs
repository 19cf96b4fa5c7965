//! Table 12: SRQ insertions per 100 activations, MoPAC-D uniform vs NUP
//! (paper: 6.2 vs 3.1 at p=1/16; 12.5 vs 6.3 at 1/8; 25.0 vs 13.4 at
//! 1/4).

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, workload_filter, Report};
use mopac_sim::experiment::run_workload;
use mopac_workloads::spec::all_names;

/// SRQ insertions per 100 ACTs, per chip (stats sum over chips).
fn rate(cfg: MitigationConfig, names: &[String], instrs: u64) -> f64 {
    let mut insertions = 0u64;
    let mut acts = 0u64;
    for name in names {
        let run = run_workload(name, cfg, instrs).expect("workload run");
        insertions += run.mitigation.srq_insertions;
        acts += run.dram.activates;
        eprintln!("  done {name} ({cfg:?} T={})", cfg.t_rh);
    }
    insertions as f64 / u64::from(cfg.chips) as f64 / acts as f64 * 100.0
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let instrs = instr_budget().unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<String> = workload_filter()
        .unwrap_or_else(|| all_names().iter().map(|s| (*s).to_string()).collect());
    let mut r = Report::new(
        "table12",
        "SRQ insertions per 100 ACTs (paper Table 12)",
        &["T_RH", "p", "uniform", "paper", "NUP", "paper"],
    );
    let paper = [
        (1000u64, "1/16", 6.2, 3.1),
        (500, "1/8", 12.5, 6.3),
        (250, "1/4", 25.0, 13.4),
    ];
    for (t, p, uni_want, nup_want) in paper {
        let uni = rate(MitigationConfig::mopac_d(t), &names, instrs);
        let nup = rate(MitigationConfig::mopac_d_nup(t), &names, instrs);
        r.row(&[
            t.to_string(),
            p.to_string(),
            format!("{uni:.1}"),
            format!("{uni_want:.1}"),
            format!("{nup:.1}"),
            format!("{nup_want:.1}"),
        ]);
    }
    r.emit();
}
