//! Figure 2: per-workload slowdown of PRAC+ABO (with MOAT) at
//! T_RH = 4000, 500 and 100.
//!
//! The paper's headline: the slowdown is identical across thresholds
//! (~10% average, 18% worst case) because it is pure timing overhead,
//! not ABO.

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, pct, workload_filter, Report};
use mopac_sim::experiment::run_workload;
use mopac_workloads::spec::all_names;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let instrs = instr_budget().unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<String> = workload_filter()
        .unwrap_or_else(|| all_names().iter().map(|s| (*s).to_string()).collect());
    let thresholds = [4000u64, 500, 100];
    let mut r = Report::new(
        "fig2",
        "PRAC slowdown per workload at T_RH = 4000 / 500 / 100 \
         (paper: ~identical across thresholds, 10% avg)",
        &["workload", "T=4000", "T=500", "T=100", "alerts@500"],
    );
    let mut sums = [0.0f64; 3];
    for name in &names {
        let base = run_workload(name, MitigationConfig::baseline(), instrs).expect("baseline run");
        let mut cells = vec![name.clone()];
        let mut alerts500 = 0;
        for (i, &t) in thresholds.iter().enumerate() {
            let run = run_workload(name, MitigationConfig::prac(t), instrs).expect("PRAC run");
            let s = run.slowdown_vs(&base);
            sums[i] += s;
            cells.push(pct(s));
            if t == 500 {
                alerts500 = run.dram.alerts();
            }
        }
        cells.push(alerts500.to_string());
        r.row(&cells);
        eprintln!("  done {name}");
    }
    let n = names.len() as f64;
    r.row(&[
        "mean".into(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        "-".into(),
    ]);
    r.emit();
    println!("paper: 10% average, 18% worst case, invariant in T_RH");
}
