//! Table 15 (Appendix C): slowdowns of PRAC and MoPAC-D under proactive
//! row-closure policies (open-page, close-page, tON = 100/200 ns).
//!
//! Slowdowns are measured against the *same-policy* baseline, as in the
//! paper; the close-page baseline itself runs ~1.8% behind open-page.

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, pct, workload_filter, Report};
use mopac_memctrl::controller::PagePolicy;
use mopac_sim::experiment::run_workload_with;
use mopac_sim::system::SystemConfig;
use mopac_workloads::spec::all_names;

fn policy_baselines(
    policy: PagePolicy,
    names: &[String],
    instrs: u64,
) -> Vec<mopac_sim::RunResult> {
    names
        .iter()
        .map(|name| {
            let mut base_cfg =
                SystemConfig::paper_default(MitigationConfig::baseline(), instrs);
            base_cfg.mc.page_policy = policy;
            run_workload_with(name, base_cfg).expect("baseline run")
        })
        .collect()
}

fn mean_slowdown(
    mit: MitigationConfig,
    policy: PagePolicy,
    names: &[String],
    bases: &[mopac_sim::RunResult],
    instrs: u64,
) -> f64 {
    let mut total = 0.0;
    for (name, base) in names.iter().zip(bases) {
        let mut cfg = SystemConfig::paper_default(mit, instrs);
        cfg.mc.page_policy = policy;
        let run = run_workload_with(name, cfg).expect("workload run");
        total += run.slowdown_vs(base);
    }
    total / names.len() as f64
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let instrs = instr_budget().unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<String> = workload_filter()
        .unwrap_or_else(|| all_names().iter().map(|s| (*s).to_string()).collect());
    let mut r = Report::new(
        "table15",
        "Row-closure policies (paper Table 15: PRAC 10/7.1/7.5/8.2%; \
         MoPAC-D@500 0.8/1.3/1.0/0.9%)",
        &["policy", "PRAC", "MoPAC-D@1000", "MoPAC-D@500", "MoPAC-D@250", "base IPC"],
    );
    let policies = [
        ("open-page", PagePolicy::Open),
        ("close-page", PagePolicy::ClosedIdle),
        ("tON=100ns", PagePolicy::TimeoutNs(100.0)),
        ("tON=200ns", PagePolicy::TimeoutNs(200.0)),
    ];
    for (label, policy) in policies {
        let bases = policy_baselines(policy, &names, instrs);
        let base_ipc = bases
            .iter()
            .map(|b| b.cores.iter().map(|c| c.ipc).sum::<f64>())
            .sum::<f64>()
            / names.len() as f64;
        let prac = mean_slowdown(MitigationConfig::prac(500), policy, &names, &bases, instrs);
        let d1000 =
            mean_slowdown(MitigationConfig::mopac_d(1000), policy, &names, &bases, instrs);
        let d500 = mean_slowdown(MitigationConfig::mopac_d(500), policy, &names, &bases, instrs);
        let d250 = mean_slowdown(MitigationConfig::mopac_d(250), policy, &names, &bases, instrs);
        r.row(&[
            label.to_string(),
            pct(prac),
            pct(d1000),
            pct(d500),
            pct(d250),
            format!("{base_ipc:.2}"),
        ]);
        eprintln!("done policy {label}");
    }
    r.emit();
}
