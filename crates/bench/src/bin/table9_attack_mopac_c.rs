//! Table 9: performance attacks on MoPAC-C — analytic model plus a
//! simulated multi-bank attack.

use mopac::config::MitigationConfig;
use mopac_analysis::params::mopac_c_params;
use mopac_analysis::perf_attack::{mitigation_attack_slowdown, PAPER_ALPHA};
use mopac_bench::{attack_cycle_budget, pct, Report};
use mopac_sim::attack::{run_attack, AttackConfig};
use mopac_types::geometry::DramGeometry;
use mopac_workloads::attack::MultiBankRoundRobin;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table9",
        "Performance attack on MoPAC-C (paper Table 9: 14.0% / 6.7% / 3.2%)",
        &[
            "T_RH",
            "attack ATH*",
            "model (alpha=0.55)",
            "paper",
            "simulated loss",
            "sim ACTs/ALERT",
            "violations",
        ],
    );
    let paper = [(250u64, "14.0%"), (500, "6.7%"), (1000, "3.2%")];
    let cycles = attack_cycle_budget().unwrap_or_else(|e| panic!("{e}"));
    // Reference throughput: the same pattern with no mitigation.
    let mut base_pat = MultiBankRoundRobin::new(DramGeometry::ddr5_32gb(), 99);
    let base = run_attack(
        &AttackConfig::new(MitigationConfig::baseline(), cycles),
        &mut base_pat,
    )
    .expect("baseline attack run");
    for (t, want) in paper {
        let params = mopac_c_params(t);
        let model = mitigation_attack_slowdown(&params, PAPER_ALPHA);
        let mut pat = MultiBankRoundRobin::new(DramGeometry::ddr5_32gb(), 99);
        let res = run_attack(
            &AttackConfig::new(MitigationConfig::mopac_c(t), cycles),
            &mut pat,
        )
        .expect("attack run");
        r.row(&[
            t.to_string(),
            params.attack_ath_star().to_string(),
            pct(model),
            want.to_string(),
            pct(res.throughput_loss_vs(&base)),
            res.acts_per_alert()
                .map_or("-".into(), |v| format!("{v:.0}")),
            res.violations.to_string(),
        ]);
    }
    r.emit();
}
