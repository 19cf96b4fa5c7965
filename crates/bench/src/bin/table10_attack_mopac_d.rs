//! Table 10: the three performance attacks on MoPAC-D (mitigation,
//! SRQ-full, tardiness) — analytic model plus simulated runs.

use mopac::config::MitigationConfig;
use mopac_analysis::params::mopac_d_params;
use mopac_analysis::perf_attack::{
    mitigation_attack_slowdown, srq_full_attack_slowdown, tth_attack_slowdown, PAPER_ALPHA,
};
use mopac_bench::{attack_cycle_budget, pct, Report};
use mopac_sim::attack::{run_attack, AttackConfig, AttackResult};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::{AttackPattern, MultiBankRoundRobin, SrqFillAttack, TardinessAttack};

fn simulate(mit: MitigationConfig, pattern: &mut dyn AttackPattern, cycles: u64) -> AttackResult {
    run_attack(&AttackConfig::new(mit, cycles), pattern).expect("attack run")
}

fn main() {
    let cycles = attack_cycle_budget().unwrap_or_else(|e| panic!("{e}"));
    let geom = DramGeometry::ddr5_32gb();
    let mut r = Report::new(
        "table10",
        "Performance attacks on MoPAC-D (paper Table 10)",
        &[
            "T_RH",
            "attack",
            "model",
            "paper",
            "simulated loss",
            "violations",
        ],
    );
    let paper = [
        (250u64, "16.6%", "25.9%", "17.9%"),
        (500, "7.4%", "14.9%", "17.9%"),
        (1000, "3.5%", "8.1%", "17.9%"),
    ];
    for (t, mitig_p, srq_p, tth_p) in paper {
        let params = mopac_d_params(t);
        let mit = MitigationConfig::mopac_d(t);
        // Reference throughputs per pattern shape (no mitigation).
        let mut base_mb = MultiBankRoundRobin::new(geom, 99);
        let base_multi = simulate(MitigationConfig::baseline(), &mut base_mb, cycles);
        let mut base_sf = SrqFillAttack::new(BankRef::new(0, 0), 4096);
        let base_single = simulate(MitigationConfig::baseline(), &mut base_sf, cycles);

        let mut p1 = MultiBankRoundRobin::new(geom, 99);
        let mitig = simulate(mit, &mut p1, cycles);
        let mut p2 = SrqFillAttack::new(BankRef::new(0, 0), 4096);
        let srq = simulate(mit, &mut p2, cycles);
        let mut p3 = TardinessAttack::new(geom, 99);
        let tth = simulate(mit, &mut p3, cycles);

        let rows: [(&str, f64, &str, &AttackResult, &AttackResult); 3] = [
            (
                "mitigation",
                mitigation_attack_slowdown(&params, PAPER_ALPHA),
                mitig_p,
                &mitig,
                &base_multi,
            ),
            (
                "SRQ-full",
                srq_full_attack_slowdown(&params, 5),
                srq_p,
                &srq,
                &base_single,
            ),
            (
                "tardiness",
                tth_attack_slowdown(params.tth),
                tth_p,
                &tth,
                &base_multi,
            ),
        ];
        for (name, model, want, res, base) in rows {
            r.row(&[
                t.to_string(),
                name.to_string(),
                pct(model),
                want.to_string(),
                pct(res.throughput_loss_vs(base)),
                res.violations.to_string(),
            ]);
        }
    }
    r.emit();
}
