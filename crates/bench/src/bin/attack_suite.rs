//! Security gate: every registered mitigation engine versus the attack
//! battery, on the tiny geometry for CI speed.
//!
//! Enumerates [`mopac_sim::attack::attack_suite_configs`] (every engine
//! in the registry that tracks activations) and runs each against every
//! attack pattern with the Rowhammer oracle enabled. A single oracle
//! violation fails the binary — this is the registry-wide version of the
//! per-design security tests, sized for CI by `MOPAC_ATTACK_CYCLES`.

use mopac_bench::{attack_cycle_budget, Report};
use mopac_sim::attack::{attack_suite_configs, run_attack, AttackConfig};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::{
    AttackPattern, DoubleSidedHammer, MultiBankRoundRobin, SingleRowHammer, SrqFillAttack,
    TardinessAttack,
};

/// The attack battery, freshly constructed per engine so pattern state
/// never leaks between runs.
fn battery(geom: DramGeometry) -> Vec<(&'static str, Box<dyn AttackPattern>)> {
    let bank = BankRef::new(0, 0);
    vec![
        ("double-sided", Box::new(DoubleSidedHammer::new(bank, 100))),
        (
            "single-row",
            Box::new(SingleRowHammer::new(bank, 100, 200, 8)),
        ),
        (
            "multi-bank",
            Box::new(MultiBankRoundRobin::new(geom, 99)),
        ),
        ("srq-fill", Box::new(SrqFillAttack::new(bank, 256))),
        ("tardiness", Box::new(TardinessAttack::new(geom, 100))),
    ]
}

fn main() {
    let cycles = attack_cycle_budget().unwrap_or_else(|e| panic!("{e}"));
    let geom = DramGeometry::tiny();
    let mut r = Report::new(
        "attack_suite",
        "Registry-wide attack battery (violations must all be 0)",
        &["engine", "attack", "ACTs", "alerts", "mitigations", "violations"],
    );
    let mut total_violations = 0u64;
    for (engine, cfg) in attack_suite_configs(500, cycles) {
        let cfg = AttackConfig { geometry: geom, ..cfg };
        for (attack, mut pattern) in battery(geom) {
            let res = run_attack(&cfg, pattern.as_mut()).expect("attack run");
            total_violations += res.violations;
            r.row(&[
                engine.to_string(),
                attack.to_string(),
                res.activations.to_string(),
                res.dram.alerts().to_string(),
                res.dram.mitigations.to_string(),
                res.violations.to_string(),
            ]);
        }
        eprintln!("  done {engine}");
    }
    r.emit();
    if total_violations > 0 {
        eprintln!("!! attack_suite: {total_violations} oracle violations");
        std::process::exit(1);
    }
    println!("attack_suite: all engines oracle-clean over {cycles} cycles");
}
