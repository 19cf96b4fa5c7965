//! Attack lab: hammer the DRAM and watch the mitigations (or their
//! absence) through the security oracle.
//!
//! ```text
//! cargo run --release -p mopac-sim --example attack_lab
//! ```
//!
//! Runs three attack patterns against four configurations — an
//! unprotected device, a deliberately mis-parameterized PRAC, and
//! correctly derived MoPAC-C / MoPAC-D — and reports attacker
//! throughput, ALERT/mitigation activity and oracle violations.

use mopac::config::MitigationConfig;
use mopac_sim::attack::{run_attack, AttackConfig};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::{
    AttackPattern, DoubleSidedHammer, MultiBankRoundRobin, SrqFillAttack,
};

fn patterns() -> Vec<Box<dyn AttackPattern>> {
    let geom = DramGeometry::ddr5_32gb();
    vec![
        Box::new(DoubleSidedHammer::new(BankRef::new(0, 0), 1000)),
        Box::new(MultiBankRoundRobin::new(geom, 777)),
        Box::new(SrqFillAttack::new(BankRef::new(1, 3), 4096)),
    ]
}

fn main() {
    mopac_types::knob::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let cycles = 1_000_000;
    let t_rh = 500;
    let configs = [
        ("unprotected (oracle only)", {
            // PRAC with an absurd threshold: counts but never alerts —
            // a stand-in for an unmitigated PRAC device.
            MitigationConfig::prac(t_rh).with_alert_threshold(1_000_000)
        }),
        ("PRAC+MOAT", MitigationConfig::prac(t_rh)),
        ("MoPAC-C", MitigationConfig::mopac_c(t_rh)),
        ("MoPAC-D", MitigationConfig::mopac_d(t_rh)),
    ];
    println!("attack lab @ T_RH = {t_rh}, {cycles} DRAM cycles per run\n");
    println!(
        "{:<28} {:<14} {:>9} {:>7} {:>7} {:>11}",
        "config", "pattern", "ACTs", "ALERTs", "mitig", "VIOLATIONS"
    );
    for (name, cfg) in configs {
        for mut pattern in patterns() {
            let res = run_attack(&AttackConfig::new(cfg, cycles), pattern.as_mut()).unwrap();
            println!(
                "{:<28} {:<14} {:>9} {:>7} {:>7} {:>11}",
                name,
                pattern.name(),
                res.activations,
                res.dram.alerts(),
                res.dram.mitigations,
                res.violations
            );
        }
    }
    println!(
        "\nExpected: only the mis-parameterized first config shows violations; \
         every properly derived design keeps the oracle clean."
    );
}
