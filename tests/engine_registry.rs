//! Registry round-trip suite: every engine in [`mopac::EngineRegistry`]
//! must resolve by name, construct, survive a tiny end-to-end workload
//! with the security oracle enabled, and stand up to a quick hammer —
//! the structural guarantee that a newly plugged-in engine is wired
//! through the whole stack, not just the core crate.

use mopac::config::MitigationConfig;
use mopac::EngineRegistry;
use mopac_sim::attack::{attack_suite_configs, run_attack, AttackConfig};
use mopac_sim::campaign::campaign_mitigations;
use mopac_sim::experiment::{mitigation_preset, run_workload_with};
use mopac_sim::system::SystemConfig;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::DoubleSidedHammer;

fn tiny_cfg(mit: MitigationConfig, instrs: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(mit, instrs);
    cfg.geometry = DramGeometry::tiny();
    cfg.enable_checker = true;
    cfg
}

#[test]
fn every_registered_engine_runs_a_workload_oracle_clean() {
    for spec in EngineRegistry::builtin().specs() {
        let mit = mitigation_preset(spec.name, 500)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(mit.engine, spec, "{}", spec.name);
        let result = run_workload_with("xz", tiny_cfg(mit, 15_000))
            .unwrap_or_else(|e| panic!("{} run failed: {e}", spec.name));
        assert_eq!(result.violations, 0, "{}: oracle violations", spec.name);
        if spec.tracks() {
            assert!(
                result.mitigation.activations > 0,
                "{}: engine never saw an activation",
                spec.name
            );
        }
    }
}

#[test]
fn presets_name_their_own_spec() {
    let reg = EngineRegistry::builtin();
    for spec in reg.specs() {
        for t_rh in [125, 250, 500, 1000, 2000, 4000] {
            let cfg = (spec.preset)(t_rh);
            assert_eq!(cfg.engine.name, spec.name, "preset at T_RH {t_rh}");
            assert_eq!(cfg.engine, spec, "preset at T_RH {t_rh}");
        }
    }

    let d = reg.get("mopac-d").unwrap();
    let nup = reg.get("mopac-d-nup").unwrap();
    assert_ne!(d, nup);
    assert_ne!(
        MitigationConfig::mopac_d(500).engine,
        MitigationConfig::mopac_d_nup(500).engine
    );

    let untracked: Vec<&str> = reg
        .specs()
        .iter()
        .filter(|s| !s.tracks())
        .map(|s| s.name)
        .collect();
    assert_eq!(untracked, ["baseline"]);
}

#[test]
fn every_tracking_engine_survives_a_quick_hammer() {
    for (name, cfg) in attack_suite_configs(500, 120_000) {
        let cfg = AttackConfig {
            geometry: DramGeometry::tiny(),
            ..cfg
        };
        let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let res = run_attack(&cfg, &mut pattern)
            .unwrap_or_else(|e| panic!("{name} attack failed: {e}"));
        assert_eq!(res.violations, 0, "{name}: oracle violations under hammer");
    }
}

#[test]
fn unknown_engine_name_lists_the_registry() {
    let err = mitigation_preset("no-such-engine", 500).unwrap_err();
    let msg = err.to_string();
    for name in EngineRegistry::builtin().names() {
        assert!(msg.contains(name), "error should list '{name}': {msg}");
    }
}

#[test]
fn campaign_covers_every_tracking_engine() {
    let campaign: Vec<&str> = campaign_mitigations().iter().map(|(n, _)| *n).collect();
    let tracking: Vec<&str> = EngineRegistry::builtin()
        .specs()
        .iter()
        .filter(|s| s.tracks())
        .map(|s| s.name)
        .collect();
    assert_eq!(campaign, tracking);
    assert!(campaign.len() >= 6, "expected qprac and cnc-prac on board");
}
