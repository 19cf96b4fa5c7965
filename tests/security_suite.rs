//! Cross-crate security suite: every mitigation design is attacked with
//! the patterns from the threat model (Section 2.1) and checked against
//! the Rowhammer oracle, including failure-injection runs that prove the
//! oracle itself catches real violations.
//!
//! Attack runs use the tiny geometry (full bank count is unnecessary for
//! per-bank security) and thresholds from the paper's range.

use mopac::config::MitigationConfig;
use mopac_sim::attack::{run_attack, AttackConfig, AttackRun};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::{
    AttackPattern, DoubleSidedHammer, MultiBankRoundRobin, SingleRowHammer, SrqFillAttack,
};

const CYCLES: u64 = 900_000;

fn attack_tiny(mit: MitigationConfig, pattern: &mut dyn AttackPattern) -> mopac_sim::AttackResult {
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(mit, CYCLES)
    };
    run_attack(&cfg, pattern).unwrap()
}

#[test]
fn prac_moat_stops_double_sided() {
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 500);
    let r = attack_tiny(MitigationConfig::prac(500), &mut p);
    assert_eq!(r.violations, 0, "{:?}", r.dram);
    assert!(r.dram.mitigations > 0, "MOAT never mitigated");
}

#[test]
fn prac_moat_stops_single_row_hammer() {
    let mut p = SingleRowHammer::new(BankRef::new(1, 1), 40, 600, 32);
    let r = attack_tiny(MitigationConfig::prac(500), &mut p);
    assert_eq!(r.violations, 0);
}

#[test]
fn mopac_c_stops_double_sided_at_all_thresholds() {
    for t in [250u64, 500, 1000] {
        let mut p = DoubleSidedHammer::new(BankRef::new(0, 2), 123);
        let r = attack_tiny(MitigationConfig::mopac_c(t), &mut p);
        assert_eq!(r.violations, 0, "T_RH = {t}");
        assert!(r.dram.alerts() > 0, "T_RH = {t}: no alerts");
    }
}

#[test]
fn mopac_d_stops_double_sided_at_all_thresholds() {
    for t in [250u64, 500, 1000] {
        let mut p = DoubleSidedHammer::new(BankRef::new(0, 3), 321);
        let r = attack_tiny(MitigationConfig::mopac_d(t), &mut p);
        assert_eq!(r.violations, 0, "T_RH = {t}");
    }
}

#[test]
fn mopac_d_nup_stops_double_sided() {
    let mut p = DoubleSidedHammer::new(BankRef::new(1, 0), 77);
    let r = attack_tiny(MitigationConfig::mopac_d_nup(500), &mut p);
    assert_eq!(r.violations, 0);
}

#[test]
fn mopac_d_survives_srq_fill_pressure() {
    let mut p = SrqFillAttack::new(BankRef::new(0, 0), 900);
    let r = attack_tiny(MitigationConfig::mopac_d(500), &mut p);
    assert_eq!(r.violations, 0);
    assert!(
        r.dram.alerts_srq_full > 0,
        "SRQ-fill attack should trigger SRQ-full alerts"
    );
}

#[test]
fn mopac_d_single_chip_no_drain_still_secure() {
    // Worst configuration for tardiness: no REF drains, one chip.
    let mit = MitigationConfig::mopac_d(500)
        .with_chips(1)
        .with_drain_on_ref(0);
    let mut p = SingleRowHammer::new(BankRef::new(0, 1), 10, 500, 64);
    let r = attack_tiny(mit, &mut p);
    assert_eq!(r.violations, 0);
}

#[test]
fn multi_bank_round_robin_contained() {
    let mut p = MultiBankRoundRobin::new(DramGeometry::tiny(), 42);
    for mit in [
        MitigationConfig::prac(250),
        MitigationConfig::mopac_c(250),
        MitigationConfig::mopac_d(250),
    ] {
        let r = attack_tiny(mit, &mut p);
        assert_eq!(r.violations, 0, "{:?}", mit.engine);
    }
}

#[test]
fn failure_injection_oracle_catches_weak_prac() {
    // ATH far above T_RH: the tracker exists but never fires in time.
    let broken = MitigationConfig::prac(500).with_alert_threshold(100_000);
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let r = attack_tiny(broken, &mut p);
    assert!(r.violations > 0, "oracle failed to catch the broken config");
}

#[test]
fn failure_injection_oracle_catches_weak_mopac_d() {
    let broken = MitigationConfig::mopac_d(500).with_alert_threshold(60_000);
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let r = attack_tiny(broken, &mut p);
    assert!(r.violations > 0, "oracle failed on weak MoPAC-D");
}

#[test]
fn mopac_c_undersampling_is_caught() {
    // Keep ATH* but sample far too rarely: counters cannot reach the
    // threshold before T_RH activations.
    let mut broken = MitigationConfig::mopac_c(500);
    broken.sample_denominator = 512;
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let r = attack_tiny(broken, &mut p);
    assert!(
        r.violations > 0,
        "oracle should flag an undersampled MoPAC-C"
    );
}

/// Regression guard for the checker's top-edge phantom-victim fix: the
/// battery above attacks only interior rows, so every recorded victim
/// must be interior and adjacent to its aggressor — the fix cannot
/// (and must not) change any of those verdicts. The count on this
/// canonical broken run is pinned exactly.
#[test]
fn phantom_fix_leaves_interior_battery_verdicts_unchanged() {
    let broken = MitigationConfig::prac(500).with_alert_threshold(100_000);
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(broken, CYCLES)
    };
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut run = AttackRun::new(&cfg, &mut p);
    run.run_until(CYCLES).unwrap();
    let rows = cfg.geometry.rows_per_bank;
    let records = run.dram().violation_records();
    assert!(!records.is_empty());
    for v in &records {
        assert!(v.victim < rows, "victim {} outside bank", v.victim);
        assert!(
            v.victim == v.row + 1 || v.victim + 1 == v.row,
            "victim {} not adjacent to aggressor {}",
            v.victim,
            v.row
        );
        assert!(v.row > 0 && v.row < rows - 1, "battery aggressor at edge");
    }
}

/// Device-level top-edge hammer: hammering the *last* row of the bank
/// under a broken mitigation must record violations only against the
/// one real victim below it — never the phantom `row + 1` the
/// pre-fix checker invented past the end of the array.
#[test]
fn top_row_hammer_records_no_phantom_victim() {
    let broken = MitigationConfig::prac(500).with_alert_threshold(100_000);
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(broken, CYCLES)
    };
    let rows = cfg.geometry.rows_per_bank;
    let mut p = SingleRowHammer::new(BankRef::new(0, 0), rows - 1, 10, 32);
    let mut run = AttackRun::new(&cfg, &mut p);
    run.run_until(CYCLES).unwrap();
    let records = run.dram().violation_records();
    assert!(!records.is_empty(), "broken config never violated");
    for v in &records {
        if v.row == rows - 1 {
            assert_eq!(
                v.victim,
                rows - 2,
                "phantom victim {} recorded for top-row aggressor",
                v.victim
            );
        }
        assert!(v.victim < rows, "victim {} outside bank", v.victim);
    }
}

#[test]
fn row_press_hardened_configs_remain_secure_against_hammering() {
    for mit in [
        MitigationConfig::mopac_c(500).with_row_press(),
        MitigationConfig::mopac_d(500).with_row_press(),
    ] {
        let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 55);
        let r = attack_tiny(mit, &mut p);
        assert_eq!(r.violations, 0, "{:?}", mit.engine);
    }
}
