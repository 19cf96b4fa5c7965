//! Victim-data flip-plane integration (ISSUE 10 tentpole).
//!
//! The flip plane gives campaigns a *physical* attack verdict — did any
//! read return corrupted data after ECC — alongside the oracle's
//! protocol verdict. These tests pin its end-to-end contract through
//! [`AttackRun`]: per-seed determinism, ECC monotonicity per engine,
//! snapshot round-trips, and typed cross-shape restore failures.

use mopac::config::MitigationConfig;
use mopac_dram::flip::{EccMode, FlipPlaneConfig, TrhDistribution};
use mopac_sim::attack::{AttackConfig, AttackRun};
use mopac_types::error::MopacError;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::DoubleSidedHammer;

const CYCLES: u64 = 400_000;

fn attack(mit: MitigationConfig, flip: Option<FlipPlaneConfig>) -> mopac_sim::AttackResult {
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        flip,
        ..AttackConfig::new(mit, CYCLES)
    };
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut run = AttackRun::new(&cfg, &mut p);
    run.run_until(CYCLES).unwrap();
    run.verify_readback();
    run.result()
}

/// A broken mitigation with the plane armed at the oracle threshold
/// corrupts data, the corruption is observed by the readback pass, and
/// the whole verdict is a pure function of the seed.
#[test]
fn broken_config_attack_succeeds_deterministically() {
    let broken = || MitigationConfig::prac(500).with_alert_threshold(100_000);
    let flip = FlipPlaneConfig::new(TrhDistribution::Constant(500)).with_flip_probability(0.5);
    let a = attack(broken(), Some(flip));
    let b = attack(broken(), Some(flip));
    assert!(a.violations > 0, "oracle missed the broken config");
    assert!(a.flip.bit_flips > 0, "no victim bits flipped");
    assert!(a.attack_success(), "corruption never observed");
    assert_eq!(a.flip, b.flip, "flip verdict not deterministic per seed");
    assert_eq!(a.violations, b.violations);
}

/// A working engine at the same threshold keeps the modeled cells
/// clean: oracle-secure implies data-secure when every cell is at
/// least as strong as the enforced T_RH.
#[test]
fn protected_engine_attack_fails() {
    let flip = FlipPlaneConfig::new(TrhDistribution::Constant(500)).with_flip_probability(1.0);
    let r = attack(MitigationConfig::prac(500), Some(flip));
    assert_eq!(r.violations, 0);
    assert_eq!(r.flip.bit_flips, 0, "protected run still flipped bits");
    assert!(!r.attack_success());
}

/// With the plane disabled the result carries an all-zero [`FlipStats`]
/// and a negative verdict — the legacy shape.
#[test]
fn disabled_plane_reports_no_corruption() {
    let r = attack(MitigationConfig::prac(500), None);
    assert_eq!(r.flip, mopac_dram::flip::FlipStats::default());
    assert!(!r.attack_success());
}

/// ECC monotonicity, end to end, for every registered tracking engine:
/// with per-row thresholds drawn *below* the enforced T_RH (cells the
/// engine cannot protect), SEC ECC never observes more corrupted reads
/// than no ECC at the same seed.
#[test]
fn ecc_on_never_observes_more_corruption_than_ecc_off() {
    let weak = TrhDistribution::Uniform { lo: 20, hi: 120 };
    for spec in mopac::EngineRegistry::builtin().specs().iter().filter(|s| s.tracks()) {
        let raw = attack(
            (spec.preset)(500),
            Some(FlipPlaneConfig::new(weak).with_flip_probability(0.25)),
        );
        let ecc = attack(
            (spec.preset)(500),
            Some(
                FlipPlaneConfig::new(weak)
                    .with_flip_probability(0.25)
                    .with_ecc(EccMode::Sec),
            ),
        );
        assert!(
            raw.flip.bit_flips > 0,
            "{}: weak cells never flipped",
            spec.name
        );
        assert!(
            ecc.flip.corrupted_reads <= raw.flip.corrupted_reads,
            "{}: ECC-on observed {} corrupted reads vs {} ECC-off",
            spec.name,
            ecc.flip.corrupted_reads,
            raw.flip.corrupted_reads
        );
    }
}

/// Snapshot round trip with the plane enabled: restoring a mid-run
/// snapshot and continuing reproduces the uninterrupted run exactly,
/// flip verdict included.
#[test]
fn flip_state_survives_snapshot_restore_bit_identically() {
    let mit = || MitigationConfig::prac(500).with_alert_threshold(100_000);
    let flip = FlipPlaneConfig::new(TrhDistribution::Constant(400))
        .with_flip_probability(0.5)
        .with_ecc(EccMode::Sec);
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        flip: Some(flip),
        ..AttackConfig::new(mit(), CYCLES)
    };

    let mut p_ref = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut reference = AttackRun::new(&cfg, &mut p_ref);
    reference.run_until(CYCLES).unwrap();
    reference.verify_readback();
    let reference = reference.result();

    let mut p_a = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut a = AttackRun::new(&cfg, &mut p_a);
    a.run_until(150_000).unwrap();
    let snap = a.snapshot();

    let mut p_b = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut b = AttackRun::new(&cfg, &mut p_b);
    b.restore(&snap).unwrap();
    b.run_until(CYCLES).unwrap();
    b.verify_readback();
    let resumed = b.result();

    assert_eq!(resumed.flip, reference.flip);
    assert_eq!(resumed.violations, reference.violations);
    assert_eq!(resumed.dram, reference.dram);
    assert!(reference.flip.bit_flips > 0, "vacuous round trip");
}

/// A snapshot taken with the plane disabled must refuse to restore into
/// a flip-enabled run with a typed snapshot error: the device identity
/// records the flip configuration.
#[test]
fn cross_shape_restore_fails_typed() {
    let plain = AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(MitigationConfig::prac(500), CYCLES)
    };
    let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut run = AttackRun::new(&plain, &mut p);
    run.run_until(50_000).unwrap();
    let snap = run.snapshot();

    let flipped = AttackConfig {
        flip: Some(FlipPlaneConfig::new(TrhDistribution::Constant(500))),
        ..plain
    };
    let mut p2 = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut target = AttackRun::new(&flipped, &mut p2);
    let err = target.restore(&snap).unwrap_err();
    assert!(
        matches!(err, MopacError::Snapshot { .. }),
        "wrong error kind: {err}"
    );
}
