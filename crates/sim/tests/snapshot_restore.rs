//! Property test for the crash-safe snapshot seam (DESIGN.md §12).
//!
//! Pausing a run at a REF boundary, serializing the [`System`],
//! restoring into a *freshly constructed* System of the same
//! configuration, and running to completion must be bit-identical to
//! the uninterrupted run — across every registered engine, both
//! simulation kernels, and randomized fault plans.

use mopac::EngineRegistry;
use mopac_sim::campaign::fault_matrix;
use mopac_sim::experiment::build_traces;
use mopac_sim::{KernelMode, RunResult, System, SystemConfig};
use mopac_types::geometry::DramGeometry;
use mopac_types::rng::DetRng;

/// Runs `cfg` once uninterrupted and once split at `pause_refs`
/// refreshes via snapshot + restore-into-fresh-system; returns both
/// final results.
fn run_split(cfg: &SystemConfig, pause_refs: u64) -> (RunResult, RunResult, bool) {
    let reference = System::new(cfg.clone(), build_traces("xz", cfg).unwrap())
        .unwrap()
        .run()
        .unwrap();

    let mut first = System::new(cfg.clone(), build_traces("xz", cfg).unwrap()).unwrap();
    let paused = first.run_until_refs(pause_refs).unwrap();
    let (resumed, split) = if let Some(done) = paused {
        // The run finished before the pause point ever arrived; the
        // "split" run is just the whole run.
        (done, false)
    } else {
        let snap = first.snapshot();
        drop(first);
        let mut second = System::new(cfg.clone(), build_traces("xz", cfg).unwrap()).unwrap();
        second.restore(&snap).unwrap();
        (second.run_to_completion().unwrap(), true)
    };
    (reference, resumed, split)
}

#[test]
fn restored_runs_are_bit_identical_across_engines_kernels_and_faults() {
    let mut rng = DetRng::from_seed(0x5E57_0001);
    let plans = fault_matrix();
    let mut splits = 0u32;
    let mut cells = 0u32;
    for spec in EngineRegistry::builtin().specs() {
        for kernel in [KernelMode::EventDriven, KernelMode::Lockstep] {
            let mut cfg = SystemConfig::paper_default((spec.preset)(500), 20_000);
            cfg.geometry = DramGeometry::tiny();
            cfg.enable_checker = true;
            cfg.kernel = kernel;
            cfg.livelock_window = 2_000_000;
            cfg.seed = rng.next_u64();
            // Roughly half the cells run under a randomly drawn fault
            // plan — faulted state (injector cursor, corruption RNG)
            // must survive the snapshot too.
            let plan = if rng.next_u64().is_multiple_of(2) {
                let pick = usize::try_from(rng.next_u64()).unwrap_or(0) % plans.len();
                Some(&plans[pick])
            } else {
                None
            };
            if let Some((_, p)) = plan {
                cfg.fault_plan = Some(p.clone());
            }
            let pause_refs = 1 + rng.next_u64() % 6;
            let (reference, resumed, split) = run_split(&cfg, pause_refs);
            cells += 1;
            splits += u32::from(split);
            assert_eq!(
                reference,
                resumed,
                "snapshot/restore diverged: engine={} kernel={kernel:?} fault={:?} pause_refs={pause_refs}",
                spec.name,
                plan.map(|p| p.0),
            );
        }
    }
    // The property is vacuous if every run finished before its pause
    // point; most cells must genuinely exercise snapshot + restore.
    assert!(
        splits * 2 >= cells,
        "only {splits}/{cells} cells actually split at a REF boundary"
    );
}

/// A core whose ROB is full behind an outstanding load sleeps until a
/// completion reaches it, and every exit from the run loop wakes it up
/// to date. So a pause that lands while cores sleep must leave exactly
/// the state of a system stepped cycle by cycle to the same point (no
/// watchdog and an unreachable budget, so the run loop's bookkeeping
/// matches `debug_step`'s), and restoring it must continue exactly like
/// the uninterrupted run, on both kernels. `debug_last_exit_sleepers`
/// shows that pauses did land among sleeping cores.
#[test]
fn pause_among_sleeping_cores_restores_bit_identically() {
    use mopac::config::MitigationConfig;
    let mut landed = 0usize;
    for kernel in [KernelMode::EventDriven, KernelMode::Lockstep] {
        let mut cfg = SystemConfig::paper_default(MitigationConfig::prac(500), 20_000);
        cfg.geometry = DramGeometry::tiny();
        cfg.kernel = kernel;
        let mut open_ended = cfg.clone();
        open_ended.instrs_per_core = u64::MAX;
        open_ended.livelock_window = 0;
        let traces = || build_traces("mix1", &cfg).unwrap();
        let reference = System::new(cfg.clone(), traces()).unwrap().run().unwrap();
        for pause_refs in 1..=4 {
            let mut paused = System::new(open_ended.clone(), traces()).unwrap();
            assert!(paused.run_until_refs(pause_refs).unwrap().is_none());
            landed += paused.debug_last_exit_sleepers();
            let mut stepped = System::new(open_ended.clone(), traces()).unwrap();
            while stepped.now() < paused.now() {
                stepped.debug_step().unwrap();
            }
            assert!(
                stepped.snapshot() == paused.snapshot(),
                "{kernel:?}: state paused at REF {pause_refs} differs from stepping there"
            );

            let mut first = System::new(cfg.clone(), traces()).unwrap();
            assert!(first.run_until_refs(pause_refs).unwrap().is_none());
            let mut second = System::new(cfg.clone(), traces()).unwrap();
            second.restore(&first.snapshot()).unwrap();
            assert_eq!(
                second.run_to_completion().unwrap(),
                reference,
                "{kernel:?}: restored run paused at REF {pause_refs} diverged"
            );
        }
    }
    assert!(landed > 0, "no pause landed while a core slept");
}

#[test]
fn restore_rejects_cross_topology_snapshots() {
    use mopac::config::MitigationConfig;
    use mopac_types::error::MopacError;

    let mut cfg = SystemConfig::paper_default(MitigationConfig::prac(500), 20_000);
    cfg.geometry = DramGeometry::tiny();
    let mut src = System::new(cfg.clone(), build_traces("xz", &cfg).unwrap()).unwrap();
    assert!(src.run_until_refs(2).unwrap().is_none(), "run ended early");
    let snap = src.snapshot();

    // Same config except the channel count: the restore must fail with
    // a typed snapshot error before touching any state, not deserialize
    // one channel's controller into another topology's system.
    let mut wide_cfg = cfg.clone();
    wide_cfg.geometry.channels = 2;
    let mut wide = System::new(wide_cfg.clone(), build_traces("xz", &wide_cfg).unwrap()).unwrap();
    let err = wide.restore(&snap).expect_err("cross-topology restore succeeded");
    assert!(
        matches!(&err, MopacError::Snapshot { .. }),
        "wrong error kind: {err:?}"
    );
    assert!(
        err.to_string().contains("topology mismatch"),
        "unhelpful error: {err}"
    );

    // A bank-count mismatch is a topology mismatch too.
    let mut banked_cfg = cfg.clone();
    banked_cfg.geometry.banks_per_subchannel *= 2;
    let mut banked =
        System::new(banked_cfg.clone(), build_traces("xz", &banked_cfg).unwrap()).unwrap();
    let err = banked.restore(&snap).expect_err("bank-count mismatch accepted");
    assert!(err.to_string().contains("topology mismatch"), "{err}");

    // The matching topology still restores and finishes bit-identically
    // to the uninterrupted reference.
    let reference = System::new(cfg.clone(), build_traces("xz", &cfg).unwrap())
        .unwrap()
        .run()
        .unwrap();
    let mut same = System::new(cfg.clone(), build_traces("xz", &cfg).unwrap()).unwrap();
    same.restore(&snap).unwrap();
    assert_eq!(reference, same.run_to_completion().unwrap());
}

/// A snapshot taken on the flat-bank layout must refuse to restore into
/// a subarray-split PRACtical system (and the reverse), with a typed
/// snapshot error — the subarray state has nowhere to come from.
#[test]
fn restore_rejects_cross_subarray_shape_snapshots() {
    use mopac::config::MitigationConfig;
    use mopac_types::error::MopacError;

    let mut flat_cfg = SystemConfig::paper_default(MitigationConfig::prac(500), 20_000);
    flat_cfg.geometry = DramGeometry::tiny();
    let mut flat = System::new(flat_cfg.clone(), build_traces("xz", &flat_cfg).unwrap()).unwrap();
    assert!(flat.run_until_refs(2).unwrap().is_none(), "run ended early");
    let flat_snap = flat.snapshot();

    let mut sub_cfg = SystemConfig::paper_default(MitigationConfig::practical(500), 20_000);
    sub_cfg.geometry = DramGeometry::tiny();
    sub_cfg.geometry.subarrays_per_bank = 8;
    let mut sub = System::new(sub_cfg.clone(), build_traces("xz", &sub_cfg).unwrap()).unwrap();
    let err = sub
        .restore(&flat_snap)
        .expect_err("flat snapshot restored into a subarray shape");
    assert!(
        matches!(&err, MopacError::Snapshot { .. }),
        "wrong error kind: {err:?}"
    );

    // Reverse direction: subarray-shape snapshot into the flat config.
    let mut sub_src =
        System::new(sub_cfg.clone(), build_traces("xz", &sub_cfg).unwrap()).unwrap();
    assert!(sub_src.run_until_refs(2).unwrap().is_none(), "run ended early");
    let sub_snap = sub_src.snapshot();
    let mut flat_dst =
        System::new(flat_cfg.clone(), build_traces("xz", &flat_cfg).unwrap()).unwrap();
    assert!(
        flat_dst.restore(&sub_snap).is_err(),
        "subarray snapshot restored into the flat shape"
    );

    // The matching subarray shape still restores and finishes
    // bit-identically to its uninterrupted reference.
    let reference = System::new(sub_cfg.clone(), build_traces("xz", &sub_cfg).unwrap())
        .unwrap()
        .run()
        .unwrap();
    let mut same = System::new(sub_cfg.clone(), build_traces("xz", &sub_cfg).unwrap()).unwrap();
    same.restore(&sub_snap).unwrap();
    assert_eq!(reference, same.run_to_completion().unwrap());
}

/// A snapshot names its design: restoring it into another design with
/// the same alert thresholds must be rejected, not continue under the
/// other design's sampling or timings. Two pairs: MoPAC-C into PRAC
/// (they differ in timing demands) and MoPAC-D into MoPAC-D with
/// non-uniform sampling (equal demands, a different design).
#[test]
fn restore_rejects_snapshots_of_another_design() {
    use mopac::config::MitigationConfig;
    use mopac_sim::attack::{AttackConfig, AttackRun};
    use mopac_types::error::MopacError;
    use mopac_types::geometry::BankRef;
    use mopac_workloads::attack::DoubleSidedHammer;

    let attack = |mitigation| AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(mitigation, 200_000)
    };
    let pairs = [
        (MitigationConfig::mopac_c(500), MitigationConfig::prac(500).with_alert_threshold(176)),
        (MitigationConfig::mopac_d(500), MitigationConfig::mopac_d_nup(500).with_alert_threshold(152)),
    ];
    for (from, into) in pairs {
        let (from, into) = (attack(from), attack(into));
        // Both pass the MOAT threshold checks, so only the design
        // itself tells the two apart on restore.
        let thresholds =
            |c: &AttackConfig| (c.mitigation.alert_threshold, c.mitigation.eligibility_threshold);
        assert_eq!(thresholds(&from), thresholds(&into));

        let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let mut src = AttackRun::new(&from, &mut pattern);
        src.run_until(50_000).unwrap();
        let snap = src.snapshot();

        let (a, b) = (from.mitigation.engine.name, into.mitigation.engine.name);
        let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let mut dst = AttackRun::new(&into, &mut pattern);
        let err = dst
            .restore(&snap)
            .expect_err(&format!("{a} snapshot restored into a {b} run"));
        assert!(
            matches!(&err, MopacError::Snapshot { .. }),
            "wrong error kind: {err:?}"
        );
        let msg = err.to_string();
        for name in [a, b] {
            assert!(msg.contains(&format!("engine: {name},")), "{name} not named: {msg}");
        }
    }
}
