//! Attack-driver equivalence: [`AttackRun::run_until`] skips the cycles
//! on which the controller provably does nothing (a full window and no
//! command before [`MemoryController::next_wake`]). Stepping the same
//! run one cycle at a time — `run_until(now + 1)`, which clamps every
//! jump to the very next cycle — is the lockstep reference. Both must
//! end in the same state: equal `AttackResult` fields and
//! byte-identical snapshots, across every engine of the attack suite
//! and the whole attack battery, with the flip plane and the metrics
//! sink armed.
//!
//! The reference checks the driver's jumps, not the wake itself: its
//! ticks still take the controller's cached-wake fast path. A wake that
//! crosses a mode boundary shows up here through the stall and refresh
//! counters; a late command candidate is caught by the wake probes in
//! `crates/memctrl/tests/prop_sched_index.rs`.
//!
//! [`MemoryController::next_wake`]: mopac_memctrl::controller::MemoryController::next_wake

use mopac::config::MitigationConfig;
use mopac_dram::flip::{FlipPlaneConfig, TrhDistribution};
use mopac_sim::attack::{attack_suite_configs, AttackConfig, AttackResult, AttackRun};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::obs::{MetricsSnapshot, SinkConfig};
use mopac_types::time::Cycle;
use mopac_workloads::attack::{
    AttackPattern, DoubleSidedHammer, MultiBankRoundRobin, SingleRowHammer, SrqFillAttack,
    TardinessAttack,
};

/// Long enough for several REF windows and, on the tracking engines,
/// ALERTs and their recovery.
const CYCLES: Cycle = 150_000;

fn battery(geom: DramGeometry) -> Vec<(&'static str, Box<dyn AttackPattern>)> {
    let bank = BankRef::new(0, 0);
    vec![
        ("double-sided", Box::new(DoubleSidedHammer::new(bank, 100))),
        (
            "single-row",
            Box::new(SingleRowHammer::new(bank, 100, 200, 8)),
        ),
        ("multi-bank", Box::new(MultiBankRoundRobin::new(geom, 99))),
        ("srq-fill", Box::new(SrqFillAttack::new(bank, 256))),
        ("tardiness", Box::new(TardinessAttack::new(geom, 100))),
    ]
}

/// Final state of one run: result, snapshot bytes and (when the sink is
/// on) the merged metrics.
struct Outcome {
    result: AttackResult,
    snapshot: Vec<u8>,
    metrics: Option<MetricsSnapshot>,
}

fn run(
    cfg: &AttackConfig,
    pattern: &mut dyn AttackPattern,
    sink: Option<SinkConfig>,
    lockstep: bool,
) -> Outcome {
    let mut run = AttackRun::new(cfg, pattern);
    if let Some(s) = sink {
        run.enable_metrics(s);
    }
    if lockstep {
        while run.now() < run.end() {
            run.run_until(run.now() + 1).unwrap();
        }
    } else {
        run.run_until(run.end()).unwrap();
    }
    if cfg.flip.is_some() {
        run.verify_readback();
    }
    Outcome {
        result: run.result(),
        snapshot: run.snapshot(),
        metrics: sink.and_then(|s| run.metrics_snapshot(s)),
    }
}

/// Runs the cell both ways, asserts identical outcomes and returns the
/// result, so callers can check the cell exercised what it is for.
fn assert_equivalent(
    cfg: &AttackConfig,
    make: &dyn Fn() -> Box<dyn AttackPattern>,
    sink: Option<SinkConfig>,
    label: &str,
) -> AttackResult {
    let fast = run(cfg, make().as_mut(), sink, false);
    let slow = run(cfg, make().as_mut(), sink, true);
    let (a, b) = (&fast.result, &slow.result);
    assert_eq!(a.cycles, b.cycles, "cycles diverged: {label}");
    assert_eq!(
        a.activations, b.activations,
        "activations diverged: {label}"
    );
    assert_eq!(a.dram, b.dram, "DramStats diverged: {label}");
    assert_eq!(a.violations, b.violations, "violations diverged: {label}");
    assert_eq!(a.flip, b.flip, "FlipStats diverged: {label}");
    assert!(
        fast.snapshot == slow.snapshot,
        "snapshot bytes diverged: {label}"
    );
    assert_eq!(fast.metrics, slow.metrics, "metrics diverged: {label}");
    fast.result
}

fn tiny(cfg: AttackConfig) -> AttackConfig {
    AttackConfig {
        geometry: DramGeometry::tiny(),
        ..cfg
    }
}

#[test]
fn every_engine_x_pattern_matches_lockstep() {
    let geom = DramGeometry::tiny();
    let mut alerts = 0;
    for (engine, cfg) in attack_suite_configs(500, CYCLES) {
        let cfg = tiny(cfg);
        for (i, (attack, _)) in battery(geom).into_iter().enumerate() {
            let make = || battery(geom).swap_remove(i).1;
            let r = assert_equivalent(&cfg, &make, None, &format!("{engine}/{attack}"));
            alerts += r.dram.alerts();
        }
    }
    assert!(
        alerts > 0,
        "no cell raised an ALERT; recovery went untested"
    );
}

#[test]
fn flip_plane_run_matches_lockstep() {
    let cfg = AttackConfig {
        flip: Some(
            FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 20, hi: 120 })
                .with_flip_probability(0.5),
        ),
        ..tiny(AttackConfig::new(MitigationConfig::prac(500), CYCLES))
    };
    let make =
        || -> Box<dyn AttackPattern> { Box::new(DoubleSidedHammer::new(BankRef::new(0, 0), 100)) };
    let r = assert_equivalent(&cfg, &make, None, "prac/double-sided/flip");
    assert!(r.flip.bit_flips > 0, "the weak-cell tail flipped no bit");
}

#[test]
fn metrics_sink_run_matches_lockstep() {
    let cfg = tiny(AttackConfig::new(MitigationConfig::mopac_d(500), CYCLES));
    let make =
        || -> Box<dyn AttackPattern> { Box::new(SrqFillAttack::new(BankRef::new(0, 0), 256)) };
    let r = assert_equivalent(
        &cfg,
        &make,
        Some(SinkConfig::default()),
        "mopac-d/srq-fill/metrics",
    );
    assert!(r.dram.alerts() > 0, "srq-fill raised no ALERT on mopac-d");
}
