//! Golden-equivalence suite: the event-driven time-skipping kernel must
//! produce *bit-identical* results to the lockstep reference kernel —
//! every `RunResult` field (including exact `f64` comparisons), the
//! controller statistics, and the typed errors from the livelock
//! watchdog and the cycle cap — across the mitigation × page-policy
//! matrix, under injected faults, and on multi-channel topologies,
//! where both kernels must also pause at the same cycle at every
//! `run_until_refs` boundary.
//!
//! Skipped cycles are provably no-ops (see DESIGN.md §8), so any
//! divergence here is a kernel bug, not acceptable noise.

use mopac::config::MitigationConfig;
use mopac_cpu::trace::{ReplayTrace, TraceRecord, TraceSource};
use mopac_dram::flip::{FlipPlaneConfig, FlipStats, TrhDistribution};
use mopac_memctrl::controller::{McStats, PagePolicy};
use mopac_sim::attack::{AttackConfig, AttackRun};
use mopac_sim::experiment::build_traces;
use mopac_sim::fault::{FaultKind, FaultPlan};
use mopac_sim::system::{KernelMode, RunResult, System, SystemConfig};
use mopac_types::addr::PhysAddr;
use mopac_types::error::MopacError;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::obs::{Counter, Hist, MetricsSnapshot, SinkConfig};
use mopac_types::rng::DetRng;
use mopac_types::time::Cycle;
use mopac_workloads::attack::DoubleSidedHammer;

fn tiny_cfg(mit: MitigationConfig, instrs: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(mit, instrs);
    cfg.geometry = DramGeometry::tiny();
    cfg.enable_checker = true;
    cfg
}

/// Runs the same configuration under both kernels and asserts the full
/// `RunResult` and `McStats` are identical.
fn assert_equivalent(mut cfg: SystemConfig, label: &str) {
    cfg.kernel = KernelMode::Lockstep;
    let traces = build_traces("xz", &cfg).unwrap();
    let (golden, golden_mc) = System::new(cfg.clone(), traces)
        .unwrap()
        .run_with_mc_stats()
        .unwrap();

    cfg.kernel = KernelMode::EventDriven;
    let traces = build_traces("xz", &cfg).unwrap();
    let (fast, fast_mc) = System::new(cfg, traces)
        .unwrap()
        .run_with_mc_stats()
        .unwrap();

    assert_eq!(golden, fast, "RunResult diverged: {label}");
    assert_eq!(golden_mc, fast_mc, "McStats diverged: {label}");
}

#[test]
fn equivalence_matrix_mitigation_x_page_policy() {
    type MitigationCtor = fn() -> MitigationConfig;
    let mitigations: [(&str, MitigationCtor); 6] = [
        ("prac", || MitigationConfig::prac(500)),
        ("mopac_c", || MitigationConfig::mopac_c(500)),
        ("mopac_d", || MitigationConfig::mopac_d(500)),
        ("qprac", || MitigationConfig::qprac(500)),
        ("cnc_prac", || MitigationConfig::cnc_prac(500)),
        ("practical", || MitigationConfig::practical(500)),
    ];
    let policies = [
        ("open", PagePolicy::Open),
        ("closed_idle", PagePolicy::ClosedIdle),
        ("timeout", PagePolicy::TimeoutNs(120.0)),
    ];
    for (mname, mit) in mitigations {
        for (pname, policy) in policies {
            let mut cfg = tiny_cfg(mit(), 20_000);
            cfg.mc.page_policy = policy;
            assert_equivalent(cfg, &format!("{mname} x {pname}"));
        }
    }
}

/// Strict close-page (the attacker's policy) is its own path through
/// the controller's wake logic.
#[test]
fn equivalence_closed_policy() {
    let mut cfg = tiny_cfg(MitigationConfig::prac(500), 20_000);
    cfg.mc.page_policy = PagePolicy::Closed;
    assert_equivalent(cfg, "prac x closed");
}

/// PRACtical with a real subarray split: the per-subarray update gates
/// and the bank-scoped RFM ladder add wake sources of their own, which
/// the event kernel must honor exactly.
#[test]
fn equivalence_practical_with_subarrays() {
    for subarrays in [1u32, 8] {
        let mut cfg = tiny_cfg(MitigationConfig::practical(500), 20_000);
        cfg.geometry.subarrays_per_bank = subarrays;
        assert_equivalent(cfg, &format!("practical x {subarrays} subarrays"));
    }
}

/// Delayed RFMs stretch device timing gates; the skip logic must not
/// jump over the stretched release points.
#[test]
fn equivalence_under_delayed_rfm() {
    let mut cfg = tiny_cfg(MitigationConfig::mopac_c(500), 20_000);
    cfg.fault_plan =
        Some(FaultPlan::new(0x51).with(0, FaultKind::DelayRfm { extra_cycles: 300 }));
    assert_equivalent(cfg, "mopac_c + DelayRfm");
}

/// An ALERT storm forces the controller through ABO stall mode, whose
/// per-cycle stall statistics the skip path compensates in bulk.
#[test]
fn equivalence_under_alert_storm() {
    let mut cfg = tiny_cfg(MitigationConfig::mopac_d(500), 20_000);
    cfg.fault_plan = Some(FaultPlan::new(0xBEEF).with(
        1_000,
        FaultKind::AlertStorm {
            subchannel: 0,
            period: 1_100,
            count: 25,
        },
    ));
    assert_equivalent(cfg, "mopac_d + AlertStorm");
}

/// The LLC and no-prefetch variants cover the remaining fetch paths.
#[test]
fn equivalence_with_llc_and_without_prefetch() {
    let mut cfg = tiny_cfg(MitigationConfig::prac(500), 20_000);
    cfg.use_llc = true;
    assert_equivalent(cfg, "prac + llc");

    let mut cfg = tiny_cfg(MitigationConfig::prac(500), 20_000);
    cfg.prefetch_distance = 0;
    assert_equivalent(cfg, "prac - prefetch");
}

/// Long-gap single-core runs alternate pure gap flow, where the core
/// fetches and retires every cycle and the event kernel steps each one,
/// with stretches where the ROB head waits on a load and the cycle
/// makes no progress, which the zero-progress skip jumps over. The skip
/// must not perturb a single statistic. Sweeping the gap length moves
/// the balance between stepped and skipped cycles; the write records
/// exercise the posted (non-ROB) path alongside blocking reads.
#[test]
fn equivalence_idle_heavy_bulk_regions() {
    let run = |kernel: KernelMode, gap: u32| {
        let mut cfg = tiny_cfg(MitigationConfig::prac(500), 60_000);
        cfg.kernel = kernel;
        let records: Vec<TraceRecord> = (0..64u64)
            .map(|i| TraceRecord {
                gap,
                addr: PhysAddr::new(i * 64 * 131),
                is_write: i % 7 == 0,
            })
            .collect();
        let trace = Box::new(ReplayTrace::new("idle", records)) as Box<dyn TraceSource>;
        System::new(cfg, vec![trace])
            .unwrap()
            .run_with_mc_stats()
            .unwrap()
    };
    for gap in [90, 700, 4_000] {
        let (golden, golden_mc) = run(KernelMode::Lockstep, gap);
        let (fast, fast_mc) = run(KernelMode::EventDriven, gap);
        assert_eq!(golden, fast, "RunResult diverged: gap={gap}");
        assert_eq!(golden_mc, fast_mc, "McStats diverged: gap={gap}");
    }
}

/// Property test over random fault plans: the per-mode `McStats`
/// replication in the event kernel's saturated fast path (ABO-stall /
/// refresh-mode / idle-with-work counters) must stay field-identical
/// to lockstep under arbitrary mixes of ALERT storms, dropped and
/// delayed RFMs, counter bit-flips and wedged banks. Every plan always
/// carries an ABO storm so the stall classification is exercised; the
/// rest of the plan is drawn from a deterministic RNG.
#[test]
fn stats_equivalence_under_random_fault_plans() {
    let mut rng = DetRng::from_seed(0x0B5E_C0DE);
    for case in 0..6u64 {
        let mut plan = FaultPlan::new(rng.next_u64());
        plan = plan.with(
            500 + rng.next_u64() % 4_000,
            FaultKind::AlertStorm {
                subchannel: (rng.next_u64() % 2) as u32,
                period: 900 + rng.next_u64() % 1_500,
                count: (5 + rng.next_u64() % 20) as u32,
            },
        );
        for _ in 0..rng.next_u64() % 3 {
            let at = 500 + rng.next_u64() % 8_000;
            let kind = match rng.next_u64() % 4 {
                0 => FaultKind::DropRfm {
                    count: (1 + rng.next_u64() % 3) as u32,
                },
                1 => FaultKind::DelayRfm {
                    extra_cycles: 50 + rng.next_u64() % 250,
                },
                2 => FaultKind::CounterBitFlip {
                    subchannel: (rng.next_u64() % 2) as u32,
                    bank: (rng.next_u64() % 4) as u32,
                    bit: (rng.next_u64() % 12) as u32,
                },
                _ => FaultKind::StuckBank {
                    subchannel: (rng.next_u64() % 2) as u32,
                    bank: (rng.next_u64() % 4) as u32,
                    duration: 2_000 + rng.next_u64() % 8_000,
                },
            };
            plan = plan.with(at, kind);
        }
        let mit = match case % 3 {
            0 => MitigationConfig::mopac_c(500),
            1 => MitigationConfig::mopac_d(500),
            _ => MitigationConfig::prac(500),
        };
        let mut cfg = tiny_cfg(mit, 15_000);
        cfg.fault_plan = Some(plan);
        assert_equivalent(cfg, &format!("random fault plan #{case}"));
    }
}

/// The observability invariant (DESIGN.md §11): enabling the metrics
/// sink changes *nothing* about the simulation — same `RunResult` bit
/// for bit (RNG streams included), under both kernels, with an ABO
/// storm active, on two channels. And the one export must equal the
/// stats structs: every counter every struct declares (iterated through
/// the structs' own `counters()` lists) matches the metrics-off run's
/// channel-summed struct, as do the read-latency histogram's count and
/// sum. A flip-plane attack cell covers `FlipStats` through
/// `AttackRun::metrics_snapshot`.
#[test]
fn metrics_sink_does_not_perturb_the_simulation() {
    fn assert_exported(snapshot: &MetricsSnapshot, expected: Vec<(Counter, u64)>, label: &str) {
        for (c, v) in expected {
            assert_eq!(
                snapshot.counter(c.name()),
                Some(v),
                "{} ({label})",
                c.name()
            );
        }
    }
    for kernel in [KernelMode::Lockstep, KernelMode::EventDriven] {
        let mut cfg = tiny_cfg(MitigationConfig::mopac_d(500), 20_000);
        cfg.geometry = DramGeometry {
            channels: 2,
            ..DramGeometry::tiny()
        };
        cfg.use_llc = true;
        cfg.kernel = kernel;
        cfg.fault_plan = Some(FaultPlan::new(0xAB0).with(
            1_000,
            FaultKind::AlertStorm {
                subchannel: 0,
                period: 1_100,
                count: 10,
            },
        ));
        let traces = build_traces("xz", &cfg).unwrap();
        let mut off_sys = System::new(cfg.clone(), traces).unwrap();
        let off = off_sys.run_to_completion().unwrap();
        let off_mc = off_sys.mc_stats();
        let off_llc = off_sys.llc_stats().expect("the LLC is on");

        let mut on_cfg = cfg.clone();
        on_cfg.metrics = Some(SinkConfig::default());
        let traces = build_traces("xz", &on_cfg).unwrap();
        let (on, snapshot) = System::new(on_cfg, traces)
            .unwrap()
            .run_with_metrics()
            .unwrap();
        let snapshot = snapshot.expect("metrics were enabled");

        assert_eq!(off, on, "metrics sink changed the simulation ({kernel:?})");
        assert!(
            snapshot.events.iter().any(|e| e.channel == 1),
            "channel 1 saw no traffic; the cross-channel sum went untested"
        );
        let expected = off_mc
            .counters()
            .chain(off.dram.counters())
            .chain(off.mitigation.counters())
            .chain(FlipStats::default().counters())
            .chain(off_llc.counters())
            .chain(off.prefetch.counters())
            .collect();
        assert_exported(&snapshot, expected, &format!("{kernel:?}"));
        let lat = snapshot
            .hist_merged(Hist::ReadLatency)
            .expect("reads were recorded");
        assert_eq!(
            lat.count, off_mc.reads_done,
            "latency hist count ({kernel:?})"
        );
        assert_eq!(
            lat.sum, off_mc.read_latency_sum,
            "latency hist sum ({kernel:?})"
        );
    }

    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        flip: Some(
            FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 20, hi: 120 })
                .with_flip_probability(0.5),
        ),
        ..AttackConfig::new(MitigationConfig::prac(500), 200_000)
    };
    let attack = |sink: Option<SinkConfig>| {
        let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let mut run = AttackRun::new(&cfg, &mut pattern);
        if let Some(s) = sink {
            run.enable_metrics(s);
        }
        run.run_until(run.end()).unwrap();
        run.verify_readback();
        let snapshot = sink.and_then(|s| run.metrics_snapshot(s));
        (run.result(), run.dram().mitigation_stats(), snapshot)
    };
    let (off, off_mitigation, _) = attack(None);
    let (on, _, snapshot) = attack(Some(SinkConfig::default()));
    let snapshot = snapshot.expect("metrics were enabled");
    assert_eq!((off.dram, off.flip), (on.dram, on.flip), "metrics sink changed the attack");
    assert!(
        off.flip.bit_flips > 0 && off.flip.corrupted_reads > 0,
        "the flip cell corrupted nothing: {:?}",
        off.flip
    );
    let expected = off
        .dram
        .counters()
        .chain(off_mitigation.counters())
        .chain(off.flip.counters())
        .collect();
    assert_exported(&snapshot, expected, "prac/double-sided/flip");
}

/// A single-core, long-gap workload is almost entirely idle — the
/// event kernel spends most of the run jumping. The satellite
/// regression: a skip that would land past `max_cycles` must clamp to
/// the cap and surface `CycleCapExceeded` with exactly the fields the
/// lockstep kernel reports.
#[test]
fn cycle_cap_identical_under_time_skipping() {
    let run = |kernel: KernelMode| {
        let mut cfg = tiny_cfg(MitigationConfig::baseline(), u64::MAX);
        cfg.kernel = kernel;
        cfg.livelock_window = 0;
        cfg.max_cycles = 30_000;
        // One record every ~2000 cycles: huge idle regions between
        // requests guarantee the cap lies inside a skip region.
        let records = vec![TraceRecord {
            gap: 10_000,
            addr: PhysAddr::new(0),
            is_write: false,
        }];
        let trace = Box::new(ReplayTrace::new("idle", records)) as Box<dyn TraceSource>;
        System::new(cfg, vec![trace]).unwrap().run().unwrap_err()
    };
    let golden = run(KernelMode::Lockstep);
    let fast = run(KernelMode::EventDriven);
    let MopacError::CycleCapExceeded {
        cap,
        finished_cores,
        total_cores,
    } = &fast
    else {
        panic!("expected CycleCapExceeded, got {fast}");
    };
    assert_eq!(*cap, 30_000);
    assert_eq!((*finished_cores, *total_cores), (0, 1));
    assert_eq!(format!("{golden:?}"), format!("{fast:?}"));
}

/// The livelock watchdog must fire at the same cycle with the same
/// stall accounting when the stall region is skipped instead of ticked.
#[test]
fn livelock_identical_under_time_skipping() {
    let run = |kernel: KernelMode| {
        let mut cfg = tiny_cfg(MitigationConfig::baseline(), 1_000_000);
        cfg.kernel = kernel;
        cfg.prefetch_distance = 0;
        cfg.livelock_window = 20_000;
        cfg.max_cycles = 50_000_000;
        cfg.fault_plan = Some(FaultPlan::new(0x11).with(
            100,
            FaultKind::StuckBank {
                subchannel: 0,
                bank: 0,
                duration: 40_000_000,
            },
        ));
        let records = vec![TraceRecord {
            gap: 0,
            addr: PhysAddr::new(0),
            is_write: false,
        }];
        let trace = Box::new(ReplayTrace::new("starved", records)) as Box<dyn TraceSource>;
        System::new(cfg, vec![trace]).unwrap().run().unwrap_err()
    };
    let golden = run(KernelMode::Lockstep);
    let fast = run(KernelMode::EventDriven);
    assert!(
        matches!(fast, MopacError::Livelock { .. }),
        "expected Livelock, got {fast}"
    );
    assert_eq!(format!("{golden:?}"), format!("{fast:?}"));
}

/// A seeded random workload: per-core access streams mixing hammer
/// bursts (gap 0 row ping-pong), short compute gaps, and long idle
/// stretches, with occasional stores — so one run crosses from
/// stepped cycles into zero-progress skips and back many times.
fn random_trace(core: u64, seed: u64, row_bytes: u64) -> Box<dyn TraceSource> {
    let mut rng = DetRng::from_seed(seed ^ core.wrapping_mul(0x9E37_79B9));
    let records = (0..400)
        .map(|_| {
            let gap = match rng.below(4) {
                0 => 0,
                1 => rng.below(8),
                2 => rng.below(200),
                _ => rng.below(5_000),
            } as u32;
            let row = rng.below(64);
            let col = rng.below(128);
            TraceRecord {
                gap,
                addr: PhysAddr::new(row * row_bytes * 8 + col * 64),
                is_write: rng.below(10) == 0,
            }
        })
        .collect();
    Box::new(ReplayTrace::new("multichannel-rand", records))
}

fn multichannel_cfg(channels: u32, mit: MitigationConfig, seed: u64) -> SystemConfig {
    let mut cfg = tiny_cfg(mit, 150_000);
    cfg.geometry = DramGeometry {
        channels,
        ..DramGeometry::tiny()
    };
    cfg.seed = seed;
    cfg
}

/// Runs one kernel through REF pauses 1, 3 and 5, then to the end;
/// returns the cycle of each pause, the result and the controller
/// statistics.
fn run_with_pauses(
    mut cfg: SystemConfig,
    kernel: KernelMode,
) -> ([Cycle; 3], RunResult, McStats) {
    cfg.kernel = kernel;
    let row_bytes = u64::from(cfg.geometry.row_bytes);
    let traces = (0..8)
        .map(|c| random_trace(c, cfg.seed, row_bytes))
        .collect();
    let mut sys = System::new(cfg, traces).unwrap();
    let pauses = [1, 3, 5].map(|refs| {
        let done = sys.run_until_refs(refs).unwrap();
        assert!(done.is_none(), "run finished before REF {refs}; raise the budget");
        sys.now()
    });
    let (result, mc) = sys.run_with_mc_stats().unwrap();
    (pauses, result, mc)
}

/// Runs a multi-channel configuration under both kernels and asserts
/// each REF pause lands on the same cycle, then that the final
/// `RunResult` and `McStats` are identical.
fn assert_multichannel_equivalent(cfg: &SystemConfig, label: &str) {
    let (golden_pauses, golden, golden_mc) = run_with_pauses(cfg.clone(), KernelMode::Lockstep);
    let (fast_pauses, fast, fast_mc) = run_with_pauses(cfg.clone(), KernelMode::EventDriven);
    assert_eq!(golden_pauses, fast_pauses, "pause cycles diverged: {label}");
    assert_eq!(golden, fast, "RunResult diverged: {label}");
    assert_eq!(golden_mc, fast_mc, "McStats diverged: {label}");
}

/// Regression: the step that executes the REF reaching a
/// `run_until_refs` boundary must end the run there, before any time
/// jump that step licensed. An event kernel that jumped in the same
/// loop iteration as that step paused later than lockstep (cycle 11785
/// instead of 11762 at REF 3) with identical final results.
#[test]
fn multichannel_pause_cycle_matches_lockstep() {
    let cfg = multichannel_cfg(2, MitigationConfig::mopac_d(500), 0xB47C_0001);
    assert_multichannel_equivalent(&cfg, "2ch mopac_d");
}

#[test]
fn multichannel_equivalence_mopac_d() {
    let cfg = multichannel_cfg(4, MitigationConfig::mopac_d(500), 0xB47C_0001);
    assert_multichannel_equivalent(&cfg, "4ch mopac_d");
}

#[test]
fn multichannel_equivalence_qprac_with_alert_storm() {
    let mut cfg = multichannel_cfg(4, MitigationConfig::qprac(500), 0xB47C_0002);
    cfg.fault_plan = Some(FaultPlan::new(0xF417).with(
        1_500,
        FaultKind::AlertStorm {
            subchannel: 0,
            period: 1_100,
            count: 20,
        },
    ));
    assert_multichannel_equivalent(&cfg, "4ch qprac + AlertStorm");
}

#[test]
fn multichannel_equivalence_practical_with_delayed_rfm() {
    let mut cfg = multichannel_cfg(4, MitigationConfig::practical(500), 0xB47C_0003);
    cfg.geometry.subarrays_per_bank = 4;
    cfg.fault_plan =
        Some(FaultPlan::new(0x51).with(2_000, FaultKind::DelayRfm { extra_cycles: 300 }));
    assert_multichannel_equivalent(&cfg, "4ch practical + DelayRfm");
}
