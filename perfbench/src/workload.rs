//! The three closed-loop workloads and their cells.
//!
//! A workload is a fixed list of cells built from one seed. A *pass*
//! runs every cell back to back on the calling thread — the next cell
//! starts when the previous one returns — and reports where the host
//! time went (construction vs. run calls) together with a digest of the
//! simulated results.

use crate::capture::{CaptureTrace, CellCapture, CountingPattern, SINK};
use crate::host::CpuInstant;
use mopac::config::MitigationConfig;
use mopac::EngineRegistry;
use mopac_dram::flip::{EccMode, FlipPlaneConfig, TrhDistribution};
use mopac_memctrl::controller::McConfig;
use mopac_memctrl::mapping::Mapping;
use mopac_sim::attack::{AttackConfig, AttackResult, AttackRun};
use mopac_sim::campaign::fault_matrix;
use mopac_sim::experiment::build_traces;
use mopac_sim::fault::FaultPlan;
use mopac_sim::system::{KernelMode, RunResult, System, SystemConfig};
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::obs::MetricsSnapshot;
use mopac_types::time::Cycle;
use mopac_workloads::attack::{
    AttackPattern, DoubleSidedHammer, MultiBankRoundRobin, SingleRowHammer, SrqFillAttack,
    TardinessAttack,
};

/// Rowhammer threshold every engine preset is instantiated at (the
/// paper's default).
pub const T_RH: u64 = 500;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 registry engines × {mix1, cam4}, paper geometry, open page,
    /// checker off, fixed instruction budget.
    PaperSweep,
    /// The attack_suite battery (7 tracking engines × 5 patterns) and
    /// the attack_success flip sweep (7 engines × 3 T_RH distributions ×
    /// ECC off/on), close page, checker on, fixed cycle budgets.
    AttackBattery,
    /// A Table-4 mix on 4 channels with the checker on: 8 engines, each
    /// paired with one fault plan, with periodic in-memory snapshots and
    /// one restore into a freshly built system per cell.
    Mc4Faults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Self::PaperSweep, Self::AttackBattery, Self::Mc4Faults];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperSweep => "paper_sweep",
            Self::AttackBattery => "attack_battery",
            Self::Mc4Faults => "mc4_faults",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulation budgets. [`Budget::BENCH`] is what the benchmark runs;
/// the tests use [`Budget::SMOKE`] to exercise the same code quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Instructions per core in each `paper_sweep` cell.
    pub sweep_instrs: u64,
    /// DRAM cycles per attack_suite battery cell.
    pub battery_cycles: Cycle,
    /// DRAM cycles per attack_success flip cell.
    pub flip_cycles: Cycle,
    /// Instructions per core in each `mc4_faults` cell.
    pub mc4_instrs: u64,
    /// REF commands between two `mc4_faults` snapshot pauses.
    pub mc4_pause_refs: u64,
}

impl Budget {
    /// The benchmark's budgets.
    pub const BENCH: Budget = Budget {
        sweep_instrs: 100_000,
        battery_cycles: 400_000,
        flip_cycles: 400_000,
        mc4_instrs: 60_000,
        mc4_pause_refs: 12,
    };

    /// Small budgets for the benchmark's own tests.
    pub const SMOKE: Budget = Budget {
        sweep_instrs: 2_000,
        battery_cycles: 6_000,
        flip_cycles: 6_000,
        mc4_instrs: 10_000,
        mc4_pause_refs: 4,
    };
}

/// SplitMix64 finalizer: derives every simulator, trace and pattern
/// seed of a cell from the workload seed.
#[must_use]
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An attack pattern, constructible afresh (the per-layer replay
/// re-creates the cell's pattern to time it standalone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// Double-sided hammer around `victim`.
    DoubleSided { victim: u32 },
    /// Single-row hammer with a rotating conflict row.
    SingleRow { aggressor: u32, conflict_base: u32 },
    /// Round-robin over every bank at `row`.
    MultiBank { row: u32 },
    /// Distinct rows of one bank, filling MoPAC-D's SRQ.
    SrqFill { rows: u32 },
    /// ALERT-tardiness pattern at `row`.
    Tardiness { row: u32 },
}

impl PatternSpec {
    /// The attack_suite battery, with the rows drawn from `seed`.
    fn battery(seed: u64) -> [(&'static str, PatternSpec); 5] {
        // Rows stay clear of both bank edges so every victim has two
        // neighbours.
        let row = |salt: u64| 64 + (derive_seed(seed, salt) % 60_000) as u32;
        [
            ("double-sided", Self::DoubleSided { victim: row(1) }),
            (
                "single-row",
                Self::SingleRow {
                    aggressor: row(2),
                    conflict_base: row(3),
                },
            ),
            ("multi-bank", Self::MultiBank { row: row(4) }),
            ("srq-fill", Self::SrqFill { rows: 256 }),
            ("tardiness", Self::Tardiness { row: row(5) }),
        ]
    }

    /// Builds the pattern on `geom`.
    #[must_use]
    pub fn build(self, geom: DramGeometry) -> Box<dyn AttackPattern> {
        let bank = BankRef::new(0, 0);
        match self {
            Self::DoubleSided { victim } => Box::new(DoubleSidedHammer::new(bank, victim)),
            Self::SingleRow {
                aggressor,
                conflict_base,
            } => Box::new(SingleRowHammer::new(bank, aggressor, conflict_base, 8)),
            Self::MultiBank { row } => Box::new(MultiBankRoundRobin::new(geom, row)),
            Self::SrqFill { rows } => Box::new(SrqFillAttack::new(bank, rows)),
            Self::Tardiness { row } => Box::new(TardinessAttack::new(geom, row)),
        }
    }
}

/// What a cell runs.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// A full-system run of a Table-4 workload. With `pause_refs`, the
    /// run pauses every that many REFs (up to [`SNAPSHOTS_PER_CELL`]
    /// times) for an in-memory snapshot and, at the first pause,
    /// restores into a freshly built system.
    System {
        cfg: SystemConfig,
        mix: &'static str,
        pause_refs: Option<u64>,
    },
    /// A maximum-rate attack run; `readback` ends it with the attacker's
    /// verification pass over the victims.
    Attack {
        cfg: AttackConfig,
        pattern: PatternSpec,
        readback: bool,
    },
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `engine/variant` label.
    pub label: String,
    /// Registry key of the engine under test.
    pub engine: &'static str,
    /// What to run.
    pub kind: CellKind,
    /// For attack_success cells: the index of the ECC-off cell this
    /// ECC-on cell is compared against.
    pub ecc_pair_of: Option<usize>,
}

impl Cell {
    /// Whether this cell's engine tracks activations.
    #[must_use]
    pub fn tracks(&self) -> bool {
        match &self.kind {
            CellKind::System { cfg, .. } => cfg.mitigation.tracks(),
            CellKind::Attack { cfg, .. } => cfg.mitigation.tracks(),
        }
    }

    /// The mitigation under test.
    #[must_use]
    pub fn mitigation(&self) -> MitigationConfig {
        match &self.kind {
            CellKind::System { cfg, .. } => cfg.mitigation,
            CellKind::Attack { cfg, .. } => cfg.mitigation,
        }
    }
}

/// Every config field set explicitly: one shard thread, the
/// event-driven kernel, no metrics sink, no LLC.
fn system_config(
    mitigation: MitigationConfig,
    geometry: DramGeometry,
    instrs: u64,
    checker: bool,
    seed: u64,
    fault_plan: Option<FaultPlan>,
) -> SystemConfig {
    SystemConfig {
        geometry,
        mitigation,
        mc: McConfig {
            seed: derive_seed(seed, 0x4D43),
            ..McConfig::default()
        },
        mapping: Mapping::paper_default(),
        instrs_per_core: instrs,
        use_llc: false,
        enable_checker: checker,
        seed,
        max_cycles: 2_000_000_000,
        prefetch_distance: 16,
        prefetch_trackers: 8,
        livelock_window: 10_000_000,
        fault_plan,
        kernel: KernelMode::EventDriven,
        metrics: None,
        shard_threads: 1,
    }
}

fn attack_config(
    mitigation: MitigationConfig,
    cycles: Cycle,
    seed: u64,
    flip: Option<FlipPlaneConfig>,
) -> AttackConfig {
    AttackConfig {
        geometry: DramGeometry::ddr5_32gb(),
        mitigation,
        cycles,
        window: 32,
        enable_checker: true,
        seed,
        flip,
    }
}

/// The attack_success cell populations.
pub const DISTRIBUTIONS: [(&str, TrhDistribution); 3] = [
    ("const500", TrhDistribution::Constant(500)),
    (
        "uniform20-120",
        TrhDistribution::Uniform { lo: 20, hi: 120 },
    ),
    (
        "lognormal300",
        TrhDistribution::LogNormal {
            median: 300.0,
            sigma: 0.4,
        },
    ),
];

/// Snapshot pauses per `mc4_faults` cell; the cell restores into a
/// freshly built system at the first and runs to completion after the
/// last, so every cell does the same snapshot work whatever its length.
pub const SNAPSHOTS_PER_CELL: u64 = 2;

/// The Table-4 mix `mc4_faults` runs.
pub const MC4_MIX: &str = "mix2";

/// Builds a workload's cells for `seed`.
#[must_use]
pub fn cells(workload: Workload, seed: u64, budget: &Budget) -> Vec<Cell> {
    let registry = EngineRegistry::builtin();
    let mut out = Vec::new();
    let mut salt = 0u64;
    let mut next_seed = || {
        salt += 1;
        derive_seed(seed, salt)
    };
    match workload {
        Workload::PaperSweep => {
            for spec in registry.specs() {
                for mix in ["mix1", "cam4"] {
                    let cfg = system_config(
                        (spec.preset)(T_RH),
                        DramGeometry::ddr5_32gb(),
                        budget.sweep_instrs,
                        false,
                        next_seed(),
                        None,
                    );
                    out.push(Cell {
                        label: format!("{}/{mix}", spec.name),
                        engine: spec.name,
                        kind: CellKind::System {
                            cfg,
                            mix,
                            pause_refs: None,
                        },
                        ecc_pair_of: None,
                    });
                }
            }
        }
        Workload::AttackBattery => {
            let tracking: Vec<_> = registry.specs().iter().filter(|s| s.tracks()).collect();
            for spec in &tracking {
                for (attack, pattern) in PatternSpec::battery(seed) {
                    out.push(Cell {
                        label: format!("{}/{attack}", spec.name),
                        engine: spec.name,
                        kind: CellKind::Attack {
                            cfg: attack_config(
                                (spec.preset)(T_RH),
                                budget.battery_cycles,
                                next_seed(),
                                None,
                            ),
                            pattern,
                            readback: false,
                        },
                        ecc_pair_of: None,
                    });
                }
            }
            let victim = 64 + (derive_seed(seed, 0xF11F) % 60_000) as u32;
            for spec in &tracking {
                for (dist_name, dist) in DISTRIBUTIONS {
                    // ECC on and off share the seed: the flip draws are
                    // ECC-independent, so ECC-on can only hide corruption.
                    let cell_seed = next_seed();
                    let base = FlipPlaneConfig::new(dist).with_flip_probability(0.25);
                    for ecc in [false, true] {
                        let flip = if ecc {
                            base.with_ecc(EccMode::Sec)
                        } else {
                            base
                        };
                        let ecc_pair_of = ecc.then(|| out.len() - 1);
                        out.push(Cell {
                            label: format!(
                                "{}/{dist_name}/{}",
                                spec.name,
                                if ecc { "ecc-on" } else { "ecc-off" }
                            ),
                            engine: spec.name,
                            kind: CellKind::Attack {
                                cfg: attack_config(
                                    (spec.preset)(T_RH),
                                    budget.flip_cycles,
                                    cell_seed,
                                    Some(flip),
                                ),
                                pattern: PatternSpec::DoubleSided { victim },
                                readback: true,
                            },
                            ecc_pair_of,
                        });
                    }
                }
            }
        }
        Workload::Mc4Faults => {
            let plans = fault_matrix();
            let geometry = DramGeometry {
                channels: 4,
                ..DramGeometry::ddr5_32gb()
            };
            for (i, spec) in registry.specs().iter().enumerate() {
                let (fault_name, plan) = &plans[i % plans.len()];
                let cell_seed = next_seed();
                // The same fault schedule, re-seeded from the workload
                // seed (counter-flip rows and trace corruption draw
                // from it).
                let plan = plan
                    .faults()
                    .iter()
                    .fold(FaultPlan::new(derive_seed(cell_seed, 0xFA)), |p, f| {
                        p.with(f.at, f.kind)
                    });
                let cfg = system_config(
                    (spec.preset)(T_RH),
                    geometry,
                    budget.mc4_instrs,
                    true,
                    cell_seed,
                    Some(plan),
                );
                out.push(Cell {
                    label: format!("{}/{fault_name}", spec.name),
                    engine: spec.name,
                    kind: CellKind::System {
                        cfg,
                        mix: MC4_MIX,
                        pause_refs: Some(budget.mc4_pause_refs),
                    },
                    ecc_pair_of: None,
                });
            }
        }
    }
    out
}

/// The simulated results of one cell: the digest fields plus the
/// counts the replays check against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CellResult {
    /// DRAM cycles simulated.
    pub cycles: u64,
    /// ACT commands.
    pub acts: u64,
    /// REF commands.
    pub refs: u64,
    /// RFM commands.
    pub rfms: u64,
    /// ALERT assertions (all causes).
    pub alerts: u64,
    /// Rows mitigated.
    pub mitigations: u64,
    /// Rowhammer-oracle violations.
    pub violations: u64,
    /// Reads that returned corrupted data (after ECC).
    pub corrupted_reads: u64,
    /// Fault events the injector applied.
    pub faults_applied: u64,
    /// Device-level injected faults (diverge a command replay).
    pub device_faults: u64,
}

impl CellResult {
    pub(crate) fn from_run(r: &RunResult) -> Self {
        Self {
            cycles: r.cycles,
            acts: r.dram.activates,
            refs: r.dram.refreshes,
            rfms: r.dram.rfms,
            alerts: r.dram.alerts(),
            mitigations: r.dram.mitigations,
            violations: r.violations,
            corrupted_reads: 0,
            faults_applied: r.faults_applied,
            device_faults: r.dram.injected_faults,
        }
    }

    pub(crate) fn from_attack(r: &AttackResult) -> Self {
        Self {
            cycles: r.cycles,
            acts: r.dram.activates,
            refs: r.dram.refreshes,
            rfms: r.dram.rfms,
            alerts: r.dram.alerts(),
            mitigations: r.dram.mitigations,
            violations: r.violations,
            corrupted_reads: r.flip.corrupted_reads,
            faults_applied: 0,
            device_faults: r.dram.injected_faults,
        }
    }
}

/// Host-time split of one cell, in seconds on the thread CPU clock
/// ([`CpuInstant`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellTiming {
    /// Trace construction (`build_traces`).
    pub traces_s: f64,
    /// `System::new`, restore targets included.
    pub system_new_s: f64,
    /// `AttackRun::new`.
    pub attack_new_s: f64,
    /// Inside run calls (`run`, `run_until_refs`, `run_until`).
    pub run_s: f64,
    /// `System::snapshot` calls.
    pub save_s: f64,
    /// `System::restore` calls.
    pub restore_s: f64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Restores performed.
    pub restores: u64,
    /// Bytes over every snapshot taken.
    pub snapshot_bytes: u64,
}

impl CellTiming {
    /// Construction time: traces, systems, attack runs and restore
    /// targets.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.traces_s + self.system_new_s + self.attack_new_s
    }
}

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Simulated results (`Err` if the cell failed to run).
    pub result: Result<CellResult, String>,
    /// Host-time split.
    pub timing: CellTiming,
    /// Per-layer capture (traced passes only).
    pub capture: Option<CellCapture>,
}

fn secs(t: CpuInstant) -> f64 {
    t.elapsed_s()
}

fn build_system(
    cfg: &SystemConfig,
    mix: &str,
    traced: bool,
    timing: &mut CellTiming,
    capture: Option<&mut CellCapture>,
) -> MopacResult<System> {
    let mut cfg = cfg.clone();
    if traced {
        cfg.metrics = Some(SINK);
    }
    let t = CpuInstant::now();
    let traces = build_traces(mix, &cfg)?;
    timing.traces_s += secs(t);
    let traces = match capture {
        Some(cap) => CaptureTrace::wrap_all(traces, cap),
        None => traces,
    };
    let t = CpuInstant::now();
    let sys = System::new(cfg, traces);
    timing.system_new_s += secs(t);
    sys
}

fn run_system_cell(
    cfg: &SystemConfig,
    mix: &str,
    pause_refs: Option<u64>,
    traced: bool,
    timing: &mut CellTiming,
    mut capture: Option<&mut CellCapture>,
) -> MopacResult<CellResult> {
    let mut sys = build_system(cfg, mix, traced, timing, capture.as_deref_mut())?;
    let Some(every) = pause_refs else {
        let t = CpuInstant::now();
        let (result, snapshot) = sys.run_with_metrics()?;
        timing.run_s += secs(t);
        if let (Some(cap), Some(snap)) = (capture, snapshot) {
            cap.absorb_system(cfg, &result, &snap);
        }
        return Ok(CellResult::from_run(&result));
    };
    let mut pauses = 0u64;
    let result = loop {
        let t = CpuInstant::now();
        let step = if pauses < SNAPSHOTS_PER_CELL {
            sys.run_until_refs((pauses + 1) * every)?
        } else {
            Some(sys.run_to_completion()?)
        };
        timing.run_s += secs(t);
        if let Some(result) = step {
            break result;
        }
        pauses += 1;
        let t = CpuInstant::now();
        let snap = sys.snapshot();
        timing.save_s += secs(t);
        timing.snapshots += 1;
        timing.snapshot_bytes += snap.len() as u64;
        if pauses == 1 {
            // Resume as a checkpointed run would: drop the system, then
            // continue on a freshly built one restored from the snapshot.
            drop(sys);
            sys = build_system(cfg, mix, traced, timing, capture.as_deref_mut())?;
            let t = CpuInstant::now();
            sys.restore(&snap)?;
            timing.restore_s += secs(t);
            timing.restores += 1;
        }
    };
    if let Some(cap) = capture {
        let snap = sys
            .metrics_snapshot()
            .ok_or_else(|| MopacError::internal("traced system produced no metrics"))?;
        cap.absorb_system(cfg, &result, &snap);
    }
    Ok(CellResult::from_run(&result))
}

/// Drives one attack run; with `traced`, also returns the merged
/// metrics snapshot and the device seed.
fn drive_attack(
    cfg: &AttackConfig,
    pattern: &mut dyn AttackPattern,
    readback: bool,
    timing: &mut CellTiming,
    traced: bool,
) -> MopacResult<(AttackResult, Option<(MetricsSnapshot, u64)>)> {
    let t = CpuInstant::now();
    let mut run = AttackRun::new(cfg, pattern);
    timing.attack_new_s += secs(t);
    if traced {
        run.enable_metrics(SINK);
    }
    let t = CpuInstant::now();
    run.run_until(cfg.cycles)?;
    timing.run_s += secs(t);
    if readback {
        run.verify_readback();
    }
    let result = run.result();
    let extra = if traced {
        let snap = run
            .metrics_snapshot(SINK)
            .ok_or_else(|| MopacError::internal("traced attack produced no metrics"))?;
        Some((snap, run.dram().config().seed))
    } else {
        None
    };
    Ok((result, extra))
}

fn run_attack_cell(
    cfg: &AttackConfig,
    pattern: PatternSpec,
    readback: bool,
    timing: &mut CellTiming,
    capture: Option<&mut CellCapture>,
) -> MopacResult<CellResult> {
    let mut built = pattern.build(cfg.geometry);
    let Some(cap) = capture else {
        let (result, _) = drive_attack(cfg, built.as_mut(), readback, timing, false)?;
        return Ok(CellResult::from_attack(&result));
    };
    let mut counting = CountingPattern::new(built.as_mut());
    let (result, extra) = drive_attack(cfg, &mut counting, readback, timing, true)?;
    if let Some((snap, seed)) = extra {
        cap.absorb_attack(cfg, seed, counting.count(), &result, &snap);
    }
    Ok(CellResult::from_attack(&result))
}

/// Runs one cell. `traced` turns the metrics sink on and fills the
/// returned [`CellCapture`].
#[must_use]
pub fn run_cell(cell: &Cell, traced: bool) -> CellOutcome {
    let mut timing = CellTiming::default();
    let mut capture = traced.then(|| CellCapture::new(cell));
    let result = match &cell.kind {
        CellKind::System {
            cfg,
            mix,
            pause_refs,
        } => run_system_cell(cfg, mix, *pause_refs, traced, &mut timing, capture.as_mut()),
        CellKind::Attack {
            cfg,
            pattern,
            readback,
        } => run_attack_cell(cfg, *pattern, *readback, &mut timing, capture.as_mut()),
    };
    CellOutcome {
        result: result.map_err(|e| e.to_string()),
        timing,
        capture,
    }
}
