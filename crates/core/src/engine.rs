//! The pluggable mitigation-engine seam.
//!
//! Every Rowhammer mitigation modelled by this workspace implements
//! [`MitigationEngine`]: the full per-bank lifecycle the DRAM model
//! drives (`on_activate` / `on_precharge` / `on_ref` / `alert_cause` /
//! `service_abo`) plus the fault hooks (`corrupt_counter`). The DRAM
//! bank holds one `Box<dyn MitigationEngine>`, so the bank FSM and the
//! fault injector never see a concrete engine type.
//!
//! An [`EngineSpec`] is the one description of a design: its registry
//! name, its preset, its constructor and the [`TimingDemands`] it makes
//! of the memory controller and the timing model. A
//! [`MitigationConfig`] names its design by spec, so [`build_engine`]
//! and [`TimingDemands::for_config`] are lookups through it. The specs
//! are enumerated by name through the string-keyed [`EngineRegistry`]:
//! campaign drivers, the attack suite and benches iterate the registry
//! instead of hard-coding design lists.
//!
//! To add a new engine, see DESIGN.md §9: implement the trait (usually
//! in a new `crate::engines` submodule) and add one [`EngineSpec`] to
//! the registry. Everything downstream — `run_workload`, `AttackConfig`
//! suites, the fault campaign, the kernel-equivalence matrix — picks it
//! up from the registry.

use crate::bank::{AboService, AlertCause, MitigationStats};
use crate::config::MitigationConfig;
use crate::engines::{
    BaselineEngine, CncPracEngine, MopacDEngine, PracEngine, PracticalEngine, QpracEngine,
};
use mopac_types::obs::{Hist, MetricsSink};
use mopac_types::rng::DetRng;
use std::ops::Range;

/// How much of a sub-channel an ABO/RFM recovery stall blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryScope {
    /// The whole sub-channel stalls while recovery runs (JEDEC ABO;
    /// every design that predates bank isolation).
    SubChannel,
    /// Only the alerting bank(s) stall; sibling banks keep issuing
    /// (PRACtical's bank-isolated recovery).
    Bank,
}

/// What a mitigation design demands of the memory controller and the
/// DRAM timing model.
///
/// This is the only channel through which timing behaviour may depend
/// on the mitigation. The demands are a static property of the design
/// (its [`EngineSpec`]) and its configuration: the controller and
/// device read them once at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingDemands {
    /// Every precharge performs the PRAC counter read-modify-write, so
    /// the device uses the PRAC timing set unconditionally (PRAC,
    /// QPRAC).
    pub always_prac_timings: bool,
    /// The controller flips a coin with this probability per activation
    /// and closes selected rows with the long-latency `PREcu`
    /// (MoPAC-C). `None` — no controller-side sampling, no coin drawn.
    pub precu_probability: Option<f64>,
    /// The controller force-closes any row held open this long
    /// (Row-Press hardening for controller-side designs). `None` — no
    /// cap.
    pub row_open_cap_ns: Option<f64>,
    /// How much of the sub-channel an ABO/RFM recovery stall blocks.
    /// Under [`RecoveryScope::Bank`] the controller keeps scheduling
    /// sibling banks while the alerting bank(s) recover.
    pub recovery_scope: RecoveryScope,
    /// Every precharge's counter read-modify-write is deferred into the
    /// closed row's subarray: the bank returns to base timings
    /// immediately and only back-to-back activations into the *same*
    /// subarray wait for the update (PRACtical). Updates to different
    /// subarrays of one bank proceed in parallel.
    pub subarray_parallel_updates: bool,
}

impl TimingDemands {
    /// Base DDR5 timings, no controller-side involvement (baseline,
    /// MoPAC-D, CnC-PRAC).
    #[must_use]
    pub fn base() -> Self {
        Self {
            always_prac_timings: false,
            precu_probability: None,
            row_open_cap_ns: None,
            recovery_scope: RecoveryScope::SubChannel,
            subarray_parallel_updates: false,
        }
    }

    /// The demands of the design selected by `cfg`.
    #[must_use]
    pub fn for_config(cfg: &MitigationConfig) -> Self {
        (cfg.engine.demands)(cfg)
    }
}

/// One Rowhammer mitigation design, embedded per bank.
///
/// The DRAM model drives the lifecycle events; the engine owns all
/// tracking state (counters, trackers, queues) and reports when the
/// bank must pull ALERT. Engines must be deterministic: any randomness
/// comes from the forked [`DetRng`] passed at construction.
pub trait MitigationEngine: std::fmt::Debug + Send {
    /// The configuration this engine was built from.
    fn config(&self) -> &MitigationConfig;

    /// Accumulated statistics.
    fn stats(&self) -> MitigationStats;

    /// An ACT hit `row`. `open_ns` is unused at activation time (open
    /// time is only known at precharge) but kept for symmetry; pass 0.
    fn on_activate(&mut self, row: u32, open_ns: f64);

    /// A PRE closed `row`. `counter_update` — whether this precharge
    /// carries the PRAC read-modify-write (driven by
    /// [`TimingDemands`]: always for PRAC/QPRAC, the controller's coin
    /// for MoPAC-C, never otherwise). `open_ns` — how long the row was
    /// open, for Row-Press accounting.
    fn on_precharge(&mut self, row: u32, counter_update: bool, open_ns: f64);

    /// A REF refreshed `refreshed_rows`. Engines may drain deferred
    /// work or mitigate proactively inside the refresh window; whatever
    /// they did is reported back so the device can inform the security
    /// oracle.
    ///
    /// PRAC counters are *not* reset by periodic refresh: the counter is
    /// stored with the row and survives the restore. Resetting it would
    /// be insecure — refreshing an aggressor protects the aggressor's
    /// own cells, not its victims, so its accumulated count must stand
    /// until the row is actually mitigated.
    fn on_ref(&mut self, refreshed_rows: Range<u32>) -> AboService;

    /// Whether (and why) this bank needs ALERT right now.
    fn alert_cause(&self) -> Option<AlertCause>;

    /// One ABO (RFM) reached this bank: perform the highest-priority
    /// pending work (mitigation or deferred counter updates).
    fn service_abo(&mut self) -> AboService;

    /// A deferred counter update was posted into `subarray` (only
    /// called for engines whose [`TimingDemands`] set
    /// `subarray_parallel_updates`). The counter *state* was already
    /// applied by [`MitigationEngine::on_precharge`]; this hook lets
    /// the engine account per-subarray update pressure. The default
    /// ignores it.
    fn on_subarray_update(&mut self, _subarray: u32) {}

    /// Direct read of a row's activation counter (chip 0 for
    /// replicated designs).
    fn counter(&self, row: u32) -> u32;

    /// Fault hook: flips one bit of `row`'s counter storage. Trackers
    /// are deliberately not re-observed — hardware would not notice a
    /// silent bit flip either.
    fn corrupt_counter(&mut self, row: u32, bit: u32);

    /// Occupancy of any deferred-work queues, one entry per replicated
    /// instance (empty for designs without queues).
    fn srq_occupancy(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Publishes this engine's observability metrics onto `sink`
    /// (called by the device at snapshot time, never on the command
    /// path). `flat_bank` labels per-bank series. The default
    /// implementation samples any deferred-work queue occupancies into
    /// the [`Hist::SrqOccupancy`] histogram; engines with richer
    /// internal state (tracker pressure, per-chip skew) may record
    /// additional series. A disabled sink makes every record call a
    /// no-op, so implementations need no enablement check.
    fn record_metrics(&self, flat_bank: u32, sink: &mut MetricsSink) {
        for occ in self.srq_occupancy() {
            sink.record(Hist::SrqOccupancy, flat_bank, occ as u64);
        }
    }

    /// Serializes all runtime state (counters, trackers, queues,
    /// per-chip RNG streams) into `w`. Together with
    /// [`MitigationEngine::load_state`] this must round-trip exactly:
    /// restoring into a freshly built engine of the same configuration
    /// and then driving any event sequence must behave bit-identically
    /// to the original engine.
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter);

    /// Restores runtime state previously written by
    /// [`MitigationEngine::save_state`] into a freshly built engine of
    /// the same configuration. Configuration (row count, thresholds,
    /// queue capacities) is not in the stream: the device checks its
    /// whole configuration once before any engine loads. Lengths and
    /// rows read from the stream are still bounds-checked; a violation
    /// is [`mopac_types::MopacError::Snapshot`].
    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()>;

    /// Clones the engine behind the trait object (the DRAM bank and
    /// device derive `Clone`).
    fn clone_box(&self) -> Box<dyn MitigationEngine>;
}

impl Clone for Box<dyn MitigationEngine> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Builds the engine for `cfg` for a bank with `rows` rows, through
/// the constructor of `cfg.engine`.
///
/// `rng` seeds any per-chip random streams; fork it per bank so banks
/// are independent.
///
/// # Panics
///
/// Panics if `rows` is zero.
#[must_use]
pub fn build_engine(cfg: &MitigationConfig, rows: u32, rng: DetRng) -> Box<dyn MitigationEngine> {
    assert!(rows > 0, "bank must have rows");
    (cfg.engine.build)(cfg, rows, rng)
}

/// One mitigation design: everything the rest of the workspace needs
/// to know about it, in one place.
///
/// Specs compare by name, and print as their name.
#[derive(Clone, Copy)]
pub struct EngineSpec {
    /// Stable registry key (CSV column values, CLI arguments).
    pub name: &'static str,
    /// Builds the design's default configuration at a threshold.
    pub preset: fn(u64) -> MitigationConfig,
    /// Builds the design's per-bank engine (see [`build_engine`]).
    pub build: fn(&MitigationConfig, u32, DetRng) -> Box<dyn MitigationEngine>,
    /// What the design demands of the controller and timing model (see
    /// [`TimingDemands::for_config`]).
    pub demands: fn(&MitigationConfig) -> TimingDemands,
}

impl EngineSpec {
    /// Whether this design tracks activations at all (everything but
    /// the baseline).
    #[must_use]
    pub fn tracks(&self) -> bool {
        *self != BASELINE
    }
}

impl PartialEq for EngineSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for EngineSpec {}

impl std::fmt::Debug for EngineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

fn base_demands(_: &MitigationConfig) -> TimingDemands {
    TimingDemands::base()
}

fn prac_demands(_: &MitigationConfig) -> TimingDemands {
    TimingDemands {
        always_prac_timings: true,
        ..TimingDemands::base()
    }
}

fn mopac_d_build(cfg: &MitigationConfig, rows: u32, rng: DetRng) -> Box<dyn MitigationEngine> {
    Box::new(MopacDEngine::new(cfg, rows, rng))
}

/// No mitigation, base DDR5 timings (the performance reference).
pub(crate) const BASELINE: EngineSpec = EngineSpec {
    name: "baseline",
    preset: |_| MitigationConfig::baseline(),
    build: |cfg, rows, _| Box::new(BaselineEngine::new(cfg, rows)),
    demands: base_demands,
};

/// PRAC + ABO with the MOAT tracker: a counter update on every
/// precharge, PRAC timings everywhere.
pub(crate) const PRAC: EngineSpec = EngineSpec {
    name: "prac",
    preset: MitigationConfig::prac,
    build: |cfg, rows, _| Box::new(PracEngine::new(cfg, rows)),
    demands: prac_demands,
};

/// MoPAC-C (Section 5): the controller flips a coin per activation and
/// closes selected rows with the long-latency `PREcu`.
pub(crate) const MOPAC_C: EngineSpec = EngineSpec {
    name: "mopac-c",
    preset: MitigationConfig::mopac_c,
    build: PRAC.build,
    demands: |cfg| TimingDemands {
        precu_probability: Some(cfg.p()),
        row_open_cap_ns: cfg.row_press.then_some(180.0),
        ..TimingDemands::base()
    },
};

/// MoPAC-D (Section 6): in-DRAM MINT sampling into a per-chip SRQ,
/// drained by ABO and REF, at base timings.
pub(crate) const MOPAC_D: EngineSpec = EngineSpec {
    name: "mopac-d",
    preset: MitigationConfig::mopac_d,
    build: mopac_d_build,
    demands: base_demands,
};

/// MoPAC-D with non-uniform sampling of cold rows (Section 8).
pub(crate) const MOPAC_D_NUP: EngineSpec = EngineSpec {
    name: "mopac-d-nup",
    preset: MitigationConfig::mopac_d_nup,
    build: mopac_d_build,
    demands: base_demands,
};

/// QPRAC (Woo et al., HPCA 2025): exact counting under PRAC timings
/// plus a priority queue mitigated proactively at REF.
pub(crate) const QPRAC: EngineSpec = EngineSpec {
    name: "qprac",
    preset: MitigationConfig::qprac,
    build: |cfg, rows, _| Box::new(QpracEngine::new(cfg, rows)),
    demands: prac_demands,
};

/// CnC-PRAC (Lin et al., 2025): base timings, counter write-backs
/// coalesced in a queue and drained at REF and ABO.
pub(crate) const CNC_PRAC: EngineSpec = EngineSpec {
    name: "cnc-prac",
    preset: MitigationConfig::cnc_prac,
    build: |cfg, rows, _| Box::new(CncPracEngine::new(cfg, rows)),
    demands: base_demands,
};

/// PRACtical (Nazaraliyev et al., 2025): subarray-level counter updates
/// at base bank timings; ABO recovery stalls only the alerting bank.
pub(crate) const PRACTICAL: EngineSpec = EngineSpec {
    name: "practical",
    preset: MitigationConfig::practical,
    build: |cfg, rows, _| Box::new(PracticalEngine::new(cfg, rows)),
    demands: |_| TimingDemands {
        recovery_scope: RecoveryScope::Bank,
        subarray_parallel_updates: true,
        ..TimingDemands::base()
    },
};

/// The built-in designs, in canonical order (baseline first, then
/// paper designs, then related-work plug-ins).
static BUILTIN: EngineRegistry = EngineRegistry {
    specs: &[
        BASELINE,
        PRAC,
        MOPAC_C,
        MOPAC_D,
        MOPAC_D_NUP,
        QPRAC,
        CNC_PRAC,
        PRACTICAL,
    ],
};

/// The string-keyed registry of every mitigation design in the
/// workspace. Campaign drivers, attack suites, and benches enumerate
/// this instead of hard-coding design lists.
#[derive(Debug)]
pub struct EngineRegistry {
    specs: &'static [EngineSpec],
}

impl EngineRegistry {
    /// The built-in designs, in canonical order (baseline first, then
    /// paper designs, then related-work plug-ins).
    #[must_use]
    pub fn builtin() -> &'static Self {
        &BUILTIN
    }

    /// Every registered design, in canonical order.
    #[must_use]
    pub fn specs(&self) -> &[EngineSpec] {
        self.specs
    }

    /// Looks a design up by its registry key.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&EngineSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Every registry key, in canonical order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolve() {
        let reg = EngineRegistry::builtin();
        let names = reg.names();
        for name in &names {
            assert_eq!(reg.get(name).unwrap().name, *name);
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry keys");
        assert!(reg.get("no-such-engine").is_none());
    }

    #[test]
    fn every_preset_constructs_an_engine() {
        for spec in EngineRegistry::builtin().specs() {
            let cfg = (spec.preset)(500);
            let engine = build_engine(&cfg, 128, DetRng::from_seed(7));
            assert_eq!(engine.config().engine, spec, "{}", spec.name);
            assert_eq!(engine.counter(0), 0, "{}", spec.name);
        }
    }

    #[test]
    fn demands_match_design_contracts() {
        let prac = TimingDemands::for_config(&MitigationConfig::prac(500));
        assert!(prac.always_prac_timings);
        assert_eq!(prac.precu_probability, None);

        let qprac = TimingDemands::for_config(&MitigationConfig::qprac(500));
        assert!(qprac.always_prac_timings);

        let mc = TimingDemands::for_config(&MitigationConfig::mopac_c(500));
        assert!(!mc.always_prac_timings);
        assert_eq!(mc.precu_probability, Some(0.125));
        assert_eq!(mc.row_open_cap_ns, None);
        let mc_rp = TimingDemands::for_config(&MitigationConfig::mopac_c(500).with_row_press());
        assert_eq!(mc_rp.row_open_cap_ns, Some(180.0));

        for base in [
            MitigationConfig::baseline(),
            MitigationConfig::mopac_d(500),
            MitigationConfig::cnc_prac(500),
        ] {
            assert_eq!(TimingDemands::for_config(&base), TimingDemands::base());
        }

        let practical = TimingDemands::for_config(&MitigationConfig::practical(500));
        assert!(!practical.always_prac_timings, "bank timings stay base");
        assert_eq!(practical.recovery_scope, RecoveryScope::Bank);
        assert!(practical.subarray_parallel_updates);
        assert_eq!(TimingDemands::base().recovery_scope, RecoveryScope::SubChannel);
    }

    #[test]
    fn boxed_engine_clone_is_independent() {
        let cfg = MitigationConfig::prac(500);
        let mut a = build_engine(&cfg, 64, DetRng::from_seed(1));
        let mut b = a.clone();
        a.on_activate(3, 0.0);
        a.on_precharge(3, true, 40.0);
        assert_eq!(a.counter(3), 1);
        assert_eq!(b.counter(3), 0);
        b.corrupt_counter(5, 0);
        assert_eq!(a.counter(5), 0);
    }
}
