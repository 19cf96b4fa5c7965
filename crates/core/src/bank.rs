//! The per-bank mitigation host.
//!
//! [`BankMitigation`] owns one boxed [`MitigationEngine`] — the design
//! selected by the [`MitigationConfig`] — and forwards the lifecycle
//! events the DRAM model drives:
//!
//! * [`BankMitigation::on_activate`] — every ACT;
//! * [`BankMitigation::on_precharge`] — every PRE, with a flag saying
//!   whether this precharge performs a counter update (driven by the
//!   engine's [`TimingDemands`]) and the row-open time for Row-Press
//!   accounting;
//! * [`BankMitigation::service_abo`] — when an ABO reaches this bank;
//! * [`BankMitigation::on_ref`] — at every REF (deferred-work drains
//!   and proactive mitigations; PRAC counters themselves survive
//!   refresh).
//!
//! After any event, [`BankMitigation::alert_cause`] says whether this
//! bank needs to pull the ALERT pin, and why. The concrete engines live
//! in [`crate::engines`]; the trait and registry in [`crate::engine`].

use crate::config::MitigationConfig;
use crate::engine::{build_engine, MitigationEngine, TimingDemands};
use mopac_types::obs::MetricsSink;
use mopac_types::rng::DetRng;
use std::ops::Range;

/// Why a bank is pulling ALERT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertCause {
    /// A tracked row reached the alert threshold: Rowhammer mitigation
    /// needed.
    Mitigation,
    /// A deferred-work queue is full and must be drained (MoPAC-D's
    /// SRQ, CnC-PRAC's coalescing queue).
    SrqFull,
    /// A buffered row's deferred work exceeded the tardiness threshold
    /// (MoPAC-D's ACtr, CnC-PRAC's pending write-back count).
    Tardiness,
}

/// What one ABO (or REF drain) did in this bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AboService {
    /// Aggressor rows mitigated (victims of these rows were refreshed).
    pub mitigated_rows: Vec<u32>,
    /// Number of deferred PRAC-counter updates performed.
    pub counter_updates: u32,
}

mopac_types::counter_struct! {
    /// Counters exposed for the experiment harness.
    ///
    /// The original aggregate fields (`counter_updates`, `mitigations`)
    /// are kept with their historical names and meanings so CSV
    /// consumers don't break; the per-cause fields below them split the
    /// same events by *why* they happened.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MitigationStats {
        /// Total activations observed.
        pub activations: u64 => EngineActivations,
        /// PRAC counter read-modify-writes performed (all paths; equals
        /// the update precharges plus drained/deferred write-backs).
        pub counter_updates: u64 => EngineCounterUpdates,
        /// Deferred-queue insertions (new entries + coalesced), summed
        /// over chips.
        pub srq_insertions: u64 => EngineSrqInsertions,
        /// Insertions refused by a full queue (MoPAC-D drops the sample;
        /// CnC-PRAC and QPRAC fall back to inline handling).
        pub srq_overflows: u64 => EngineSrqOverflows,
        /// Aggressor mitigations performed (all causes; equals
        /// `abo_mitigations + proactive_mitigations`).
        pub mitigations: u64 => EngineMitigations,
        /// Precharges that carried an inline counter update.
        pub update_precharges: u64 => EngineUpdatePrecharges,
        /// Mitigations forced by an ALERT back-off (the reactive path).
        pub abo_mitigations: u64 => EngineAboMitigations,
        /// Mitigations performed proactively inside REF windows (QPRAC).
        pub proactive_mitigations: u64 => EngineProactiveMitigations,
        /// Deferred counter write-backs drained during REF windows
        /// (MoPAC-D's SRQ drain, CnC-PRAC's bulk write-back).
        pub ref_drained_updates: u64 => EngineRefDrainedUpdates,
    }
}

/// The mitigation host embedded in one simulated DRAM bank.
#[derive(Debug, Clone)]
pub struct BankMitigation {
    engine: Box<dyn MitigationEngine>,
}

impl BankMitigation {
    /// Creates the engine for a bank with `rows` rows.
    ///
    /// `rng` seeds all per-chip random streams; fork it per bank so that
    /// banks are independent.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    #[must_use]
    pub fn new(cfg: &MitigationConfig, rows: u32, rng: DetRng) -> Self {
        Self {
            engine: build_engine(cfg, rows, rng),
        }
    }

    /// The configuration this engine runs.
    #[must_use]
    pub fn config(&self) -> &MitigationConfig {
        self.engine.config()
    }

    /// What the engine demands of the controller and timing model.
    #[must_use]
    pub fn timing_demands(&self) -> TimingDemands {
        self.engine.timing_demands()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MitigationStats {
        self.engine.stats()
    }

    /// Handles an activation of `row`. `open_ns` is unused here (open
    /// time is only known at precharge) but kept for symmetry; pass 0.
    pub fn on_activate(&mut self, row: u32, open_ns: f64) {
        self.engine.on_activate(row, open_ns);
    }

    /// Handles a precharge of `row`.
    ///
    /// `counter_update` — whether this precharge performs the PRAC
    /// read-modify-write (per the engine's
    /// [`TimingDemands`]: always for PRAC/QPRAC, the MC's coin flip for
    /// MoPAC-C, never otherwise). `open_ns` — how long the row was
    /// open, for Row-Press accounting.
    pub fn on_precharge(&mut self, row: u32, counter_update: bool, open_ns: f64) {
        self.engine.on_precharge(row, counter_update, open_ns);
    }

    /// Whether (and why) this bank needs ALERT right now.
    #[must_use]
    pub fn alert_cause(&self) -> Option<AlertCause> {
        self.engine.alert_cause()
    }

    /// Services one ABO reaching this bank (the engine's priority
    /// rules decide between mitigation and deferred-work drains).
    pub fn service_abo(&mut self) -> AboService {
        self.engine.service_abo()
    }

    /// Reports a deferred counter update posted into `subarray` (see
    /// [`crate::engine::MitigationEngine::on_subarray_update`]).
    pub fn on_subarray_update(&mut self, subarray: u32) {
        self.engine.on_subarray_update(subarray);
    }

    /// Handles a REF command: engines drain deferred work or mitigate
    /// proactively inside the refresh window.
    ///
    /// PRAC counters are *not* reset by periodic refresh: the counter is
    /// stored with the row and survives the restore. Resetting it would
    /// be insecure — refreshing an aggressor protects the aggressor's
    /// own cells, not its victims, so its accumulated count must stand
    /// until the row is actually mitigated.
    pub fn on_ref(&mut self, refreshed_rows: Range<u32>) -> AboService {
        self.engine.on_ref(refreshed_rows)
    }

    /// Direct read of a row's PRAC counter on chip 0 (tests and
    /// diagnostics).
    #[must_use]
    pub fn counter(&self, row: u32) -> u32 {
        self.engine.counter(row)
    }

    /// Fault hook: flips one bit of `row`'s PRAC counter on chip 0 (a
    /// counter-table soft error). Trackers are deliberately not
    /// re-observed — hardware would not notice a silent bit flip either —
    /// so an undercount can only be caught by the security oracle.
    pub fn corrupt_counter(&mut self, row: u32, bit: u32) {
        self.engine.corrupt_counter(row, bit);
    }

    /// Current deferred-queue occupancy per chip (empty for designs
    /// without queues).
    #[must_use]
    pub fn srq_occupancy(&self) -> Vec<usize> {
        self.engine.srq_occupancy()
    }

    /// Generation counter of the engine's [`TimingDemands`]; the device
    /// re-queries the demands whenever this changes (see
    /// [`crate::engine::MitigationEngine::demands_epoch`]).
    #[must_use]
    pub fn demands_epoch(&self) -> u64 {
        self.engine.demands_epoch()
    }

    /// Publishes the engine's observability metrics onto `sink` (see
    /// [`crate::engine::MitigationEngine::record_metrics`]).
    pub fn record_metrics(&self, flat_bank: u32, sink: &mut MetricsSink) {
        self.engine.record_metrics(flat_bank, sink);
    }
}

impl mopac_types::snapshot::Snapshottable for BankMitigation {
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        self.engine.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        self.engine.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::from_seed(42)
    }

    #[test]
    fn prac_updates_every_precharge_and_alerts_at_ath() {
        let cfg = MitigationConfig::prac(500); // ATH = 472
        let mut b = BankMitigation::new(&cfg, 1024, rng());
        for i in 0..471 {
            b.on_activate(7, 0.0);
            b.on_precharge(7, true, 40.0);
            assert!(b.alert_cause().is_none(), "premature alert at {i}");
        }
        b.on_activate(7, 0.0);
        b.on_precharge(7, true, 40.0);
        assert_eq!(b.alert_cause(), Some(AlertCause::Mitigation));
        let svc = b.service_abo();
        assert_eq!(svc.mitigated_rows, vec![7]);
        assert!(b.alert_cause().is_none());
        assert_eq!(b.counter(7), 0);
        // Victims got their refresh activation counted.
        assert_eq!(b.counter(6), 1);
        assert_eq!(b.counter(9), 1);
        // ABO-forced mitigation shows up in the per-cause split.
        assert_eq!(b.stats().abo_mitigations, 1);
        assert_eq!(b.stats().mitigations, 1);
    }

    #[test]
    fn mopac_c_counts_in_units_of_denominator() {
        let cfg = MitigationConfig::mopac_c(500); // 1/p = 8, ATH* = 176
        let mut b = BankMitigation::new(&cfg, 64, rng());
        // 21 selected precharges: counter 168, below ATH*.
        for _ in 0..21 {
            b.on_activate(3, 0.0);
            b.on_precharge(3, true, 40.0);
        }
        assert_eq!(b.counter(3), 168);
        assert!(b.alert_cause().is_none());
        // One more reaches 176 = ATH*.
        b.on_activate(3, 0.0);
        b.on_precharge(3, true, 40.0);
        assert_eq!(b.alert_cause(), Some(AlertCause::Mitigation));
    }

    #[test]
    fn mopac_c_skipped_precharges_do_not_count() {
        let cfg = MitigationConfig::mopac_c(500);
        let mut b = BankMitigation::new(&cfg, 64, rng());
        for _ in 0..1000 {
            b.on_activate(3, 0.0);
            b.on_precharge(3, false, 40.0);
        }
        assert_eq!(b.counter(3), 0);
        assert!(b.alert_cause().is_none());
    }

    #[test]
    fn mopac_d_srq_fills_and_alerts() {
        let cfg = MitigationConfig::mopac_d(500).with_chips(1).with_drain_on_ref(0);
        let mut b = BankMitigation::new(&cfg, 4096, rng());
        // Unique rows, one per activation: every MINT window inserts one
        // entry; after 16 windows the SRQ is full.
        let mut act = 0u32;
        while b.alert_cause().is_none() {
            b.on_activate(act % 4096, 0.0);
            act += 1;
            assert!(act < 16 * 8 + 8 + 1, "SRQ never filled");
        }
        assert_eq!(b.alert_cause(), Some(AlertCause::SrqFull));
        let svc = b.service_abo();
        assert_eq!(svc.counter_updates, 5);
        assert!(svc.mitigated_rows.is_empty());
        assert!(b.alert_cause().is_none());
        assert_eq!(b.srq_occupancy(), vec![11]);
    }

    #[test]
    fn mopac_d_tardiness_alert() {
        let cfg = MitigationConfig::mopac_d(500).with_chips(1).with_drain_on_ref(0);
        let mut b = BankMitigation::new(&cfg, 64, rng());
        // Hammer a single row; once it enters the SRQ its ACtr climbs
        // to TTH = 32 within at most 8 (window) + 32 activations.
        let mut acts = 0;
        while b.alert_cause().is_none() {
            b.on_activate(5, 0.0);
            acts += 1;
            assert!(acts < 8 + 33 + 1, "tardiness alert never fired");
        }
        assert_eq!(b.alert_cause(), Some(AlertCause::Tardiness));
        // Draining clears the condition.
        let svc = b.service_abo();
        assert!(svc.counter_updates >= 1);
        assert!(b.alert_cause().is_none());
    }

    #[test]
    fn mopac_d_drain_on_ref_updates_counters() {
        let cfg = MitigationConfig::mopac_d(500).with_chips(1); // drain 2
        let mut b = BankMitigation::new(&cfg, 4096, rng());
        for act in 0..64u32 {
            b.on_activate(act, 0.0); // unique rows -> 8 insertions
        }
        let occupancy_before = b.srq_occupancy()[0];
        assert!(occupancy_before >= 6, "got {occupancy_before}");
        let svc = b.on_ref(0..8);
        assert_eq!(svc.counter_updates, 2);
        assert_eq!(b.srq_occupancy()[0], occupancy_before - 2);
    }

    #[test]
    fn ref_preserves_prac_counters() {
        // Periodic refresh restores the row (and its in-row counter);
        // resetting the count would let an aggressor escape (its
        // victims were not refreshed).
        let cfg = MitigationConfig::prac(500);
        let mut b = BankMitigation::new(&cfg, 64, rng());
        for _ in 0..10 {
            b.on_activate(3, 0.0);
            b.on_precharge(3, true, 40.0);
        }
        assert_eq!(b.counter(3), 10);
        b.on_ref(0..8);
        assert_eq!(b.counter(3), 10);
    }

    #[test]
    fn baseline_is_inert() {
        let cfg = MitigationConfig::baseline();
        let mut b = BankMitigation::new(&cfg, 64, rng());
        for _ in 0..100_000 {
            b.on_activate(1, 0.0);
            b.on_precharge(1, false, 40.0);
        }
        assert!(b.alert_cause().is_none());
        assert!(b.service_abo().mitigated_rows.is_empty());
    }

    #[test]
    fn aggregate_stats_equal_per_cause_splits() {
        // `mitigations` stays the sum of the per-cause fields, and REF
        // drains are included in `counter_updates` — the alias contract
        // for existing CSV consumers.
        for cfg in [
            MitigationConfig::prac(500),
            MitigationConfig::mopac_d(500),
            MitigationConfig::qprac(500),
            MitigationConfig::cnc_prac(500),
        ] {
            let mut b = BankMitigation::new(&cfg, 256, rng());
            for i in 0..3000u32 {
                let row = (i * 7) % 256;
                b.on_activate(row, 0.0);
                b.on_precharge(row, b.timing_demands().always_prac_timings, 40.0);
                if i % 64 == 63 {
                    b.on_ref(0..8);
                }
                if b.alert_cause().is_some() {
                    b.service_abo();
                }
            }
            let s = b.stats();
            assert_eq!(
                s.mitigations,
                s.abo_mitigations + s.proactive_mitigations,
                "{:?}",
                cfg.kind
            );
            assert!(s.counter_updates >= s.ref_drained_updates, "{:?}", cfg.kind);
            assert!(s.counter_updates >= s.update_precharges, "{:?}", cfg.kind);
        }
    }
}
