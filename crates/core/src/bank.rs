//! What a bank's mitigation engine reports back to the DRAM model.
//!
//! Each simulated DRAM bank holds one boxed
//! [`MitigationEngine`](crate::engine::MitigationEngine) (built by
//! [`crate::engine::build_engine`]) and drives its lifecycle events. The
//! engine answers with the types here: an [`AlertCause`] when the bank
//! must pull the ALERT pin, an [`AboService`] for what one ABO or REF
//! drain did, and its accumulated [`MitigationStats`]. The concrete
//! engines live in [`crate::engines`]; the trait and registry in
//! [`crate::engine`].

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MitigationConfig;
    use crate::engine::{build_engine, TimingDemands};
    use mopac_types::rng::DetRng;

    fn rng() -> DetRng {
        DetRng::from_seed(42)
    }

    #[test]
    fn prac_updates_every_precharge_and_alerts_at_ath() {
        let cfg = MitigationConfig::prac(500); // ATH = 472
        let mut b = build_engine(&cfg, 1024, rng());
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
        let mut b = build_engine(&cfg, 64, rng());
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
        let mut b = build_engine(&cfg, 64, rng());
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
        let mut b = build_engine(&cfg, 4096, rng());
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
        let mut b = build_engine(&cfg, 64, rng());
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
        let mut b = build_engine(&cfg, 4096, rng());
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
        let mut b = build_engine(&cfg, 64, rng());
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
        let mut b = build_engine(&cfg, 64, rng());
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
            let mut b = build_engine(&cfg, 256, rng());
            for i in 0..3000u32 {
                let row = (i * 7) % 256;
                b.on_activate(row, 0.0);
                b.on_precharge(
                    row,
                    TimingDemands::for_config(&cfg).always_prac_timings,
                    40.0,
                );
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
                cfg.engine
            );
            assert!(
                s.counter_updates >= s.ref_drained_updates,
                "{:?}",
                cfg.engine
            );
            assert!(s.counter_updates >= s.update_precharges, "{:?}", cfg.engine);
        }
    }
}
