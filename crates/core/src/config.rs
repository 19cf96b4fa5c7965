//! Mitigation configuration presets.
//!
//! A [`MitigationConfig`] fully determines the behaviour of a bank's
//! mitigation engine and which DRAM timing set the memory controller
//! must use. Presets derive their parameters (`p`, `ATH*`, drain rates)
//! from `mopac-analysis` so that a config built from just a Rowhammer
//! threshold is secure by construction.

use crate::engine::{
    EngineSpec, BASELINE, CNC_PRAC, MOPAC_C, MOPAC_D, MOPAC_D_NUP, PRAC, PRACTICAL, QPRAC,
};
use mopac_analysis::markov::nup_params;
use mopac_analysis::moat::{moat_ath, moat_eth};
use mopac_analysis::params::{
    cnc_prac_ath_star, mopac_c_params, mopac_d_params, row_press_params, MopacDesign,
    CNC_DRAIN_ON_REF, CNC_QUEUE_ENTRIES, CNC_WRITEBACK_TTH, DEFAULT_SRQ_ENTRIES,
    QPRAC_MITIGATIONS_PER_REF, QPRAC_QUEUE_ENTRIES,
};

/// Narrows a derived `u64` threshold into the `u32` the engines store.
/// Every real derivation is far below `u32::MAX`; saturating (instead
/// of unwrapping) keeps the core crate free of panicking conversions.
fn threshold_u32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Full configuration of the mitigation engine for one experiment.
///
/// Construct via the presets ([`MitigationConfig::prac`],
/// [`MitigationConfig::mopac_c`], [`MitigationConfig::mopac_d`],
/// [`MitigationConfig::mopac_d_nup`], [`MitigationConfig::qprac`],
/// [`MitigationConfig::cnc_prac`], [`MitigationConfig::practical`]) and
/// customize with the `with_*` methods. The designs are enumerable by name through
/// [`crate::engine::EngineRegistry`].
///
/// # Examples
///
/// ```
/// use mopac::config::MitigationConfig;
///
/// let cfg = MitigationConfig::mopac_d(500).with_srq_capacity(32);
/// assert_eq!(cfg.alert_threshold, 152); // ATH* from Table 8
/// assert_eq!(cfg.sample_denominator, 8); // p = 1/8
/// assert_eq!(cfg.srq_capacity, 32);
/// assert_eq!(cfg.drain_on_ref, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// The mitigation design: the registry entry whose constructor and
    /// timing demands this configuration runs with.
    pub engine: &'static EngineSpec,
    /// The Rowhammer threshold this configuration targets.
    pub t_rh: u64,
    /// ALERT threshold on the PRAC counter: `ATH` for PRAC, `ATH*` for
    /// MoPAC.
    pub alert_threshold: u32,
    /// Eligibility threshold for mitigation on ABO (`ETH`).
    pub eligibility_threshold: u32,
    /// `1/p`: the sampling denominator (1 for PRAC — every activation).
    pub sample_denominator: u32,
    /// Non-uniform probability (Section 8): sample at `p/2` while the
    /// row's counter is zero. Only meaningful for MoPAC-D.
    pub nup: bool,
    /// SRQ capacity in entries (MoPAC-D).
    pub srq_capacity: usize,
    /// Tardiness threshold (MoPAC-D): max activations to a buffered row
    /// before a forced ABO.
    pub tth: u32,
    /// SRQ entries drained (counter-updated) at each REF (MoPAC-D).
    pub drain_on_ref: u32,
    /// Number of independent DRAM chips modelled (MoPAC-D samples
    /// independently per chip; the paper's default is 4 per sub-channel).
    pub chips: u32,
    /// Row-Press hardening (Appendix A): damage-weighted thresholds and,
    /// for MoPAC-C, a 180 ns row-open cap at the memory controller.
    pub row_press: bool,
    /// Counter updates performed per ABO stall (5 in the paper).
    pub updates_per_abo: u32,
    /// Rows on each side refreshed when mitigating an aggressor (blast
    /// radius; 2 in the paper, i.e. 4 victim refreshes).
    pub blast_radius: u32,
}

impl MitigationConfig {
    /// The unprotected baseline: base timings, no tracking.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            engine: &BASELINE,
            t_rh: u64::MAX,
            alert_threshold: u32::MAX,
            eligibility_threshold: u32::MAX,
            sample_denominator: 1,
            nup: false,
            srq_capacity: DEFAULT_SRQ_ENTRIES,
            tth: 0,
            drain_on_ref: 0,
            chips: 1,
            row_press: false,
            updates_per_abo: 5,
            blast_radius: 2,
        }
    }

    /// PRAC + ABO secured by MOAT (Section 2.6): deterministic counting,
    /// PRAC timings on every access.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64` (outside the MOAT model's domain) or the
    /// derived threshold exceeds `u32::MAX`.
    #[must_use]
    pub fn prac(t_rh: u64) -> Self {
        let ath = moat_ath(t_rh);
        Self {
            engine: &PRAC,
            t_rh,
            alert_threshold: threshold_u32(ath),
            eligibility_threshold: threshold_u32(moat_eth(ath)),
            sample_denominator: 1,
            ..Self::baseline()
        }
    }

    /// MoPAC-C at the given threshold (Section 5, Table 7).
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64`.
    #[must_use]
    pub fn mopac_c(t_rh: u64) -> Self {
        let p = mopac_c_params(t_rh);
        Self {
            engine: &MOPAC_C,
            t_rh,
            alert_threshold: threshold_u32(p.ath_star),
            eligibility_threshold: threshold_u32(p.ath_star / 2),
            sample_denominator: p.update_prob_denominator,
            ..Self::baseline()
        }
    }

    /// MoPAC-D at the given threshold (Section 6, Table 8), with the
    /// paper's defaults: 16-entry SRQ, TTH = 32, drain-on-REF from
    /// Table 8, 4 chips.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64`.
    #[must_use]
    pub fn mopac_d(t_rh: u64) -> Self {
        let p = mopac_d_params(t_rh);
        Self {
            engine: &MOPAC_D,
            t_rh,
            alert_threshold: threshold_u32(p.ath_star),
            eligibility_threshold: threshold_u32(p.ath_star / 2),
            sample_denominator: p.update_prob_denominator,
            tth: p.tth,
            drain_on_ref: p.drain_on_ref,
            chips: 4,
            ..Self::baseline()
        }
    }

    /// MoPAC-D with non-uniform probability (Section 8, Table 11).
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64`.
    #[must_use]
    pub fn mopac_d_nup(t_rh: u64) -> Self {
        let p = nup_params(t_rh);
        Self {
            engine: &MOPAC_D_NUP,
            nup: true,
            alert_threshold: threshold_u32(p.ath_star),
            eligibility_threshold: threshold_u32(p.ath_star / 2),
            ..Self::mopac_d(t_rh)
        }
    }

    /// QPRAC at the given threshold (Woo et al., HPCA 2025): exact
    /// counting with PRAC's `ATH`/`ETH` (the ABO backstop is plain
    /// PRAC), an 8-entry priority queue, and one proactive mitigation
    /// per REF. `srq_capacity` holds the queue depth and `drain_on_ref`
    /// the mitigations-per-REF rate.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64` (outside the MOAT model's domain).
    #[must_use]
    pub fn qprac(t_rh: u64) -> Self {
        let ath = moat_ath(t_rh);
        Self {
            engine: &QPRAC,
            t_rh,
            alert_threshold: threshold_u32(ath),
            eligibility_threshold: threshold_u32(moat_eth(ath)),
            sample_denominator: 1,
            srq_capacity: QPRAC_QUEUE_ENTRIES,
            drain_on_ref: QPRAC_MITIGATIONS_PER_REF,
            ..Self::baseline()
        }
    }

    /// CnC-PRAC at the given threshold (Lin et al., 2025): exact
    /// counting at base timings with write-backs coalesced in a
    /// 32-entry queue; alerts at `ATH* = ATH - TTH` to cover the
    /// deferred-visibility lag. `srq_capacity` holds the queue depth,
    /// `tth` the per-entry pending cap, and `drain_on_ref` the bulk
    /// write-backs per REF.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64`.
    #[must_use]
    pub fn cnc_prac(t_rh: u64) -> Self {
        let ath_star = cnc_prac_ath_star(t_rh);
        Self {
            engine: &CNC_PRAC,
            t_rh,
            alert_threshold: threshold_u32(ath_star),
            eligibility_threshold: threshold_u32(ath_star / 2),
            sample_denominator: 1,
            srq_capacity: CNC_QUEUE_ENTRIES,
            tth: CNC_WRITEBACK_TTH,
            drain_on_ref: CNC_DRAIN_ON_REF,
            ..Self::baseline()
        }
    }

    /// PRACtical at the given threshold (Nazaraliyev et al., 2025):
    /// exact per-row counting like PRAC, but the counter
    /// read-modify-write is performed inside the closed row's subarray
    /// while the bank itself returns to base timings, and ALERT
    /// recovery stalls only the alerting bank(s). Counter state is
    /// command-synchronous in the model (only the update's *timing* is
    /// subarray-local), so the thresholds are PRAC's MOAT `ATH`/`ETH`
    /// and the security argument carries over unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh <= 64` (outside the MOAT model's domain).
    #[must_use]
    pub fn practical(t_rh: u64) -> Self {
        let ath = moat_ath(t_rh);
        Self {
            engine: &PRACTICAL,
            t_rh,
            alert_threshold: threshold_u32(ath),
            eligibility_threshold: threshold_u32(moat_eth(ath)),
            sample_denominator: 1,
            ..Self::baseline()
        }
    }

    /// Overrides the SRQ capacity (Figure 13's sensitivity study).
    #[must_use]
    pub fn with_srq_capacity(mut self, entries: usize) -> Self {
        self.srq_capacity = entries;
        self
    }

    /// Overrides the drain-on-REF rate (Figure 12's sensitivity study).
    #[must_use]
    pub fn with_drain_on_ref(mut self, entries: u32) -> Self {
        self.drain_on_ref = entries;
        self
    }

    /// Overrides the number of modelled chips (Appendix B, Figure 19).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    #[must_use]
    pub fn with_chips(mut self, chips: u32) -> Self {
        assert!(chips > 0, "need at least one chip");
        self.chips = chips;
        self
    }

    /// Enables Row-Press hardening (Appendix A, Table 14): re-derives
    /// the alert threshold with damage weighting.
    ///
    /// # Panics
    ///
    /// Panics if called on a configuration that is not MoPAC-C or
    /// MoPAC-D (with or without NUP).
    #[must_use]
    pub fn with_row_press(mut self) -> Self {
        let design = if *self.engine == MOPAC_C {
            MopacDesign::ControllerSide
        } else if *self.engine == MOPAC_D || *self.engine == MOPAC_D_NUP {
            MopacDesign::DramSide
        } else {
            panic!("Row-Press hardening applies to MoPAC designs only")
        };
        let p = row_press_params(design, self.t_rh);
        self.row_press = true;
        self.alert_threshold = threshold_u32(p.ath_star);
        self.eligibility_threshold = threshold_u32(p.ath_star / 2);
        self
    }

    /// Overrides the alert threshold directly (failure-injection tests
    /// deliberately weaken the design with this).
    #[must_use]
    pub fn with_alert_threshold(mut self, ath: u32) -> Self {
        self.alert_threshold = ath;
        self.eligibility_threshold = ath / 2;
        self
    }

    /// The per-activation sampling probability `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        1.0 / f64::from(self.sample_denominator)
    }

    /// Whether this configuration needs any per-bank tracking state.
    #[must_use]
    pub fn tracks(&self) -> bool {
        self.engine.tracks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prac_preset_uses_moat_ath() {
        let c = MitigationConfig::prac(500);
        assert_eq!(c.alert_threshold, 472);
        assert_eq!(c.eligibility_threshold, 236);
        assert_eq!(c.sample_denominator, 1);
    }

    #[test]
    fn mopac_c_preset_matches_table7() {
        let c = MitigationConfig::mopac_c(500);
        assert_eq!(c.alert_threshold, 176);
        assert_eq!(c.sample_denominator, 8);
        assert_eq!(c.chips, 1);
    }

    #[test]
    fn mopac_d_preset_matches_table8() {
        let c = MitigationConfig::mopac_d(250);
        assert_eq!(c.alert_threshold, 60);
        assert_eq!(c.sample_denominator, 4);
        assert_eq!(c.drain_on_ref, 4);
        assert_eq!(c.tth, 32);
        assert_eq!(c.srq_capacity, 16);
        assert_eq!(c.chips, 4);
    }

    #[test]
    fn nup_preset_matches_table11() {
        let c = MitigationConfig::mopac_d_nup(500);
        assert!(c.nup);
        assert_eq!(c.alert_threshold, 136);
        assert_eq!(c.sample_denominator, 8);
    }

    #[test]
    fn row_press_rederives_threshold() {
        let c = MitigationConfig::mopac_c(500).with_row_press();
        assert_eq!(c.alert_threshold, 80);
        let d = MitigationConfig::mopac_d(500).with_row_press();
        assert_eq!(d.alert_threshold, 64);
    }

    #[test]
    #[should_panic(expected = "Row-Press")]
    fn row_press_rejects_prac() {
        let _ = MitigationConfig::prac(500).with_row_press();
    }

    #[test]
    fn qprac_preset_keeps_prac_backstop_thresholds() {
        let c = MitigationConfig::qprac(500);
        let p = MitigationConfig::prac(500);
        assert_eq!(c.alert_threshold, p.alert_threshold);
        assert_eq!(c.eligibility_threshold, p.eligibility_threshold);
        assert_eq!(c.sample_denominator, 1);
        assert_eq!(c.srq_capacity, 8);
        assert_eq!(c.drain_on_ref, 1);
    }

    #[test]
    fn practical_preset_keeps_prac_thresholds() {
        let c = MitigationConfig::practical(500);
        let p = MitigationConfig::prac(500);
        assert_eq!(c.alert_threshold, p.alert_threshold);
        assert_eq!(c.eligibility_threshold, p.eligibility_threshold);
        assert_eq!(c.sample_denominator, 1);
        assert!(c.tracks());
    }

    #[test]
    fn cnc_prac_preset_reserves_tardiness_margin() {
        let c = MitigationConfig::cnc_prac(500);
        assert_eq!(c.alert_threshold, 440); // ATH 472 - TTH 32
        assert_eq!(c.eligibility_threshold, 220);
        assert_eq!(c.tth, 32);
        assert_eq!(c.srq_capacity, 32);
        assert_eq!(c.drain_on_ref, 8);
        assert_eq!(c.sample_denominator, 1);
    }
}
