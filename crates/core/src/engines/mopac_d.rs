//! MoPAC-D: in-DRAM MINT sampling into per-chip SRQs (Section 6).
//!
//! Each chip of the DIMM samples the activation stream independently
//! (Appendix B): a MINT window sampler selects one activation per
//! `1/p`-ACT window, the selected row is buffered in the chip's SRQ,
//! and entries drain into the PRAC counters on ABO and REF. Any chip
//! can pull ALERT — for a needed mitigation, a full SRQ, or a buffered
//! row growing tardy.

use crate::bank::{AboService, AlertCause, MitigationStats};
use crate::config::MitigationConfig;
use crate::counters::PracCounters;
use crate::engine::MitigationEngine;
use crate::engines::refresh_victims;
use crate::mint::MintSampler;
use crate::moat::MoatTracker;
use crate::srq::{Srq, SrqInsert};
use mopac_types::rng::DetRng;
use std::ops::Range;

/// One chip's independent probabilistic state.
#[derive(Debug, Clone)]
struct ChipState {
    counters: PracCounters,
    moat: MoatTracker,
    mint: MintSampler,
    srq: Srq,
    rng: DetRng,
}

impl ChipState {
    fn srq_alert(&self, tth: u32) -> Option<AlertCause> {
        if self.srq.is_full() {
            return Some(AlertCause::SrqFull);
        }
        if tth > 0 && self.srq.max_actr() > tth {
            return Some(AlertCause::Tardiness);
        }
        None
    }
}

/// MoPAC-D's per-bank engine: one `ChipState` per modelled chip.
#[derive(Debug, Clone)]
pub struct MopacDEngine {
    cfg: MitigationConfig,
    chips: Vec<ChipState>,
    stats: MitigationStats,
}

impl MopacDEngine {
    /// Creates the engine for a bank with `rows` rows. `rng` seeds the
    /// per-chip MINT and NUP streams.
    #[must_use]
    pub fn new(cfg: &MitigationConfig, rows: u32, rng: DetRng) -> Self {
        let chips = (0..cfg.chips as usize)
            .map(|i| {
                let chip_rng = rng.fork(i as u64);
                let mint_rng = chip_rng.fork(0xA);
                ChipState {
                    counters: PracCounters::new(rows),
                    moat: MoatTracker::new(cfg.alert_threshold, cfg.eligibility_threshold),
                    mint: MintSampler::new(cfg.sample_denominator, mint_rng),
                    srq: Srq::new(cfg.srq_capacity),
                    rng: chip_rng.fork(0xB),
                }
            })
            .collect();
        Self {
            cfg: *cfg,
            chips,
            stats: MitigationStats::default(),
        }
    }
}

impl MitigationEngine for MopacDEngine {
    fn config(&self) -> &MitigationConfig {
        &self.cfg
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn on_activate(&mut self, row: u32, _open_ns: f64) {
        self.stats.activations += 1;
        let nup = self.cfg.nup;
        let mut insertions = 0u64;
        let mut overflows = 0u64;
        for chip in &mut self.chips {
            chip.srq.on_activate(row);
            if let Some(sel_row) = chip.mint.on_activate(row) {
                // NUP gate (Section 8.1): rows whose PRAC counter is
                // still zero are accepted with probability 1/2, yielding
                // an effective sampling probability of p/2 for cold rows.
                let accept = if nup && chip.counters.get(sel_row) == 0 {
                    chip.rng.bernoulli(0.5)
                } else {
                    true
                };
                if accept {
                    match chip.srq.insert(sel_row) {
                        SrqInsert::Inserted | SrqInsert::Coalesced => insertions += 1,
                        SrqInsert::Overflowed => overflows += 1,
                    }
                }
            }
        }
        self.stats.srq_insertions += insertions;
        self.stats.srq_overflows += overflows;
    }

    fn on_precharge(&mut self, row: u32, _counter_update: bool, open_ns: f64) {
        if self.cfg.row_press && open_ns > 180.0 {
            // Appendix A: a row held open for tON does ceil(tON/180ns)
            // activations worth of damage; the first unit is the
            // activation itself, the rest are folded into the SCtr of
            // the buffered entry.
            let extra = (open_ns / 180.0).ceil() as u32 - 1;
            if extra > 0 {
                for chip in &mut self.chips {
                    chip.srq.add_sctr(row, extra);
                }
            }
        }
    }

    fn on_ref(&mut self, _refreshed_rows: Range<u32>) -> AboService {
        // Drain `drain_on_ref` SRQ entries per chip inside the refresh
        // window (Section 6.2). PRAC counters themselves survive REF.
        let mut out = AboService::default();
        let drain_n = self.cfg.drain_on_ref;
        let denom = self.cfg.sample_denominator;
        let mut total_updates = 0u64;
        for chip in &mut self.chips {
            if drain_n > 0 {
                let n = drain_srq(chip, drain_n, denom);
                total_updates += u64::from(n);
                out.counter_updates += n;
            }
        }
        self.stats.counter_updates += total_updates;
        self.stats.ref_drained_updates += total_updates;
        out
    }

    fn alert_cause(&self) -> Option<AlertCause> {
        for chip in &self.chips {
            if chip.moat.alert_needed() {
                return Some(AlertCause::Mitigation);
            }
            if let Some(cause) = chip.srq_alert(self.cfg.tth) {
                return Some(cause);
            }
        }
        None
    }

    fn service_abo(&mut self) -> AboService {
        // Section 6.1 priority rules. Every chip uses the stall in
        // parallel: a chip with a full SRQ drains up to
        // `updates_per_abo` entries; otherwise, if its tracked row
        // needs mitigation it mitigates; otherwise it drains whatever
        // the SRQ holds (or mitigates an eligible tracked row if the
        // SRQ is empty).
        let mut out = AboService::default();
        let updates_per_abo = self.cfg.updates_per_abo;
        let denom = self.cfg.sample_denominator;
        let blast = self.cfg.blast_radius;
        let mut total_updates = 0u64;
        let mut mitigations = 0u64;
        for chip in &mut self.chips {
            let srq_full = chip.srq.is_full();
            let alert = chip.moat.alert_needed();
            let srq_nonempty = !chip.srq.is_empty();
            if srq_full || (!alert && srq_nonempty) {
                let n = drain_srq(chip, updates_per_abo, denom);
                total_updates += u64::from(n);
                out.counter_updates += n;
            } else if let Some(row) = chip.moat.take_mitigation_candidate() {
                chip.counters.reset(row);
                chip.srq.remove_row(row);
                refresh_victims(&mut chip.counters, &mut chip.moat, row, blast);
                out.mitigated_rows.push(row);
                mitigations += 1;
            }
        }
        self.stats.counter_updates += total_updates;
        self.stats.mitigations += mitigations;
        self.stats.abo_mitigations += mitigations;
        out
    }

    fn counter(&self, row: u32) -> u32 {
        self.chips[0].counters.get(row)
    }

    fn corrupt_counter(&mut self, row: u32, bit: u32) {
        self.chips[0].counters.flip_bit(row, bit);
    }

    fn srq_occupancy(&self) -> Vec<usize> {
        self.chips.iter().map(|c| c.srq.len()).collect()
    }

    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        use mopac_types::snapshot::Snapshottable;
        for chip in &self.chips {
            chip.counters.save_state(w);
            chip.moat.save_state(w);
            chip.mint.save_state(w);
            chip.srq.save_state(w);
            chip.rng.save_state(w);
        }
        self.stats.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        use mopac_types::snapshot::Snapshottable;
        for chip in &mut self.chips {
            chip.counters.load_state(r)?;
            chip.moat.load_state(r)?;
            chip.mint.load_state(r)?;
            chip.srq.load_state(r)?;
            chip.rng.load_state(r)?;
        }
        self.stats.load_state(r)
    }

    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }
}

/// Drains up to `n` entries of a chip's SRQ into its PRAC counters
/// (increment `1 + total_selections / p`, Section 6.4) and returns the
/// number of updates performed.
fn drain_srq(chip: &mut ChipState, n: u32, denom: u32) -> u32 {
    let mut done = 0;
    for _ in 0..n {
        let Some(entry) = chip.srq.pop_highest_actr() else {
            break;
        };
        // The entry stands for 1 + SCtr selections, each worth 1/p,
        // plus 1 for the activation performing the write-back.
        let inc = 1 + (1 + entry.sctr) * denom;
        let count = chip.counters.add(entry.row, inc);
        chip.moat.observe(entry.row, count);
        done += 1;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_chip_states_are_independent() {
        let cfg = MitigationConfig::mopac_d(500)
            .with_chips(4)
            .with_drain_on_ref(0);
        let mut b = MopacDEngine::new(&cfg, 4096, DetRng::from_seed(42));
        for act in 0..4096u32 {
            b.on_activate(act, 0.0);
            if b.alert_cause().is_some() {
                b.service_abo();
            }
        }
        let occ = b.srq_occupancy();
        assert_eq!(occ.len(), 4);
        // With unique rows every window inserts exactly one entry in
        // every chip, so occupancies stay in lockstep — but each chip's
        // MINT selects different rows. Verify the buffered row sets
        // differ between chips.
        let sets: Vec<Vec<u32>> = b
            .chips
            .iter()
            .map(|c| {
                let mut rows: Vec<u32> = c.srq.iter().map(|e| e.row).collect();
                rows.sort_unstable();
                rows
            })
            .collect();
        assert!(
            sets.windows(2).any(|w| w[0] != w[1]),
            "all chips selected identical rows: {sets:?}"
        );
    }

    #[test]
    fn ref_drain_counts_into_ref_drained_stat() {
        let cfg = MitigationConfig::mopac_d(500).with_chips(1); // drain 2
        let mut b = MopacDEngine::new(&cfg, 4096, DetRng::from_seed(42));
        for act in 0..64u32 {
            b.on_activate(act, 0.0);
        }
        let svc = b.on_ref(0..8);
        assert_eq!(svc.counter_updates, 2);
        assert_eq!(b.stats().ref_drained_updates, 2);
        assert_eq!(b.stats().counter_updates, 2);
    }
}
