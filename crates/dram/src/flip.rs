//! The victim-data bit-flip plane: from counter breach to corrupted
//! reads.
//!
//! The [`crate::device::DramDevice`]'s oracle
//! ([`mopac::checker::Oracle`]) answers "did any row exceed T_RH
//! activations without an intervening refresh?" — a *counter* verdict.
//! This module models what the counter breach is a proxy for: actual
//! victim-data corruption. It is a second view of the same per-bank
//! [`Disturbance`] store the oracle reads — disturbance accumulated on
//! each row from each neighbour *separately* since the row was last
//! refreshed — so a threshold of `Constant(T_RH)` means "cells exactly
//! as strong as the oracle assumes" and an oracle-clean run is
//! structurally flip-free. On top of the store, [`VictimWords`] keeps
//!
//! * a per-row T_RH drawn from a seeded distribution (real DRAM cells
//!   vary; MOAT's security analysis sweeps exactly this), and
//! * one modeled 64-bit victim word whose bits flip probabilistically
//!   once either side's disturbance exceeds the row's own threshold.
//!
//! Optional on-die SEC ECC scrubs single-bit flips whenever the word
//! is read (demand read or the post-run readback sweep) or the row is
//! refreshed; multi-bit words are uncorrectable and count as corrupted
//! reads. The resulting [`FlipStats`] surface through
//! [`crate::device::DramDevice`] and `AttackRun` next to the oracle's
//! violation count — the end-to-end *attack-success* verdict.
//!
//! # Determinism
//!
//! Every random decision is a **stateless hash** of identifiers — the
//! per-bank salt, the victim row, the disturbing side, and that side's
//! disturbance count at the moment of the draw — never a stream
//! position. Two consequences the
//! tests rely on:
//!
//! * runs are bit-identical at any campaign thread count
//!   (`MOPAC_THREADS`) and across snapshot/restore, and
//! * the *flip draws* are independent of the ECC mode: ECC-on and
//!   ECC-off runs inject the same bits, ECC can only clear them. Flips
//!   set bits with OR (a re-flip is idempotent, never an XOR toggle),
//!   so the ECC-on flip mask is a subset of the ECC-off mask at every
//!   instant, which makes ECC-on corruption ≤ ECC-off corruption a
//!   structural guarantee rather than a statistical tendency.

use mopac::checker::{Disturbance, DisturbanceView, Side};
use mopac_types::rng::mix64;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::{MopacError, MopacResult};
use std::collections::BTreeMap;

/// Domain-separation tags for the hash draws (arbitrary odd constants).
const SALT_TAG: u64 = 0x464C_4950_5641_4C54; // "FLIPVALT"
const THRESH_TAG: u64 = 0x544C_4452_AB01;
const FLIP_TAG: u64 = 0x464C_4A02;
const BIT_TAG: u64 = 0x4249_5403;

/// Per-row Rowhammer threshold distribution (deterministic per cell:
/// the same seed, bank and row always yield the same threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrhDistribution {
    /// Every row flips past the same threshold.
    Constant(u32),
    /// Uniform in `lo..=hi` (weak-cell tail below the engines' design
    /// threshold is what makes mitigated configurations still show
    /// flips).
    Uniform {
        /// Lowest possible per-row threshold.
        lo: u32,
        /// Highest possible per-row threshold.
        hi: u32,
    },
    /// Log-normal around `median` with shape `sigma` (the empirical
    /// per-cell T_RH shape reported by profiling studies).
    LogNormal {
        /// Median per-row threshold.
        median: f64,
        /// Log-space standard deviation.
        sigma: f64,
    },
}

/// On-die ECC model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccMode {
    /// No correction: any flipped bit corrupts the read.
    None,
    /// Single-error-correct: one flipped bit is scrubbed on read/REF;
    /// two or more are uncorrectable.
    Sec,
}

/// Flip-plane configuration. Attached to
/// [`crate::device::DramConfig::flip`]; `None` there disables the
/// plane entirely (zero state, no snapshot state, bit-identical to the
/// pre-flip-plane simulator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipPlaneConfig {
    /// Per-row threshold distribution.
    pub t_rh: TrhDistribution,
    /// Probability that one past-threshold activation flips a bit in
    /// the victim word.
    pub flip_probability: f64,
    /// On-die ECC strength.
    pub ecc: EccMode,
}

impl FlipPlaneConfig {
    /// A flip plane with the given per-row threshold distribution, a
    /// 2% per-excess-activation flip probability, and no ECC.
    #[must_use]
    pub fn new(t_rh: TrhDistribution) -> Self {
        Self {
            t_rh,
            flip_probability: 0.02,
            ecc: EccMode::None,
        }
    }

    /// Sets the ECC mode.
    #[must_use]
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Sets the per-excess-activation flip probability.
    #[must_use]
    pub fn with_flip_probability(mut self, p: f64) -> Self {
        self.flip_probability = p;
        self
    }
}

mopac_types::counter_struct! {
    /// Aggregate flip-plane statistics. Deliberately *not* part of
    /// [`crate::device::DramStats`]: that struct serializes field-by-field
    /// into every device snapshot, and the flip plane must cost no
    /// snapshot state when disabled.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FlipStats {
        /// Victim-word bits flipped by disturbance (newly set bits only; a
        /// re-flip of an already-flipped bit is idempotent).
        pub bit_flips: u64 => DramBitFlips,
        /// Single-bit flips scrubbed by SEC ECC on read or refresh.
        pub ecc_corrections: u64 => DramEccCorrections,
        /// Reads (demand or readback sweep) that returned uncorrectable
        /// victim data.
        pub corrupted_reads: u64 => DramCorruptedReads,
    }
}

impl FlipStats {
    /// Whether the attack actually corrupted data the host could read.
    #[must_use]
    pub fn attack_success(&self) -> bool {
        self.corrupted_reads > 0
    }
}

/// Outcome of reading a row through the flip plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// No flipped bits in the victim word.
    Clean,
    /// Exactly one flipped bit, scrubbed by SEC ECC.
    Corrected,
    /// Uncorrectable: the host observed corrupted data.
    Corrupted,
}

/// The flip plane's view of a bank's [`Disturbance`] store: per-row
/// thresholds, victim words, ECC and [`FlipStats`]. Lives inside
/// [`crate::bank::Bank`] next to the checker's [`mopac::checker::Oracle`],
/// both reading the bank's one store.
#[derive(Debug, Clone)]
pub struct VictimWords {
    cfg: FlipPlaneConfig,
    /// Per-bank salt (derived from the device seed and flat bank
    /// index); every hash draw mixes it in.
    salt: u64,
    /// Flipped bits of each row's modeled victim word, sparse: absent
    /// means clean. One 64-bit ECC-word sample stands in for the whole
    /// row (DESIGN.md §16).
    flips: BTreeMap<u32, u64>,
    stats: FlipStats,
}

impl VictimWords {
    /// Clean victim words for the bank with salt `salt`
    /// ([`FlipPlane::bank_salt`]).
    ///
    /// # Panics
    ///
    /// Panics if the flip probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(cfg: FlipPlaneConfig, salt: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.flip_probability),
            "flip probability {} out of range",
            cfg.flip_probability
        );
        Self {
            cfg,
            salt,
            flips: BTreeMap::new(),
            stats: FlipStats::default(),
        }
    }

    /// This row's Rowhammer threshold, drawn deterministically from
    /// the seeded distribution (same seed + bank + row ⇒ same value).
    #[must_use]
    pub fn threshold_of(&self, row: u32) -> u32 {
        let h = mix64(self.salt ^ THRESH_TAG ^ u64::from(row));
        match self.cfg.t_rh {
            TrhDistribution::Constant(t) => t.max(1),
            TrhDistribution::Uniform { lo, hi } => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                let span = u64::from(hi - lo) + 1;
                // Modulo of a well-mixed 64-bit hash: the bias over a
                // ≤2^32 span is ≤2^-32, irrelevant for a fault model.
                (lo + (h % span) as u32).max(1)
            }
            TrhDistribution::LogNormal { median, sigma } => {
                let u1 = unit(mix64(h ^ 1));
                let u2 = unit(mix64(h ^ 2));
                // Box-Muller: standard normal from two uniforms.
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let t = median.max(1.0) * (sigma.abs() * z).exp();
                t.clamp(1.0, f64::from(u32::MAX)) as u32
            }
        }
    }

    /// Reads `row` through the flip plane: reports (and counts)
    /// whether the host observed clean, corrected, or corrupted data.
    /// SEC ECC scrubs the single-bit case; uncorrectable words persist
    /// (every subsequent read of them is another corrupted read).
    pub fn on_read(&mut self, row: u32) -> ReadOutcome {
        let word = self.flips.get(&row).copied().unwrap_or(0);
        if word == 0 {
            return ReadOutcome::Clean;
        }
        if word.count_ones() == 1 && self.cfg.ecc == EccMode::Sec {
            self.flips.remove(&row);
            self.stats.ecc_corrections += 1;
            ReadOutcome::Corrected
        } else {
            self.stats.corrupted_reads += 1;
            ReadOutcome::Corrupted
        }
    }

    /// Post-run verification pass: reads back every row with a
    /// non-clean victim word, counting corrections and corrupted reads
    /// exactly as demand reads would. This is the software analogue of
    /// hammering-then-checking a buffer (HammerSim's flip check): a
    /// hammer pattern touches only aggressor rows, so victim
    /// corruption only becomes *observed* corruption when something
    /// reads the victims.
    pub fn readback_sweep(&mut self) {
        let dirty: Vec<u32> = self.flips.keys().copied().collect();
        for row in dirty {
            let _ = self.on_read(row);
        }
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> FlipStats {
        self.stats
    }

    /// Writes the plane's snapshot section: the flipped victim words,
    /// then the stats. The disturbance store is the bank's to write.
    pub fn save_section(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.flips.len());
        for (&row, &word) in &self.flips {
            w.put_u32(row);
            w.put_u64(word);
        }
        self.stats.save_state(w);
    }

    /// Reads a [`Self::save_section`] section for a bank of `rows` rows.
    ///
    /// # Errors
    ///
    /// [`MopacError::Snapshot`] on a flipped row outside the bank or
    /// corrupt input.
    pub fn load_section(&mut self, rows: u32, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.flips.clear();
        for _ in 0..r.take_usize()? {
            let row = r.take_u32()?;
            if row >= rows {
                return Err(MopacError::snapshot(format!("flip-plane flipped row {row} out of range")));
            }
            let word = r.take_u64()?;
            self.flips.insert(row, word);
        }
        self.stats.load_state(r)
    }
}

impl DisturbanceView for VictimWords {
    /// Draws for a bit flip once `victim`'s disturbance from `side` is
    /// past the row's own threshold.
    fn disturbed(&mut self, victim: u32, side: Side, count: u32) {
        if count <= self.threshold_of(victim) {
            return;
        }
        // Stateless draw keyed on (bank salt, victim, side, disturbance
        // count): identical across thread counts, restores, and ECC
        // modes. The shifts keep the three identifiers in disjoint
        // bit ranges (count < 2^32, victim < 2^30).
        let key = mix64(
            self.salt
                ^ FLIP_TAG
                ^ (u64::from(victim) << 34)
                ^ ((side as u64) << 33)
                ^ u64::from(count),
        );
        if unit(key) >= self.cfg.flip_probability {
            return;
        }
        let bit = mix64(key ^ BIT_TAG) % 64;
        let word = self.flips.entry(victim).or_insert(0);
        let mask = 1u64 << bit;
        if *word & mask == 0 {
            *word |= mask;
            self.stats.bit_flips += 1;
        }
    }

    /// A refresh's read-restore lets SEC ECC (when configured) scrub a
    /// single-bit flip.
    fn refreshed(&mut self, row: u32) {
        if self.cfg.ecc != EccMode::Sec {
            return;
        }
        if let Some(&word) = self.flips.get(&row) {
            if word.count_ones() == 1 {
                self.flips.remove(&row);
                self.stats.ecc_corrections += 1;
            } else if word == 0 {
                self.flips.remove(&row);
            }
        }
    }
}

/// A standalone flip plane for one bank: a [`Disturbance`] store read
/// by [`VictimWords`].
#[derive(Debug, Clone)]
pub struct FlipPlane {
    store: Disturbance,
    words: VictimWords,
}

impl FlipPlane {
    /// Builds the plane for a bank with `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or the flip probability is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(cfg: FlipPlaneConfig, rows: u32, salt: u64) -> Self {
        Self {
            store: Disturbance::new(rows),
            words: VictimWords::new(cfg, salt),
        }
    }

    /// Derives a per-bank salt from the device seed. Depends only on
    /// the identifiers, so any thread interleaving or construction
    /// order yields the same plane.
    #[must_use]
    pub fn bank_salt(device_seed: u64, flat_bank: u32) -> u64 {
        mix64(mix64(device_seed ^ SALT_TAG) ^ u64::from(flat_bank))
    }

    /// Records an activation of aggressor `row`
    /// ([`Disturbance::activate`]). Returns the number of *newly*
    /// flipped bits.
    pub fn on_activate(&mut self, row: u32) -> u64 {
        let before = self.words.stats.bit_flips;
        self.store.activate(row, &mut self.words);
        self.words.stats.bit_flips - before
    }

    /// Records a periodic REF covering `rows`.
    pub fn on_refresh_range(&mut self, rows: std::ops::Range<u32>) {
        self.store.refresh_range(rows, &mut self.words);
    }

    /// Records a mitigation of aggressor `row` ([`Disturbance::mitigate`]).
    pub fn on_mitigate(&mut self, row: u32, blast_radius: u32) {
        self.store.mitigate(row, blast_radius, &mut self.words);
    }

    /// The victim words and their statistics.
    #[must_use]
    pub fn words(&self) -> &VictimWords {
        &self.words
    }

    /// Mutable victim words (reads and the readback sweep).
    pub fn words_mut(&mut self) -> &mut VictimWords {
        &mut self.words
    }
}

/// Maps a hash word to a uniform in `(0, 1)` (never exactly 0, so
/// `ln()` is safe).
fn unit(h: u64) -> f64 {
    (((h >> 11) as f64) + 0.5) * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(cfg: FlipPlaneConfig) -> FlipPlane {
        FlipPlane::new(cfg, 64, FlipPlane::bank_salt(0xD0_5E_ED, 0))
    }

    /// Disturbance accumulated on `row` from both neighbours.
    fn disturbance(p: &FlipPlane, row: u32) -> u32 {
        let [up, dn] = p.store.sides();
        let from_lo = up.filter(|&(a, _)| a + 1 == row);
        from_lo.chain(dn.filter(|&(a, _)| a == row + 1)).map(|(_, c)| c).sum()
    }

    #[test]
    fn thresholds_deterministic_and_in_range() {
        let p = plane(FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 100, hi: 400 }));
        let q = plane(FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 100, hi: 400 }));
        for row in 0..64 {
            let t = p.words().threshold_of(row);
            assert_eq!(t, q.words().threshold_of(row));
            assert!((100..=400).contains(&t), "row {row} threshold {t}");
        }
    }

    #[test]
    fn lognormal_centers_on_median() {
        let p = FlipPlane::new(
            FlipPlaneConfig::new(TrhDistribution::LogNormal { median: 400.0, sigma: 0.3 }),
            4096,
            7,
        );
        let below = (0..4096).filter(|&r| p.words().threshold_of(r) < 400).count();
        let frac = below as f64 / 4096.0;
        assert!((0.4..0.6).contains(&frac), "below-median fraction {frac}");
    }

    #[test]
    fn flips_only_past_per_row_threshold() {
        let mut p = plane(
            FlipPlaneConfig::new(TrhDistribution::Constant(10)).with_flip_probability(1.0),
        );
        for _ in 0..10 {
            assert_eq!(p.on_activate(5), 0);
        }
        // 11th disturbance exceeds the threshold; p=1 guarantees a flip
        // on each side the first time past.
        assert!(p.on_activate(5) > 0);
        assert!(p.words().stats().bit_flips > 0);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let mut p = plane(
            FlipPlaneConfig::new(TrhDistribution::Constant(10)).with_flip_probability(1.0),
        );
        for _ in 0..10 {
            p.on_activate(5);
        }
        p.on_refresh_range(4..5);
        p.on_refresh_range(6..7);
        assert_eq!(disturbance(&p, 4), 0);
        for _ in 0..10 {
            assert_eq!(p.on_activate(5), 0);
        }
    }

    #[test]
    fn edge_rows_disturb_only_real_neighbours() {
        let mut p = FlipPlane::new(
            FlipPlaneConfig::new(TrhDistribution::Constant(1)).with_flip_probability(1.0),
            4,
            1,
        );
        for _ in 0..8 {
            p.on_activate(0);
            p.on_activate(3);
        }
        // Rows 1 and 2 disturbed; no panic, no phantom row 4.
        assert!(disturbance(&p, 1) > 0);
        assert!(disturbance(&p, 2) > 0);
        assert_eq!(disturbance(&p, 0), 0);
        assert_eq!(disturbance(&p, 3), 0);
    }

    #[test]
    fn sec_corrects_single_bit_and_counts() {
        let cfg =
            FlipPlaneConfig::new(TrhDistribution::Constant(2)).with_flip_probability(1.0);
        let mut ecc = plane(cfg.with_ecc(EccMode::Sec));
        let mut raw = plane(cfg);
        // Hammer just past the threshold: with p = 1 the first excess
        // activation flips exactly one bit in each neighbour, and both
        // planes draw identically (the flip stream is ECC-independent).
        loop {
            let a = ecc.on_activate(5);
            let b = raw.on_activate(5);
            assert_eq!(a, b);
            if ecc.words().stats().bit_flips >= 1 {
                break;
            }
        }
        // Whichever side flipped, read it on both planes: SEC corrects
        // the single bit, the raw plane reports corruption.
        for row in [4u32, 6] {
            let e = ecc.words_mut().on_read(row);
            let r = raw.words_mut().on_read(row);
            assert_ne!(e, ReadOutcome::Corrupted);
            if r == ReadOutcome::Corrupted {
                assert_eq!(e, ReadOutcome::Corrected);
            }
        }
        assert!(ecc.words().stats().ecc_corrections >= 1);
        assert_eq!(ecc.words().stats().corrupted_reads, 0);
        assert!(raw.words().stats().corrupted_reads >= 1);
    }

    #[test]
    fn ecc_on_corruption_never_exceeds_ecc_off() {
        // Long random-ish hammer; structural subset property.
        let cfg = FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 4, hi: 40 })
            .with_flip_probability(0.5);
        let mut ecc = plane(cfg.with_ecc(EccMode::Sec));
        let mut raw = plane(cfg);
        for i in 0..5_000u32 {
            let row = (mix64(u64::from(i)) % 64) as u32;
            ecc.on_activate(row);
            raw.on_activate(row);
            if i % 97 == 0 {
                ecc.on_refresh_range(0..64);
                raw.on_refresh_range(0..64);
            }
            if i % 13 == 0 {
                ecc.words_mut().on_read(row.saturating_sub(1));
                raw.words_mut().on_read(row.saturating_sub(1));
            }
        }
        ecc.words_mut().readback_sweep();
        raw.words_mut().readback_sweep();
        // The ECC plane's flip mask is a subset of the raw plane's at
        // every instant (same draws, OR-only sets, ECC only clears),
        // so every read that corrupts under ECC corrupts without it.
        assert!(raw.words().stats().bit_flips > 0, "test never flipped anything");
        assert!(ecc.words().stats().corrupted_reads <= raw.words().stats().corrupted_reads);
        assert_eq!(raw.words().stats().ecc_corrections, 0);
    }

    #[test]
    fn readback_sweep_observes_latent_flips() {
        let mut p = plane(
            FlipPlaneConfig::new(TrhDistribution::Constant(2)).with_flip_probability(1.0),
        );
        for _ in 0..50 {
            p.on_activate(5);
        }
        assert!(p.words().stats().bit_flips > 0);
        assert_eq!(p.words().stats().corrupted_reads, 0, "nothing read the victims yet");
        p.words_mut().readback_sweep();
        assert!(p.words().stats().corrupted_reads > 0);
    }

    #[test]
    fn snapshot_round_trip() {
        let cfg = FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 2, hi: 20 })
            .with_flip_probability(0.7)
            .with_ecc(EccMode::Sec);
        let mut a = plane(cfg);
        for i in 0..500u32 {
            a.on_activate(i % 60);
        }
        let mut w = SnapshotWriter::new();
        a.store.save_state(&mut w);
        a.words.save_section(&mut w);
        let bytes = w.finish();
        let mut b = plane(cfg);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        b.store.load_state(&mut r).unwrap();
        b.words.load_section(64, &mut r).unwrap();
        // Continue both identically.
        for i in 0..200u32 {
            assert_eq!(a.on_activate(i % 60), b.on_activate(i % 60));
        }
        a.words_mut().readback_sweep();
        b.words_mut().readback_sweep();
        assert_eq!(a.words().stats(), b.words().stats());
    }

    /// A victim word flipped past the end of a smaller bank is refused
    /// with a typed error, not inserted out of range.
    #[test]
    fn snapshot_rejects_cross_shape() {
        let cfg = FlipPlaneConfig::new(TrhDistribution::Constant(2)).with_flip_probability(1.0);
        let mut p = plane(cfg);
        for _ in 0..10 {
            p.on_activate(60);
        }
        assert!(p.words().stats().bit_flips > 0);
        let mut w = SnapshotWriter::new();
        p.words.save_section(&mut w);
        let bytes = w.finish();
        let mut other = FlipPlane::new(cfg, 16, FlipPlane::bank_salt(0xD0_5E_ED, 0));
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let e = other.words.load_section(16, &mut r).unwrap_err();
        assert!(matches!(e, MopacError::Snapshot { .. }), "{e:?}");
    }
}
