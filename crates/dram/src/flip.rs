//! The victim-data bit-flip plane: from counter breach to corrupted
//! reads.
//!
//! The [`crate::device::DramDevice`]'s oracle
//! ([`mopac::checker::RowhammerChecker`]) answers "did any row exceed
//! T_RH activations without an intervening refresh?" — a *counter*
//! verdict. This module models what the counter breach is a proxy for:
//! actual victim-data corruption. It observes the same ACT / REF /
//! mitigation event stream the checker sees and maintains, per row,
//!
//! * disturbance accumulated from each neighbour *separately* since
//!   the row was last refreshed — the same per-aggressor-side
//!   accounting as the checker's `up`/`dn` slots, so a threshold of
//!   `Constant(T_RH)` means "cells exactly as strong as the oracle
//!   assumes" and an oracle-clean run is structurally flip-free,
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

impl TrhDistribution {
    /// Stable tag for snapshot shape checks.
    #[must_use]
    fn tag(self) -> u32 {
        match self {
            TrhDistribution::Constant(_) => 0,
            TrhDistribution::Uniform { .. } => 1,
            TrhDistribution::LogNormal { .. } => 2,
        }
    }
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

impl EccMode {
    /// Stable tag for snapshot shape checks.
    #[must_use]
    fn tag(self) -> u32 {
        match self {
            EccMode::None => 0,
            EccMode::Sec => 1,
        }
    }
}

/// Flip-plane configuration. Attached to
/// [`crate::device::DramConfig::flip`]; `None` there disables the
/// plane entirely (zero state, zero snapshot bytes, bit-identical to
/// the pre-flip-plane simulator).
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

/// Aggregate flip-plane statistics. Deliberately *not* part of
/// [`crate::device::DramStats`]: that struct serializes field-by-field
/// into every legacy snapshot, and the flip plane must cost zero bytes
/// when disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlipStats {
    /// Victim-word bits flipped by disturbance (newly set bits only; a
    /// re-flip of an already-flipped bit is idempotent).
    pub bit_flips: u64,
    /// Single-bit flips scrubbed by SEC ECC on read or refresh.
    pub ecc_corrections: u64,
    /// Reads (demand or readback sweep) that returned uncorrectable
    /// victim data.
    pub corrupted_reads: u64,
}

impl FlipStats {
    /// Field-wise accumulation (per-bank → device totals).
    pub fn accumulate(&mut self, o: &FlipStats) {
        self.bit_flips += o.bit_flips;
        self.ecc_corrections += o.ecc_corrections;
        self.corrupted_reads += o.corrupted_reads;
    }

    /// Whether the attack actually corrupted data the host could read.
    #[must_use]
    pub fn attack_success(&self) -> bool {
        self.corrupted_reads > 0
    }
}

impl Snapshottable for FlipStats {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.bit_flips);
        w.put_u64(self.ecc_corrections);
        w.put_u64(self.corrupted_reads);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.bit_flips = r.take_u64()?;
        self.ecc_corrections = r.take_u64()?;
        self.corrupted_reads = r.take_u64()?;
        Ok(())
    }
}

/// Which neighbour a unit of disturbance came from (hash-key domain
/// separation between the two sides of the same victim).
#[derive(Debug, Clone, Copy)]
enum Side {
    /// From the lower neighbour (`row - 1`).
    Lo = 0,
    /// From the upper neighbour (`row + 1`).
    Hi = 1,
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

/// Per-bank victim-data plane. Lives inside [`crate::bank::Bank`]
/// parallel to the checker and sees the same event stream.
#[derive(Debug, Clone)]
pub struct FlipPlane {
    cfg: FlipPlaneConfig,
    /// Per-bank salt (derived from the device seed and flat bank
    /// index); every hash draw mixes it in.
    salt: u64,
    rows: u32,
    /// Disturbance accumulated on each row from its *lower* neighbour
    /// (`row - 1`) since the row was last refreshed. Mirrors the
    /// checker's `up[row - 1]` slot.
    acc_lo: Box<[u32]>,
    /// Disturbance from the *upper* neighbour (`row + 1`); mirrors the
    /// checker's `dn[row + 1]` slot.
    acc_hi: Box<[u32]>,
    /// Flipped bits of each row's modeled victim word, sparse: absent
    /// means clean. One 64-bit ECC-word sample stands in for the whole
    /// row (DESIGN.md §16).
    flips: BTreeMap<u32, u64>,
    stats: FlipStats,
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
        assert!(rows > 0, "flip plane needs at least one row");
        assert!(
            (0.0..=1.0).contains(&cfg.flip_probability),
            "flip probability {} out of range",
            cfg.flip_probability
        );
        Self {
            cfg,
            salt,
            rows,
            acc_lo: vec![0; rows as usize].into_boxed_slice(),
            acc_hi: vec![0; rows as usize].into_boxed_slice(),
            flips: BTreeMap::new(),
            stats: FlipStats::default(),
        }
    }

    /// Derives a per-bank salt from the device seed. Depends only on
    /// the identifiers, so any thread interleaving or construction
    /// order yields the same plane.
    #[must_use]
    pub fn bank_salt(device_seed: u64, flat_bank: u32) -> u64 {
        mix64(mix64(device_seed ^ SALT_TAG) ^ u64::from(flat_bank))
    }

    /// The configuration this plane was built with.
    #[must_use]
    pub fn config(&self) -> &FlipPlaneConfig {
        &self.cfg
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

    /// Records an activation of aggressor `row`: both physically
    /// existing neighbours accumulate disturbance on the side facing
    /// the aggressor, and each draws for a bit flip once that side is
    /// past their own threshold. Returns the number of *newly* flipped
    /// bits (for the device's trace event).
    pub fn on_activate(&mut self, row: u32) -> u32 {
        let mut injected = 0;
        if row > 0 {
            // The victim below sees `row` as its upper neighbour.
            injected += self.disturb(row - 1, Side::Hi);
        }
        if row + 1 < self.rows {
            injected += self.disturb(row + 1, Side::Lo);
        }
        injected
    }

    /// One unit of disturbance on victim `v` from the given side; draws
    /// a flip when that side is past `v`'s threshold.
    fn disturb(&mut self, v: u32, side: Side) -> u32 {
        let i = v as usize;
        let acc = match side {
            Side::Lo => &mut self.acc_lo,
            Side::Hi => &mut self.acc_hi,
        };
        acc[i] = acc[i].saturating_add(1);
        let count = acc[i];
        if count <= self.threshold_of(v) {
            return 0;
        }
        // Stateless draw keyed on (bank salt, victim, side, disturbance
        // count): identical across thread counts, restores, and ECC
        // modes. The shifts keep the three identifiers in disjoint
        // bit ranges (count < 2^32, victim < 2^30).
        let key = mix64(
            self.salt
                ^ FLIP_TAG
                ^ (u64::from(v) << 34)
                ^ ((side as u64) << 33)
                ^ u64::from(count),
        );
        if unit(key) >= self.cfg.flip_probability {
            return 0;
        }
        let bit = mix64(key ^ BIT_TAG) % 64;
        let word = self.flips.entry(v).or_insert(0);
        let mask = 1u64 << bit;
        if *word & mask == 0 {
            *word |= mask;
            self.stats.bit_flips += 1;
            1
        } else {
            0
        }
    }

    /// Records that `row` itself was refreshed: its disturbance resets
    /// (both sides) and SEC ECC (when configured) scrubs a single-bit
    /// flip as part of the refresh read-restore.
    pub fn on_refresh_row(&mut self, row: u32) {
        self.acc_lo[row as usize] = 0;
        self.acc_hi[row as usize] = 0;
        self.scrub(row);
    }

    /// Records a periodic REF covering `rows`.
    pub fn on_refresh_range(&mut self, rows: std::ops::Range<u32>) {
        for r in rows {
            self.on_refresh_row(r);
        }
    }

    /// Records a mitigation of aggressor `row` with the given blast
    /// radius, mirroring the checker: victims on both sides are
    /// refreshed, and the victim-refresh activations disturb *their*
    /// neighbours. Returns newly flipped bits (a mitigation storm can
    /// itself flip cells — the Half-Double effect).
    pub fn on_mitigate(&mut self, row: u32, blast_radius: u32) -> u32 {
        let mut injected = 0;
        for d in 1..=blast_radius {
            if row >= d {
                let v = row - d;
                self.on_refresh_row(v);
                injected += self.on_activate(v);
            }
            let v = row + d;
            if v < self.rows {
                self.on_refresh_row(v);
                injected += self.on_activate(v);
            }
        }
        injected
    }

    /// Reads `row` through the flip plane: reports (and counts)
    /// whether the host observed clean, corrected, or corrupted data.
    /// SEC ECC scrubs the single-bit case; uncorrectable words persist
    /// (every subsequent read of them is another corrupted read).
    pub fn on_read(&mut self, row: u32) -> ReadOutcome {
        let Some(&word) = self.flips.get(&row) else {
            return ReadOutcome::Clean;
        };
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

    /// SEC refresh scrub of one row (no read outcome: refresh restores
    /// the cell internally).
    fn scrub(&mut self, row: u32) {
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

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> FlipStats {
        self.stats
    }

    /// Rows whose victim word currently holds at least one flipped bit.
    #[must_use]
    pub fn flipped_rows(&self) -> usize {
        self.flips.values().filter(|&&w| w != 0).count()
    }

    /// Current disturbance accumulated on `row`, both sides summed
    /// (test introspection).
    #[must_use]
    pub fn disturbance(&self, row: u32) -> u32 {
        let i = row as usize;
        let lo = self.acc_lo.get(i).copied().unwrap_or(0);
        let hi = self.acc_hi.get(i).copied().unwrap_or(0);
        lo.saturating_add(hi)
    }
}

/// Maps a hash word to a uniform in `(0, 1)` (never exactly 0, so
/// `ln()` is safe).
fn unit(h: u64) -> f64 {
    (((h >> 11) as f64) + 0.5) * (1.0 / (1u64 << 53) as f64)
}

impl Snapshottable for FlipPlane {
    /// Config (distribution/ECC tags) and shape are serialized for
    /// cross-shape detection; disturbance serializes sparsely like the
    /// checker's exposure arrays.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.cfg.t_rh.tag());
        w.put_u32(self.cfg.ecc.tag());
        w.put_u32(self.rows);
        for side in [&self.acc_lo, &self.acc_hi] {
            let nonzero = side.iter().filter(|&&c| c != 0).count();
            w.put_usize(nonzero);
            for (i, &c) in side.iter().enumerate() {
                if c != 0 {
                    w.put_u32(i as u32);
                    w.put_u32(c);
                }
            }
        }
        w.put_usize(self.flips.len());
        for (&row, &word) in &self.flips {
            w.put_u32(row);
            w.put_u64(word);
        }
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let err = MopacError::snapshot;
        let dist = r.take_u32()?;
        let ecc = r.take_u32()?;
        let rows = r.take_u32()?;
        if dist != self.cfg.t_rh.tag() || ecc != self.cfg.ecc.tag() || rows != self.rows {
            return Err(err(format!(
                "flip-plane shape mismatch: snapshot dist={dist}/ecc={ecc}/rows={rows}, \
                 configured dist={}/ecc={}/rows={}",
                self.cfg.t_rh.tag(),
                self.cfg.ecc.tag(),
                self.rows
            )));
        }
        for side in [&mut self.acc_lo, &mut self.acc_hi] {
            side.fill(0);
            let n = r.take_usize()?;
            for _ in 0..n {
                let i = r.take_u32()? as usize;
                let c = r.take_u32()?;
                let slot = side
                    .get_mut(i)
                    .ok_or_else(|| err(format!("flip-plane row {i} out of range")))?;
                *slot = c;
            }
        }
        self.flips.clear();
        let n = r.take_usize()?;
        for _ in 0..n {
            let row = r.take_u32()?;
            if row >= self.rows {
                return Err(err(format!("flip-plane flipped row {row} out of range")));
            }
            let word = r.take_u64()?;
            self.flips.insert(row, word);
        }
        self.stats.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(cfg: FlipPlaneConfig) -> FlipPlane {
        FlipPlane::new(cfg, 64, FlipPlane::bank_salt(0xD0_5E_ED, 0))
    }

    #[test]
    fn thresholds_deterministic_and_in_range() {
        let p = plane(FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 100, hi: 400 }));
        let q = plane(FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 100, hi: 400 }));
        for row in 0..64 {
            let t = p.threshold_of(row);
            assert_eq!(t, q.threshold_of(row));
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
        let below = (0..4096).filter(|&r| p.threshold_of(r) < 400).count();
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
        assert!(p.stats().bit_flips > 0);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let mut p = plane(
            FlipPlaneConfig::new(TrhDistribution::Constant(10)).with_flip_probability(1.0),
        );
        for _ in 0..10 {
            p.on_activate(5);
        }
        p.on_refresh_row(4);
        p.on_refresh_row(6);
        assert_eq!(p.disturbance(4), 0);
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
        assert!(p.disturbance(1) > 0);
        assert!(p.disturbance(2) > 0);
        assert_eq!(p.disturbance(0), 0);
        assert_eq!(p.disturbance(3), 0);
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
            if ecc.stats().bit_flips >= 1 {
                break;
            }
        }
        // Whichever side flipped, read it on both planes: SEC corrects
        // the single bit, the raw plane reports corruption.
        for row in [4u32, 6] {
            let e = ecc.on_read(row);
            let r = raw.on_read(row);
            assert_ne!(e, ReadOutcome::Corrupted);
            if r == ReadOutcome::Corrupted {
                assert_eq!(e, ReadOutcome::Corrected);
            }
        }
        assert!(ecc.stats().ecc_corrections >= 1);
        assert_eq!(ecc.stats().corrupted_reads, 0);
        assert!(raw.stats().corrupted_reads >= 1);
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
                ecc.on_read(row.saturating_sub(1));
                raw.on_read(row.saturating_sub(1));
            }
        }
        ecc.readback_sweep();
        raw.readback_sweep();
        // The ECC plane's flip mask is a subset of the raw plane's at
        // every instant (same draws, OR-only sets, ECC only clears),
        // so every read that corrupts under ECC corrupts without it.
        assert!(raw.stats().bit_flips > 0, "test never flipped anything");
        assert!(ecc.stats().corrupted_reads <= raw.stats().corrupted_reads);
        assert_eq!(raw.stats().ecc_corrections, 0);
    }

    #[test]
    fn readback_sweep_observes_latent_flips() {
        let mut p = plane(
            FlipPlaneConfig::new(TrhDistribution::Constant(2)).with_flip_probability(1.0),
        );
        for _ in 0..50 {
            p.on_activate(5);
        }
        assert!(p.stats().bit_flips > 0);
        assert_eq!(p.stats().corrupted_reads, 0, "nothing read the victims yet");
        p.readback_sweep();
        assert!(p.stats().corrupted_reads > 0);
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
        a.save_state(&mut w);
        let bytes = w.finish();
        let mut b = plane(cfg);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        b.load_state(&mut r).unwrap();
        // Continue both identically.
        for i in 0..200u32 {
            assert_eq!(a.on_activate(i % 60), b.on_activate(i % 60));
        }
        a.readback_sweep();
        b.readback_sweep();
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn snapshot_rejects_cross_shape() {
        let mut w = SnapshotWriter::new();
        plane(FlipPlaneConfig::new(TrhDistribution::Constant(100))).save_state(&mut w);
        let bytes = w.finish();
        let mut other = plane(
            FlipPlaneConfig::new(TrhDistribution::Constant(100)).with_ecc(EccMode::Sec),
        );
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let e = other.load_state(&mut r).unwrap_err();
        assert!(matches!(e, MopacError::Snapshot { .. }), "{e:?}");
    }
}
