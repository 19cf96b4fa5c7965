//! Property tests for the mitigation building blocks: SRQ invariants,
//! MINT window guarantees, MOAT tracking, and the security oracle.

use mopac::checker::{Disturbance, Oracle, RowhammerChecker};
use mopac::counters::PracCounters;
use mopac::mint::MintSampler;
use mopac::moat::MoatTracker;
use mopac::srq::{Srq, SrqInsert};
use mopac_types::check::prop_check;
use mopac_types::prop_ensure;
use mopac_types::rng::DetRng;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};

#[test]
fn srq_never_exceeds_capacity_and_never_duplicates() {
    prop_check("srq_never_exceeds_capacity_and_never_duplicates", 128, |rng| {
        let cap = 1 + rng.below(31) as usize;
        let n = rng.below(200) as usize;
        let rows: Vec<u32> = (0..n).map(|_| rng.below(64) as u32).collect();
        let mut q = Srq::new(cap);
        for &r in &rows {
            let _ = q.insert(r);
            prop_ensure!(q.len() <= cap, "len {} > cap {cap}", q.len());
        }
        let mut seen = std::collections::HashSet::new();
        for e in q.iter() {
            prop_ensure!(seen.insert(e.row), "duplicate row {}", e.row);
        }
        Ok(())
    });
}

#[test]
fn srq_selection_accounting_is_conserved() {
    prop_check("srq_selection_accounting_is_conserved", 128, |rng| {
        // Every accepted selection is represented as 1 + SCtr across
        // entries; overflows are the only losses.
        let n = 1 + rng.below(99) as usize;
        let rows: Vec<u32> = (0..n).map(|_| rng.below(16) as u32).collect();
        let mut q = Srq::new(8);
        let mut overflows = 0u64;
        for &r in &rows {
            if let SrqInsert::Overflowed = q.insert(r) {
                overflows += 1;
            }
        }
        let represented: u64 = q.iter().map(|e| 1 + u64::from(e.sctr)).sum();
        prop_ensure!(
            represented + overflows == rows.len() as u64,
            "represented {represented} + overflows {overflows} != {}",
            rows.len()
        );
        Ok(())
    });
}

#[test]
fn mint_selects_exactly_once_per_window() {
    prop_check("mint_selects_exactly_once_per_window", 128, |rng| {
        let window = 1 + rng.below(63) as u32;
        let seed = rng.next_u64();
        let total_windows = 1 + rng.below(49) as u32;
        let mut s = MintSampler::new(window, DetRng::from_seed(seed));
        let mut selections = 0;
        for act in 0..window * total_windows {
            if s.on_activate(act).is_some() {
                selections += 1;
            }
        }
        prop_ensure!(
            selections == total_windows,
            "window {window}: {selections} selections over {total_windows} windows"
        );
        Ok(())
    });
}

#[test]
fn moat_always_tracks_the_maximum() {
    prop_check("moat_always_tracks_the_maximum", 128, |rng| {
        let n = 1 + rng.below(99) as usize;
        let observations: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.below(32) as u32, 1 + rng.below(999) as u32))
            .collect();
        let mut t = MoatTracker::new(10_000, 5_000);
        let mut best: Option<(u32, u32)> = None;
        for &(row, count) in &observations {
            t.observe(row, count);
            // Model: same-row updates replace, higher counts replace.
            best = match best {
                Some((br, bc)) if br == row || count > bc => Some((row, count)),
                None => Some((row, count)),
                keep => keep,
            };
        }
        let Some(tracked) = t.tracked() else {
            return Err("observed at least once but nothing tracked".into());
        };
        // The tracked count can never be below the running maximum seen
        // for the tracked row; and alert fires iff count >= ATH.
        let expect = best.ok_or_else(|| "no observations".to_string())?;
        prop_ensure!(tracked == expect, "tracked {tracked:?} != model {expect:?}");
        prop_ensure!(
            t.alert_needed() == (tracked.1 >= 10_000),
            "alert_needed mismatch at {tracked:?}"
        );
        Ok(())
    });
}

#[test]
fn checker_never_flags_below_threshold() {
    prop_check("checker_never_flags_below_threshold", 128, |rng| {
        let n = rng.below(400) as usize;
        let acts: Vec<u32> = (0..n).map(|_| rng.below(16) as u32).collect();
        let t_rh = 100 + rng.below(9_900) as u32;
        let mut ck = RowhammerChecker::new(16, t_rh);
        let mut per_row = [0u32; 16];
        for &r in &acts {
            ck.on_activate(r);
            per_row[r as usize] += 1;
        }
        if per_row.iter().all(|&c| c <= t_rh) {
            prop_ensure!(ck.violations() == 0, "{} violations below T_RH", ck.violations());
        }
        prop_ensure!(
            ck.max_exposure() == per_row.iter().copied().max().unwrap_or(0),
            "max exposure mismatch"
        );
        Ok(())
    });
}

/// Naive reference model of the oracle, written directly from the
/// DESIGN.md semantics: per-row up/dn budgets, violations only toward
/// victims that physically exist, refresh of `V` clears `up[V-1]` /
/// `dn[V+1]`, mitigation refreshes-then-activates each victim in the
/// (edge-clipped) blast zone.
struct NaiveChecker {
    rows: usize,
    t_rh: u32,
    up: Vec<u32>,
    dn: Vec<u32>,
    violations: u64,
    victims: Vec<u32>,
}

impl NaiveChecker {
    fn new(rows: usize, t_rh: u32) -> Self {
        Self {
            rows,
            t_rh,
            up: vec![0; rows],
            dn: vec![0; rows],
            violations: 0,
            victims: Vec::new(),
        }
    }

    fn activate(&mut self, row: usize) {
        self.up[row] = self.up[row].saturating_add(1);
        self.dn[row] = self.dn[row].saturating_add(1);
        if self.up[row] > self.t_rh && row + 1 < self.rows {
            self.violations += 1;
            self.victims.push(row as u32 + 1);
        }
        if self.dn[row] > self.t_rh && row > 0 {
            self.violations += 1;
            self.victims.push(row as u32 - 1);
        }
    }

    fn refresh(&mut self, row: usize) {
        if row > 0 {
            self.up[row - 1] = 0;
        }
        if row + 1 < self.rows {
            self.dn[row + 1] = 0;
        }
    }

    fn mitigate(&mut self, row: usize, blast: u32) {
        for d in 1..=blast as usize {
            if row >= d {
                self.refresh(row - d);
                self.activate(row - d);
            }
            if row + d < self.rows {
                self.refresh(row + d);
                self.activate(row + d);
            }
        }
    }

    fn max_exposure(&self) -> u32 {
        // Only budgets toward real victims count: up[last] and dn[0]
        // point past the bank's edges.
        let up = self.up[..self.rows - 1].iter().copied().max().unwrap_or(0);
        let dn = self.dn[1..].iter().copied().max().unwrap_or(0);
        up.max(dn)
    }
}

/// Edge-row property: on random banks (down to 1 row) with random
/// activate/refresh/mitigate streams biased toward row 0 and the last
/// row, the checker matches the naive model exactly — violation count,
/// victim sequence, and exposure — and never names a victim outside
/// the bank.
#[test]
fn checker_matches_naive_model_at_bank_edges() {
    prop_check("checker_matches_naive_model_at_bank_edges", 256, |rng| {
        let rows = 1 + rng.below(8) as usize;
        let t_rh = 1 + rng.below(12) as u32;
        let mut ck = RowhammerChecker::new(rows as u32, t_rh);
        let mut naive = NaiveChecker::new(rows, t_rh);
        let ops = rng.below(300) as usize;
        for _ in 0..ops {
            // Bias row choice toward the edges, where the bug lived.
            let row = match rng.below(4) {
                0 => 0,
                1 => rows - 1,
                _ => rng.below(rows as u64) as usize,
            };
            match rng.below(8) {
                0 => {
                    ck.on_refresh_row(row as u32);
                    naive.refresh(row);
                }
                1 => {
                    let blast = 1 + rng.below(3) as u32;
                    ck.on_mitigate(row as u32, blast);
                    naive.mitigate(row, blast);
                }
                _ => {
                    ck.on_activate(row as u32);
                    naive.activate(row);
                }
            }
        }
        prop_ensure!(
            ck.violations() == naive.violations,
            "violations {} != model {}",
            ck.violations(),
            naive.violations
        );
        prop_ensure!(
            ck.max_exposure() == naive.max_exposure(),
            "exposure {} != model {}",
            ck.max_exposure(),
            naive.max_exposure()
        );
        for (i, v) in ck.violation_records().iter().enumerate() {
            prop_ensure!(
                (v.victim as usize) < rows,
                "victim {} outside {rows}-row bank",
                v.victim
            );
            prop_ensure!(
                v.victim == naive.victims[i],
                "victim {} != model {}",
                v.victim,
                naive.victims[i]
            );
        }
        Ok(())
    });
}

/// Writes `(row, count)` pairs the way the sparse snapshot sections
/// do: the number of non-zero counts, then the pairs in row order.
fn naive_sparse(w: &mut SnapshotWriter, counts: &[u32]) {
    w.put_usize(counts.iter().filter(|&&c| c != 0).count());
    for (i, &c) in (0u32..).zip(counts) {
        if c != 0 {
            w.put_u32(i);
            w.put_u32(c);
        }
    }
}

/// The bytes of `save` on a fresh writer.
fn bytes_of(save: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    save(&mut w);
    w.finish()
}

/// Row-state property: on banks of 1 to 800 rows, with rows biased
/// toward the bank edges and enough writes that many banks pass the
/// per-row tables' dense switch (`rows / 16` non-zero rows), the
/// disturbance store and PRAC counters match dense models: the same
/// violations and exposure, `save_state` bytes equal to a dense
/// encoder's, and load → save reproduces the bytes.
#[test]
fn row_state_matches_dense_model_across_the_dense_switch() {
    prop_check("row_state_matches_dense_model_across_the_dense_switch", 96, |rng| {
        let rows = 1 + rng.below(800) as usize;
        let t_rh = 1 + rng.below(40) as u32;
        let mut store = Disturbance::new(rows as u32);
        let mut oracle = Oracle::new(t_rh);
        let mut naive = NaiveChecker::new(rows, t_rh);
        let mut counters = PracCounters::new(rows as u32);
        let mut dense = vec![0u32; rows];
        for _ in 0..rng.below(600) {
            let row = match rng.below(6) {
                0 => 0,
                1 => rows - 1,
                _ => rng.below(rows as u64) as usize,
            };
            let r = row as u32;
            match rng.below(10) {
                0 => {
                    store.refresh_row(r, &mut oracle);
                    naive.refresh(row);
                }
                1 => {
                    let blast = 1 + rng.below(3) as u32;
                    store.mitigate(r, blast, &mut oracle);
                    naive.mitigate(row, blast);
                }
                2 => {
                    counters.reset(r);
                    dense[row] = 0;
                }
                3 => {
                    let bit = rng.below(40) as u32;
                    counters.flip_bit(r, bit);
                    dense[row] ^= 1 << (bit % 32);
                }
                _ => {
                    store.activate(r, &mut oracle);
                    naive.activate(row);
                    let amount = rng.below(9) as u32;
                    counters.add(r, amount);
                    dense[row] = dense[row].saturating_add(amount);
                }
            }
        }
        prop_ensure!(
            oracle.violations() == naive.violations,
            "violations {} != model {}",
            oracle.violations(),
            naive.violations
        );
        prop_ensure!(store.max_exposure() == naive.max_exposure(), "exposure mismatch");
        for (v, &want) in oracle.violation_records().iter().zip(&naive.victims) {
            prop_ensure!(v.victim == want, "victim {} != model {want}", v.victim);
        }

        let got = bytes_of(|w| store.save_state(w));
        let want = bytes_of(|w| {
            naive_sparse(w, &naive.up);
            naive_sparse(w, &naive.dn);
        });
        prop_ensure!(got == want, "Disturbance bytes differ from the dense encoder");
        let mut copy = Disturbance::new(rows as u32);
        copy.activate(rng.below(rows as u64) as u32, &mut Oracle::new(t_rh));
        copy.load_state(&mut SnapshotReader::new(&got).unwrap()).map_err(|e| e.to_string())?;
        prop_ensure!(bytes_of(|w| copy.save_state(w)) == got, "Disturbance load -> save");

        let got = bytes_of(|w| counters.save_state(w));
        let want = bytes_of(|w| naive_sparse(w, &dense));
        prop_ensure!(got == want, "PracCounters bytes differ from the dense encoder");
        let mut copy = PracCounters::new(rows as u32);
        copy.add(rng.below(rows as u64) as u32, 1);
        copy.load_state(&mut SnapshotReader::new(&got).unwrap()).map_err(|e| e.to_string())?;
        prop_ensure!(bytes_of(|w| copy.save_state(w)) == got, "PracCounters load -> save");
        Ok(())
    });
}

#[test]
fn checker_mitigation_clears_both_sides() {
    prop_check("checker_mitigation_clears_both_sides", 128, |rng| {
        let row = 2 + rng.below(12) as u32;
        let n = 1 + rng.below(499) as u32;
        let mut ck = RowhammerChecker::new(16, 1_000_000);
        for _ in 0..n {
            ck.on_activate(row);
        }
        ck.on_mitigate(row, 2);
        // After mitigation the only residual exposure is from the
        // victim-refresh activations themselves (1 each).
        prop_ensure!(
            ck.max_exposure() <= 1,
            "residual exposure {} after mitigating row {row}",
            ck.max_exposure()
        );
        Ok(())
    });
}
