//! One DRAM bank: row state machine, per-command timing gates, the
//! embedded mitigation engine, and the disturbance ledger read by the
//! security oracle and the flip plane.

use crate::flip::VictimWords;
use crate::timing::TimingSet;
use mopac::checker::{Disturbance, Oracle};
use mopac::engine::MitigationEngine;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::time::Cycle;
use mopac_types::MopacResult;
use std::ops::Range;

/// Which flavour of precharge closes the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrechargeKind {
    /// Normal precharge: base timings, no counter update.
    Normal,
    /// `PREcu`: PRAC timings, performs the counter read-modify-write
    /// (every precharge under PRAC; the MC-selected subset under
    /// MoPAC-C).
    CounterUpdate,
    /// Subarray-deferred counter update (PRACtical): the engine sees a
    /// counter update, but the *bank* pays only base precharge timings —
    /// the read-modify-write completes inside the closed row's
    /// subarray, whose gate the device tracks via [`Bank::post_cu`].
    DeferredUpdate,
}

/// A currently open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRow {
    /// The open row address.
    pub row: u32,
    /// Cycle at which it was activated.
    pub opened_at: Cycle,
}

/// One bank's timing and mitigation state.
#[derive(Debug, Clone)]
pub struct Bank {
    open: Option<OpenRow>,
    /// The MoPAC-C 1-bit state (Section 5.1): close this row with PREcu.
    pending_update: bool,
    /// Earliest cycle an ACT may issue (tRP / tRFC gate).
    act_allowed: Cycle,
    /// Earliest cycle a PRE may issue (tRAS / tRTP / tWR gate).
    pre_allowed: Cycle,
    /// Earliest cycle a column command may issue (tRCD / tCCD gate).
    col_allowed: Cycle,
    mitigation: Box<dyn MitigationEngine>,
    /// The one per-side disturbance store, present when either view
    /// below is on. Both views read its reports of every ACT, refresh
    /// and mitigation.
    disturbance: Option<Disturbance>,
    /// Security-oracle view of `disturbance`.
    checker: Option<Oracle>,
    /// Per-subarray deferred counter-update completion times, indexed
    /// by subarray. Empty for designs without subarray-deferred updates
    /// (the historical flat-bank model, with no snapshot state).
    cu_ready: Vec<Cycle>,
    /// Victim-data bit-flip view of `disturbance`. `None` (the
    /// default) costs zero state and no snapshot state.
    flip: Option<VictimWords>,
}

impl Bank {
    /// Creates a closed, idle bank of `rows` rows.
    ///
    /// `cu_slots` — number of subarray deferred-update slots to track
    /// (the geometry's `subarrays_per_bank` for engines demanding
    /// `subarray_parallel_updates`, `0` otherwise).
    #[must_use]
    pub fn new(
        mitigation: Box<dyn MitigationEngine>,
        rows: u32,
        checker: Option<Oracle>,
        cu_slots: u32,
        flip: Option<VictimWords>,
    ) -> Self {
        Self {
            disturbance: (checker.is_some() || flip.is_some()).then(|| Disturbance::new(rows)),
            open: None,
            pending_update: false,
            act_allowed: 0,
            pre_allowed: 0,
            col_allowed: 0,
            mitigation,
            checker,
            cu_ready: vec![0; cu_slots as usize],
            flip,
        }
    }

    /// The open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<OpenRow> {
        self.open
    }

    /// Whether the MC marked the open row for a counter-update close.
    #[must_use]
    pub fn pending_update(&self) -> bool {
        self.pending_update
    }

    /// Earliest cycle an ACT may issue (bank-local constraints only).
    #[must_use]
    pub fn earliest_activate(&self) -> Option<Cycle> {
        self.open.is_none().then_some(self.act_allowed)
    }

    /// The deferred-update gate for one subarray: an ACT into
    /// `subarray` must additionally wait until its in-flight counter
    /// update (if any) completes. `0` when untracked or idle.
    #[must_use]
    pub fn cu_gate(&self, subarray: u32) -> Cycle {
        self.cu_ready.get(subarray as usize).copied().unwrap_or(0)
    }

    /// Latest deferred-update completion across all subarrays (`0` when
    /// none are tracked) — the bank-wide quiesce point REF/RFM waits on.
    #[must_use]
    pub fn cu_busy_until(&self) -> Cycle {
        self.cu_ready.iter().copied().max().unwrap_or(0)
    }

    /// In-flight deferred-update completion times strictly after `now`
    /// (event-kernel wake candidates).
    pub fn cu_pending(&self, now: Cycle) -> impl Iterator<Item = Cycle> + '_ {
        self.cu_ready.iter().copied().filter(move |&c| c > now)
    }

    /// Posts a deferred counter update completing at `ready` into
    /// `subarray`, and reports whether a *different* subarray still had
    /// an update in flight (the overlap PRACtical's subarray-level
    /// update unlocks). No-op returning `false` when slots are
    /// untracked.
    pub fn post_cu(&mut self, subarray: u32, ready: Cycle, now: Cycle) -> bool {
        let Some(slot) = self.cu_ready.get_mut(subarray as usize) else {
            return false;
        };
        *slot = (*slot).max(ready);
        self.cu_ready
            .iter()
            .enumerate()
            .any(|(i, &c)| i != subarray as usize && c > now)
    }

    /// Earliest cycle a column command to `row` may issue.
    #[must_use]
    pub fn earliest_column(&self, row: u32) -> Option<Cycle> {
        self.open
            .filter(|o| o.row == row)
            .map(|_| self.col_allowed)
    }

    /// Earliest cycle a PRE may issue.
    #[must_use]
    pub fn earliest_precharge(&self) -> Option<Cycle> {
        self.open.map(|_| self.pre_allowed)
    }

    /// Issues an ACT. Returns the number of victim-word bits the flip
    /// plane injected from this activation's disturbance (always 0
    /// when the plane is disabled).
    ///
    /// `update_selected` is the MoPAC-C coin flip (always true under
    /// PRAC, always false otherwise); it selects the tRCD/tRAS flavour
    /// and arms [`Self::pending_update`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is open or the timing gate is violated.
    pub fn activate(
        &mut self,
        row: u32,
        now: Cycle,
        update_selected: bool,
        base: &TimingSet,
        prac: &TimingSet,
    ) -> u64 {
        debug_assert!(self.open.is_none(), "ACT to open bank");
        debug_assert!(now >= self.act_allowed, "ACT violates tRP/tRFC");
        let t = if update_selected { prac } else { base };
        self.open = Some(OpenRow {
            row,
            opened_at: now,
        });
        self.pending_update = update_selected;
        self.col_allowed = now + t.t_rcd;
        self.pre_allowed = now + t.t_ras;
        self.mitigation.on_activate(row, 0.0);
        let flips = |b: &Self| b.flip.as_ref().map_or(0, |f| f.stats().bit_flips);
        let before = flips(self);
        if let Some(d) = self.disturbance.as_mut() {
            d.activate(row, &mut (self.checker.as_mut(), self.flip.as_mut()));
        }
        flips(self) - before
    }

    /// Cures the disturbance ledger after a REF or RFM: each
    /// `mitigated` aggressor's victims within `blast` rows are refreshed
    /// (and their victim-refresh activations counted), then the
    /// `refreshed` rows are. No-op when both views are off.
    pub fn cure(&mut self, mitigated: &[u32], blast: u32, refreshed: Range<u32>) {
        if let Some(d) = self.disturbance.as_mut() {
            let views = &mut (self.checker.as_mut(), self.flip.as_mut());
            for &row in mitigated {
                d.mitigate(row, blast, views);
            }
            d.refresh_range(refreshed, views);
        }
    }

    /// Issues a column read; returns the cycle at which data finishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no matching row is open or timing is violated.
    pub fn read(&mut self, now: Cycle, t: &TimingSet) -> Cycle {
        debug_assert!(self.open.is_some(), "RD to closed bank");
        debug_assert!(now >= self.col_allowed, "RD violates tRCD/tCCD");
        self.col_allowed = now + t.t_ccd;
        self.pre_allowed = self.pre_allowed.max(now + t.t_rtp);
        now + t.cl + t.burst
    }

    /// Issues a column write; returns the cycle at which data finishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no matching row is open or timing is violated.
    pub fn write(&mut self, now: Cycle, t: &TimingSet) -> Cycle {
        debug_assert!(self.open.is_some(), "WR to closed bank");
        debug_assert!(now >= self.col_allowed, "WR violates tRCD/tCCD");
        self.col_allowed = now + t.t_ccd;
        let data_end = now + t.cwl + t.burst;
        self.pre_allowed = self.pre_allowed.max(data_end + t.t_wr);
        data_end
    }

    /// Issues a precharge of the given kind; returns the row-open time
    /// in cycles, or `None` if the bank was already closed (the caller
    /// surfaces that as a timing-protocol error).
    pub fn precharge(
        &mut self,
        kind: PrechargeKind,
        now: Cycle,
        base: &TimingSet,
        prac: &TimingSet,
        ns_per_cycle: f64,
    ) -> Option<Cycle> {
        let open = self.open.take()?;
        debug_assert!(now >= self.pre_allowed, "PRE violates tRAS/tRTP/tWR");
        // A deferred update closes the *bank* at base timings; the
        // counter read-modify-write continues inside the subarray (the
        // device posts its completion via `post_cu`).
        let t = match kind {
            PrechargeKind::Normal | PrechargeKind::DeferredUpdate => base,
            PrechargeKind::CounterUpdate => prac,
        };
        self.act_allowed = now + t.t_rp;
        self.pending_update = false;
        let open_cycles = now - open.opened_at;
        self.mitigation.on_precharge(
            open.row,
            kind != PrechargeKind::Normal,
            open_cycles as f64 * ns_per_cycle,
        );
        Some(open_cycles)
    }

    /// Blocks the bank until `until` (REF / RFM execution).
    pub fn block_until(&mut self, until: Cycle) {
        debug_assert!(self.open.is_none(), "REF/RFM with open row");
        self.act_allowed = self.act_allowed.max(until);
    }

    /// Fault hook: wedges the bank until `until`. An open bank cannot be
    /// precharged (stuck-open row); a closed bank cannot be activated.
    pub fn stick_until(&mut self, until: Cycle) {
        if self.open.is_some() {
            self.pre_allowed = self.pre_allowed.max(until);
        } else {
            self.act_allowed = self.act_allowed.max(until);
        }
    }

    /// Access to the mitigation engine.
    #[must_use]
    pub fn mitigation(&self) -> &dyn MitigationEngine {
        &*self.mitigation
    }

    /// Mutable access to the mitigation engine (REF drains, ABO service).
    pub fn mitigation_mut(&mut self) -> &mut dyn MitigationEngine {
        &mut *self.mitigation
    }

    /// The disturbance store both views read; `None` when both are off.
    #[must_use]
    pub fn disturbance(&self) -> Option<&Disturbance> {
        self.disturbance.as_ref()
    }

    /// Access to the security oracle, if enabled.
    #[must_use]
    pub fn checker(&self) -> Option<&Oracle> {
        self.checker.as_ref()
    }

    /// Access to the flip plane, if enabled.
    #[must_use]
    pub fn flip(&self) -> Option<&VictimWords> {
        self.flip.as_ref()
    }

    /// Mutable access to the flip plane (read checks, readback sweep).
    pub fn flip_mut(&mut self) -> Option<&mut VictimWords> {
        self.flip.as_mut()
    }
}

impl Snapshottable for Bank {
    fn save_state(&self, w: &mut SnapshotWriter) {
        match self.open {
            Some(o) => {
                w.put_bool(true);
                w.put_u32(o.row);
                w.put_u64(o.opened_at);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.pending_update);
        w.put_u64(self.act_allowed);
        w.put_u64(self.pre_allowed);
        w.put_u64(self.col_allowed);
        self.mitigation.save_state(w);
        // The device's configuration fixes which of these are present.
        if let Some(d) = &self.disturbance {
            d.save_state(w);
        }
        if let Some(ck) = &self.checker {
            ck.save_state(w);
        }
        for &c in &self.cu_ready {
            w.put_u64(c);
        }
        if let Some(f) = &self.flip {
            f.save_section(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.open = if r.take_bool()? {
            Some(OpenRow {
                row: r.take_u32()?,
                opened_at: r.take_u64()?,
            })
        } else {
            None
        };
        self.pending_update = r.take_bool()?;
        self.act_allowed = r.take_u64()?;
        self.pre_allowed = r.take_u64()?;
        self.col_allowed = r.take_u64()?;
        self.mitigation.load_state(r)?;
        if let Some(d) = self.disturbance.as_mut() {
            d.load_state(r)?;
        }
        if let Some(ck) = self.checker.as_mut() {
            ck.load_state(r)?;
        }
        for c in &mut self.cu_ready {
            *c = r.take_u64()?;
        }
        if let (Some(f), Some(d)) = (self.flip.as_mut(), &self.disturbance) {
            f.load_section(d.rows(), r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flip::{EccMode, FlipPlane, FlipPlaneConfig, TrhDistribution};
    use mopac::checker::RowhammerChecker;
    use mopac::config::MitigationConfig;
    use mopac::engine::build_engine;
    use mopac_types::rng::{mix64, DetRng};

    fn bank() -> Bank {
        let cfg = MitigationConfig::baseline();
        Bank::new(
            build_engine(&cfg, 1024, DetRng::from_seed(1)),
            1024,
            Some(Oracle::new(500)),
            0,
            None,
        )
    }

    #[test]
    fn act_read_pre_sequence_base_timings() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        assert_eq!(b.earliest_activate(), Some(0));
        b.activate(5, 0, false, &base, &prac);
        assert_eq!(b.earliest_column(5), Some(42)); // tRCD
        assert_eq!(b.earliest_column(6), None); // wrong row
        let done = b.read(42, &base);
        assert_eq!(done, 42 + 42 + 8); // CL + burst
        assert_eq!(b.earliest_precharge(), Some(96)); // tRAS from ACT
        b.precharge(PrechargeKind::Normal, 96, &base, &prac, 1.0 / 3.0);
        assert_eq!(b.earliest_activate(), Some(96 + 42)); // + tRP
    }

    #[test]
    fn prac_precharge_extends_reopen_time() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        b.activate(5, 0, true, &base, &prac);
        // PRAC tRAS is shorter (48), tRCD longer (48).
        assert_eq!(b.earliest_precharge(), Some(48));
        assert_eq!(b.earliest_column(5), Some(48));
        b.precharge(PrechargeKind::CounterUpdate, 48, &base, &prac, 1.0 / 3.0);
        // PRAC tRP = 108 -> next ACT at 156 = PRAC tRC from first ACT.
        assert_eq!(b.earliest_activate(), Some(156));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        b.activate(1, 0, false, &base, &prac);
        let data_end = b.write(42, &base);
        assert_eq!(data_end, 42 + 40 + 8);
        assert_eq!(b.earliest_precharge(), Some(data_end + base.t_wr));
    }

    #[test]
    fn deferred_update_precharge_keeps_base_bank_timings() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let cfg = MitigationConfig::practical(500);
        let mut b = Bank::new(
            build_engine(&cfg, 1024, DetRng::from_seed(1)),
            1024,
            None,
            4,
            None,
        );
        b.activate(5, 0, false, &base, &prac);
        let pre_at = b.earliest_precharge().unwrap();
        b.precharge(PrechargeKind::DeferredUpdate, pre_at, &base, &prac, 1.0 / 3.0);
        // Bank reopens after *base* tRP, unlike a PREcu close...
        assert_eq!(b.earliest_activate(), Some(pre_at + base.t_rp));
        // ...but the engine still saw a counter update.
        assert_eq!(b.mitigation().counter(5), 1);
        // The device then posts the subarray gate.
        let overlap = b.post_cu(0, pre_at + prac.t_rp, pre_at);
        assert!(!overlap, "no other subarray busy");
        assert_eq!(b.cu_gate(0), pre_at + prac.t_rp);
        assert_eq!(b.cu_gate(1), 0);
        assert_eq!(b.cu_busy_until(), pre_at + prac.t_rp);
        let overlap = b.post_cu(2, pre_at + prac.t_rp + 9, pre_at + 1);
        assert!(overlap, "subarray 0 still in flight");
        assert_eq!(b.cu_pending(pre_at).count(), 2);
    }

    #[test]
    fn open_time_reported_to_mitigation() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        b.activate(1, 0, false, &base, &prac);
        let open_cycles = b.precharge(PrechargeKind::Normal, 96, &base, &prac, 1.0 / 3.0);
        assert_eq!(open_cycles, Some(96));
    }

    const LEDGER_ROWS: u32 = 16;

    fn flip_config() -> FlipPlaneConfig {
        FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 2, hi: 12 })
            .with_flip_probability(0.5)
            .with_ecc(EccMode::Sec)
    }

    /// A baseline bank with the flip plane on, and the checker when
    /// `checker` is set.
    fn ledger_bank(checker: bool) -> Bank {
        let cfg = MitigationConfig::baseline();
        Bank::new(
            build_engine(&cfg, LEDGER_ROWS, DetRng::from_seed(1)),
            LEDGER_ROWS,
            checker.then(|| Oracle::new(6)),
            0,
            Some(VictimWords::new(flip_config(), 7)),
        )
    }

    /// Opens and closes each row in turn at the earliest legal cycles.
    fn hammer(b: &mut Bank, rows: &[u32]) {
        let (base, prac) = (TimingSet::ddr5_base(), TimingSet::ddr5_prac());
        for &row in rows {
            let at = b.earliest_activate().unwrap();
            b.activate(row, at, false, &base, &prac);
            let pre = b.earliest_precharge().unwrap();
            b.precharge(PrechargeKind::Normal, pre, &base, &prac, 1.0 / 3.0);
        }
    }

    fn save(b: &Bank) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        b.save_state(&mut w);
        w.finish()
    }

    fn load(b: &mut Bank, bytes: &[u8]) -> MopacResult<()> {
        b.load_state(&mut SnapshotReader::new(bytes)?)
    }

    /// One mixed ACT / REF / mitigate / read stream, biased toward the
    /// bank's edge rows, drives a bank whose checker and flip plane
    /// share one store and a standalone checker plus a standalone flip
    /// plane, each with its own store. Every verdict must agree.
    #[test]
    fn shared_store_changes_neither_view() {
        let mut bank = ledger_bank(true);
        let mut ck = RowhammerChecker::new(LEDGER_ROWS, 6);
        let mut fp = FlipPlane::new(flip_config(), LEDGER_ROWS, 7);
        for i in 0..6_000u64 {
            let h = mix64(i ^ 0x5EED);
            let row = match h % 4 {
                0 => 0,
                1 => LEDGER_ROWS - 1,
                _ => ((h >> 8) % u64::from(LEDGER_ROWS)) as u32,
            };
            match (h >> 16) % 16 {
                0 => {
                    let start = ((h >> 24) % u64::from(LEDGER_ROWS)) as u32;
                    let end = (start + 4).min(LEDGER_ROWS);
                    bank.cure(&[], 0, start..end);
                    ck.on_refresh_range(start..end);
                    fp.on_refresh_range(start..end);
                }
                1 => {
                    let blast = 1 + ((h >> 24) % 2) as u32;
                    bank.cure(&[row], blast, 0..0);
                    ck.on_mitigate(row, blast);
                    fp.on_mitigate(row, blast);
                }
                2 | 3 => {
                    let shared = bank.flip_mut().unwrap().on_read(row);
                    assert_eq!(shared, fp.words_mut().on_read(row), "read of row {row} at step {i}");
                }
                _ => {
                    hammer(&mut bank, &[row]);
                    ck.on_activate(row);
                    fp.on_activate(row);
                }
            }
        }
        let oracle = bank.checker().unwrap();
        assert_eq!(oracle.violations(), ck.violations());
        assert_eq!(oracle.violation_records(), ck.violation_records());
        assert_eq!(bank.disturbance().unwrap().max_exposure(), ck.max_exposure());
        let stats = bank.flip().unwrap().stats();
        assert_eq!(stats, fp.words().stats());
        assert!(ck.violations() > 0 && stats.bit_flips > 0 && stats.ecc_corrections > 0);
        for row in 0..LEDGER_ROWS {
            let shared = bank.flip_mut().unwrap().on_read(row);
            assert_eq!(shared, fp.words_mut().on_read(row), "final read of row {row}");
        }
    }

    /// Without the checker, the flip plane alone keeps the store, and
    /// the bank still saves and restores it.
    #[test]
    fn flip_only_bank_restores_its_store_from_the_flip_section() {
        let mut a = ledger_bank(false);
        hammer(&mut a, &[5; 20]);
        let mut b = ledger_bank(false);
        load(&mut b, &save(&a)).unwrap();
        assert_eq!(b.disturbance().unwrap().max_exposure(), 20);
        hammer(&mut a, &[5, 6, 0, 15, 5]);
        hammer(&mut b, &[5, 6, 0, 15, 5]);
        assert_eq!(save(&a), save(&b));
    }
}
