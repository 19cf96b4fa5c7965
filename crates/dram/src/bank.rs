//! DRAM banks: the sub-channel's dense table of row state and
//! per-command timing gates ([`BankTable`]), and each bank's embedded
//! mitigation engine with the disturbance ledger read by the security
//! oracle and the flip plane ([`Bank`]).

use crate::flip::VictimWords;
use crate::timing::TimingSet;
use mopac::checker::{Disturbance, Oracle};
use mopac::engine::MitigationEngine;
use mopac_types::bankmask::BankMask;
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

/// The three bank-level command gates a [`BankTable`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// ACT: tRP / tRFC / the bank's own block; exists on closed banks.
    Activate,
    /// PRE: tRAS / tRTP / tWR; exists on open banks.
    Precharge,
    /// Column command: tRCD / tCCD; exists on open banks.
    Column,
}

/// Row state and timing gates of every bank of one sub-channel, one
/// dense array per field, indexed by bank. This is the only copy of
/// them: the controller's scans ask for the least gate, or the banks
/// whose gate has released, over a whole [`BankMask`] at once, so one
/// pass over a few contiguous words answers what a walk over 32
/// [`Bank`]s used to.
#[derive(Debug, Clone)]
pub struct BankTable {
    /// Bit `b` set iff bank `b` has an open row; `row[b]` and
    /// `opened_at[b]` mean something only while it is set.
    open: BankMask,
    row: Vec<u32>,
    opened_at: Vec<Cycle>,
    /// The MoPAC-C 1-bit state per bank (Section 5.1): close this row
    /// with PREcu.
    pending: BankMask,
    /// Earliest cycle an ACT may issue (tRP / tRFC gate).
    act: Vec<Cycle>,
    /// Earliest cycle a PRE may issue (tRAS / tRTP / tWR gate).
    pre: Vec<Cycle>,
    /// Earliest cycle a column command may issue (tRCD / tCCD gate).
    col: Vec<Cycle>,
}

impl BankTable {
    /// `banks` closed, idle banks.
    #[must_use]
    pub fn new(banks: u32) -> Self {
        debug_assert!(banks <= BankMask::CAPACITY);
        let n = banks as usize;
        Self {
            open: BankMask::empty(),
            row: vec![0; n],
            opened_at: vec![0; n],
            pending: BankMask::empty(),
            act: vec![0; n],
            pre: vec![0; n],
            col: vec![0; n],
        }
    }

    /// Banks with an open row.
    #[must_use]
    pub fn open_mask(&self) -> BankMask {
        self.open
    }

    /// The open row of `bank`, if any.
    #[must_use]
    pub fn open_row(&self, bank: u32) -> Option<OpenRow> {
        let b = bank as usize;
        self.open.test(bank).then(|| OpenRow {
            row: self.row[b],
            opened_at: self.opened_at[b],
        })
    }

    /// Whether the MC marked `bank`'s open row for a counter-update
    /// close.
    #[must_use]
    pub fn pending_update(&self, bank: u32) -> bool {
        self.pending.test(bank)
    }

    /// Earliest cycle an ACT to `bank` may issue (bank-local
    /// constraints only), or `None` while it is open.
    #[must_use]
    pub fn earliest_activate(&self, bank: u32) -> Option<Cycle> {
        (!self.open.test(bank)).then(|| self.act[bank as usize])
    }

    /// Earliest cycle a column command to `row` in `bank` may issue, or
    /// `None` unless `row` is open there.
    #[must_use]
    pub fn earliest_column(&self, bank: u32, row: u32) -> Option<Cycle> {
        let b = bank as usize;
        (self.open.test(bank) && self.row[b] == row).then(|| self.col[b])
    }

    /// Earliest cycle a PRE to `bank` may issue, or `None` while it is
    /// closed.
    #[must_use]
    pub fn earliest_precharge(&self, bank: u32) -> Option<Cycle> {
        self.open.test(bank).then(|| self.pre[bank as usize])
    }

    /// The banks of `banks` on which a `kind` gate exists: closed banks
    /// for ACT, open ones otherwise. (A column gate exists only for the
    /// open row; the caller's mask names banks with work on it.)
    fn gated(&self, kind: GateKind, banks: BankMask) -> BankMask {
        match kind {
            GateKind::Activate => banks.and_not(self.open),
            GateKind::Precharge | GateKind::Column => banks.and(self.open),
        }
    }

    fn part(&self, kind: GateKind) -> &[Cycle] {
        match kind {
            GateKind::Activate => &self.act,
            GateKind::Precharge => &self.pre,
            GateKind::Column => &self.col,
        }
    }

    /// The least `kind` gate among `banks` (banks without such a gate
    /// are left out), or `None` when none has one.
    #[must_use]
    pub fn min_gate(&self, kind: GateKind, banks: BankMask) -> Option<Cycle> {
        let part = self.part(kind);
        self.gated(kind, banks).ones().map(|b| part[b as usize]).min()
    }

    /// The banks of `banks` whose `kind` gate has released at `now`.
    #[must_use]
    pub fn ready(&self, kind: GateKind, banks: BankMask, now: Cycle) -> BankMask {
        let part = self.part(kind);
        let mut ready = BankMask::empty();
        for b in self.gated(kind, banks).ones() {
            if part[b as usize] <= now {
                ready.set(b);
            }
        }
        ready
    }

    /// Opens `row` in `bank` at `now`. `update_selected` is the MoPAC-C
    /// coin flip (always true under PRAC, always false otherwise); it
    /// selects the tRCD/tRAS flavour and arms [`Self::pending_update`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is open or its ACT gate is closed.
    pub fn activate(
        &mut self,
        bank: u32,
        row: u32,
        now: Cycle,
        update_selected: bool,
        base: &TimingSet,
        prac: &TimingSet,
    ) {
        let b = bank as usize;
        debug_assert!(!self.open.test(bank), "ACT to open bank");
        debug_assert!(now >= self.act[b], "ACT violates tRP/tRFC");
        let t = if update_selected { prac } else { base };
        self.open.set(bank);
        self.row[b] = row;
        self.opened_at[b] = now;
        self.pending.assign(bank, update_selected);
        self.col[b] = now + t.t_rcd;
        self.pre[b] = now + t.t_ras;
    }

    /// A column read on `bank` at `now`; returns the cycle at which
    /// data finishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is closed or its column gate is shut.
    pub fn read(&mut self, bank: u32, now: Cycle, t: &TimingSet) -> Cycle {
        let b = bank as usize;
        debug_assert!(self.open.test(bank), "RD to closed bank");
        debug_assert!(now >= self.col[b], "RD violates tRCD/tCCD");
        self.col[b] = now + t.t_ccd;
        self.pre[b] = self.pre[b].max(now + t.t_rtp);
        now + t.cl + t.burst
    }

    /// A column write on `bank` at `now`; returns the cycle at which
    /// data finishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is closed or its column gate is shut.
    pub fn write(&mut self, bank: u32, now: Cycle, t: &TimingSet) -> Cycle {
        let b = bank as usize;
        debug_assert!(self.open.test(bank), "WR to closed bank");
        debug_assert!(now >= self.col[b], "WR violates tRCD/tCCD");
        self.col[b] = now + t.t_ccd;
        let data_end = now + t.cwl + t.burst;
        self.pre[b] = self.pre[b].max(data_end + t.t_wr);
        data_end
    }

    /// Closes `bank` at `now` with a precharge of `kind`; returns the
    /// row it closed, or `None` if the bank was already closed (the
    /// caller surfaces that as a timing-protocol error).
    pub fn precharge(
        &mut self,
        bank: u32,
        kind: PrechargeKind,
        now: Cycle,
        base: &TimingSet,
        prac: &TimingSet,
    ) -> Option<OpenRow> {
        let open = self.open_row(bank)?;
        let b = bank as usize;
        debug_assert!(now >= self.pre[b], "PRE violates tRAS/tRTP/tWR");
        // A deferred update closes the *bank* at base timings; the
        // counter read-modify-write continues inside the subarray (the
        // device posts its completion via `Bank::post_cu`).
        let t = match kind {
            PrechargeKind::Normal | PrechargeKind::DeferredUpdate => base,
            PrechargeKind::CounterUpdate => prac,
        };
        self.act[b] = now + t.t_rp;
        self.open.clear(bank);
        self.pending.clear(bank);
        Some(open)
    }

    /// Blocks `bank` until `until` (REF / RFM execution).
    pub fn block_until(&mut self, bank: u32, until: Cycle) {
        debug_assert!(!self.open.test(bank), "REF/RFM with open row");
        let act = &mut self.act[bank as usize];
        *act = (*act).max(until);
    }

    /// Fault hook: wedges `bank` until `until`. An open bank cannot be
    /// precharged (stuck-open row); a closed bank cannot be activated.
    pub fn stick_until(&mut self, bank: u32, until: Cycle) {
        let gate = if self.open.test(bank) {
            &mut self.pre[bank as usize]
        } else {
            &mut self.act[bank as usize]
        };
        *gate = (*gate).max(until);
    }

    /// Serializes `bank`'s record: open row, pending bit, then the ACT,
    /// PRE and column gates (the layout a bank's snapshot opens with).
    pub fn save_bank(&self, bank: u32, w: &mut SnapshotWriter) {
        let b = bank as usize;
        match self.open_row(bank) {
            Some(o) => {
                w.put_bool(true);
                w.put_u32(o.row);
                w.put_u64(o.opened_at);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.pending.test(bank));
        w.put_u64(self.act[b]);
        w.put_u64(self.pre[b]);
        w.put_u64(self.col[b]);
    }

    /// Restores `bank`'s record written by [`Self::save_bank`].
    ///
    /// # Errors
    ///
    /// Propagates a truncated or malformed snapshot.
    pub fn load_bank(&mut self, bank: u32, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let b = bank as usize;
        let open = r.take_bool()?;
        self.open.assign(bank, open);
        if open {
            self.row[b] = r.take_u32()?;
            self.opened_at[b] = r.take_u64()?;
        }
        self.pending.assign(bank, r.take_bool()?);
        self.act[b] = r.take_u64()?;
        self.pre[b] = r.take_u64()?;
        self.col[b] = r.take_u64()?;
        Ok(())
    }
}

/// One bank's mitigation state: the embedded engine and the
/// disturbance views. Its row state and timing gates live in the
/// sub-channel's [`BankTable`].
#[derive(Debug, Clone)]
pub struct Bank {
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
    /// Creates the mitigation state of a bank of `rows` rows.
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
            mitigation,
            checker,
            cu_ready: vec![0; cu_slots as usize],
            flip,
        }
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

    /// Reports an ACT of `row` to the engine and the disturbance views.
    /// Returns the number of victim-word bits the flip plane injected
    /// from this activation's disturbance (always 0 when the plane is
    /// disabled).
    pub fn on_activate(&mut self, row: u32) -> u64 {
        self.mitigation.on_activate(row, 0.0);
        let flips = |b: &Self| b.flip.as_ref().map_or(0, |f| f.stats().bit_flips);
        let before = flips(self);
        if let Some(d) = self.disturbance.as_mut() {
            d.activate(row, &mut (self.checker.as_mut(), self.flip.as_mut()));
        }
        flips(self) - before
    }

    /// Reports the close of `row`, open for `open_ns`, to the engine:
    /// with a counter update unless `kind` is [`PrechargeKind::Normal`].
    pub fn on_precharge(&mut self, row: u32, kind: PrechargeKind, open_ns: f64) {
        self.mitigation
            .on_precharge(row, kind != PrechargeKind::Normal, open_ns);
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

/// A bank's section of a device snapshot follows its [`BankTable`]
/// record ([`BankTable::save_bank`]).
impl Snapshottable for Bank {
    fn save_state(&self, w: &mut SnapshotWriter) {
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

    /// One bank as the device drives it: its row of a one-bank table
    /// and its mitigation state.
    struct Rig {
        table: BankTable,
        bank: Bank,
        base: TimingSet,
        prac: TimingSet,
    }

    impl Rig {
        fn new(bank: Bank) -> Self {
            Self {
                table: BankTable::new(1),
                bank,
                base: TimingSet::ddr5_base(),
                prac: TimingSet::ddr5_prac(),
            }
        }

        fn activate(&mut self, row: u32, now: Cycle, selected: bool) {
            self.table.activate(0, row, now, selected, &self.base, &self.prac);
            self.bank.on_activate(row);
        }

        /// Closes the bank at `now`; returns the cycles its row was open.
        fn precharge(&mut self, kind: PrechargeKind, now: Cycle) -> Option<Cycle> {
            let open = self.table.precharge(0, kind, now, &self.base, &self.prac)?;
            let open_cycles = now - open.opened_at;
            self.bank.on_precharge(open.row, kind, open_cycles as f64 / 3.0);
            Some(open_cycles)
        }
    }

    fn bank() -> Rig {
        let cfg = MitigationConfig::baseline();
        Rig::new(Bank::new(
            build_engine(&cfg, 1024, DetRng::from_seed(1)),
            1024,
            Some(Oracle::new(500)),
            0,
            None,
        ))
    }

    #[test]
    fn act_read_pre_sequence_base_timings() {
        let mut b = bank();
        assert_eq!(b.table.earliest_activate(0), Some(0));
        b.activate(5, 0, false);
        assert_eq!(b.table.earliest_column(0, 5), Some(42)); // tRCD
        assert_eq!(b.table.earliest_column(0, 6), None); // wrong row
        let done = b.table.read(0, 42, &TimingSet::ddr5_base());
        assert_eq!(done, 42 + 42 + 8); // CL + burst
        assert_eq!(b.table.earliest_precharge(0), Some(96)); // tRAS from ACT
        b.precharge(PrechargeKind::Normal, 96);
        assert_eq!(b.table.earliest_activate(0), Some(96 + 42)); // + tRP
    }

    #[test]
    fn prac_precharge_extends_reopen_time() {
        let mut b = bank();
        b.activate(5, 0, true);
        // PRAC tRAS is shorter (48), tRCD longer (48).
        assert_eq!(b.table.earliest_precharge(0), Some(48));
        assert_eq!(b.table.earliest_column(0, 5), Some(48));
        b.precharge(PrechargeKind::CounterUpdate, 48);
        // PRAC tRP = 108 -> next ACT at 156 = PRAC tRC from first ACT.
        assert_eq!(b.table.earliest_activate(0), Some(156));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let base = TimingSet::ddr5_base();
        let mut b = bank();
        b.activate(1, 0, false);
        let data_end = b.table.write(0, 42, &base);
        assert_eq!(data_end, 42 + 40 + 8);
        assert_eq!(b.table.earliest_precharge(0), Some(data_end + base.t_wr));
    }

    #[test]
    fn deferred_update_precharge_keeps_base_bank_timings() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let cfg = MitigationConfig::practical(500);
        let mut b = Rig::new(Bank::new(
            build_engine(&cfg, 1024, DetRng::from_seed(1)),
            1024,
            None,
            4,
            None,
        ));
        b.activate(5, 0, false);
        let pre_at = b.table.earliest_precharge(0).unwrap();
        b.precharge(PrechargeKind::DeferredUpdate, pre_at);
        // Bank reopens after *base* tRP, unlike a PREcu close...
        assert_eq!(b.table.earliest_activate(0), Some(pre_at + base.t_rp));
        // ...but the engine still saw a counter update.
        assert_eq!(b.bank.mitigation().counter(5), 1);
        // The device then posts the subarray gate.
        let b = &mut b.bank;
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
        let mut b = bank();
        b.activate(1, 0, false);
        let open_cycles = b.precharge(PrechargeKind::Normal, 96);
        assert_eq!(open_cycles, Some(96));
    }

    /// The mask queries agree with the per-bank gates: the least gate
    /// over a mask leaves out banks without that gate, and the ready
    /// set is exactly the banks whose gate has released.
    #[test]
    fn mask_queries_match_per_bank_gates() {
        let (base, prac) = (TimingSet::ddr5_base(), TimingSet::ddr5_prac());
        let mut t = BankTable::new(8);
        for (bank, at) in [(1u32, 0), (3, 10), (6, 20)] {
            t.activate(bank, 7, at, bank == 3, &base, &prac);
        }
        t.stick_until(5, 300);
        let all = BankMask::from_u64(0xFF);
        assert_eq!(t.open_mask(), BankMask::from_u64(0b0100_1010));
        for now in [0, 41, 42, 58, 96, 150, 300] {
            for kind in [GateKind::Activate, GateKind::Precharge, GateKind::Column] {
                let gate = |b: u32| match kind {
                    GateKind::Activate => t.earliest_activate(b),
                    GateKind::Precharge => t.earliest_precharge(b),
                    GateKind::Column => t.earliest_column(b, 7),
                };
                let min = (0..8).filter_map(gate).min();
                assert_eq!(t.min_gate(kind, all), min, "{kind:?}");
                let mut ready = BankMask::empty();
                for b in (0..8).filter(|&b| gate(b).is_some_and(|g| g <= now)) {
                    ready.set(b);
                }
                assert_eq!(t.ready(kind, all, now), ready, "{kind:?} at {now}");
            }
        }
        assert_eq!(t.min_gate(GateKind::Precharge, BankMask::from_u64(1)), None);
    }

    const LEDGER_ROWS: u32 = 16;

    fn flip_config() -> FlipPlaneConfig {
        FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 2, hi: 12 })
            .with_flip_probability(0.5)
            .with_ecc(EccMode::Sec)
    }

    /// A baseline bank with the flip plane on, and the checker when
    /// `checker` is set.
    fn ledger_bank(checker: bool) -> Rig {
        let cfg = MitigationConfig::baseline();
        Rig::new(Bank::new(
            build_engine(&cfg, LEDGER_ROWS, DetRng::from_seed(1)),
            LEDGER_ROWS,
            checker.then(|| Oracle::new(6)),
            0,
            Some(VictimWords::new(flip_config(), 7)),
        ))
    }

    /// Opens and closes each row in turn at the earliest legal cycles.
    fn hammer(b: &mut Rig, rows: &[u32]) {
        for &row in rows {
            let at = b.table.earliest_activate(0).unwrap();
            b.activate(row, at, false);
            let pre = b.table.earliest_precharge(0).unwrap();
            b.precharge(PrechargeKind::Normal, pre);
        }
    }

    fn save(b: &Rig) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        b.table.save_bank(0, &mut w);
        b.bank.save_state(&mut w);
        w.finish()
    }

    fn load(b: &mut Rig, bytes: &[u8]) -> MopacResult<()> {
        let mut r = SnapshotReader::new(bytes)?;
        b.table.load_bank(0, &mut r)?;
        b.bank.load_state(&mut r)
    }

    /// One mixed ACT / REF / mitigate / read stream, biased toward the
    /// bank's edge rows, drives a bank whose checker and flip plane
    /// share one store and a standalone checker plus a standalone flip
    /// plane, each with its own store. Every verdict must agree.
    #[test]
    fn shared_store_changes_neither_view() {
        let mut rig = ledger_bank(true);
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
                    rig.bank.cure(&[], 0, start..end);
                    ck.on_refresh_range(start..end);
                    fp.on_refresh_range(start..end);
                }
                1 => {
                    let blast = 1 + ((h >> 24) % 2) as u32;
                    rig.bank.cure(&[row], blast, 0..0);
                    ck.on_mitigate(row, blast);
                    fp.on_mitigate(row, blast);
                }
                2 | 3 => {
                    let shared = rig.bank.flip_mut().unwrap().on_read(row);
                    let alone = fp.words_mut().on_read(row);
                    assert_eq!(shared, alone, "read of row {row} at step {i}");
                }
                _ => {
                    hammer(&mut rig, &[row]);
                    ck.on_activate(row);
                    fp.on_activate(row);
                }
            }
        }
        let oracle = rig.bank.checker().unwrap();
        assert_eq!(oracle.violations(), ck.violations());
        assert_eq!(oracle.violation_records(), ck.violation_records());
        assert_eq!(rig.bank.disturbance().unwrap().max_exposure(), ck.max_exposure());
        let stats = rig.bank.flip().unwrap().stats();
        assert_eq!(stats, fp.words().stats());
        assert!(ck.violations() > 0 && stats.bit_flips > 0 && stats.ecc_corrections > 0);
        for row in 0..LEDGER_ROWS {
            let shared = rig.bank.flip_mut().unwrap().on_read(row);
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
        assert_eq!(b.bank.disturbance().unwrap().max_exposure(), 20);
        hammer(&mut a, &[5, 6, 0, 15, 5]);
        hammer(&mut b, &[5, 6, 0, 15, 5]);
        assert_eq!(save(&a), save(&b));
    }
}
