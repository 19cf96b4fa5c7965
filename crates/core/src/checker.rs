//! The Rowhammer security oracle and the per-bank disturbance store it
//! reads.
//!
//! Per the paper's threat model (Section 2.1): *"We declare an attack to
//! be successful when any row receives more than the threshold number of
//! activations without any intervening mitigation or refresh."*
//!
//! We make the oracle rigorous by tracking, for every row `R`, the
//! damage it has inflicted on each adjacent victim separately, in one
//! [`Disturbance`] store per bank:
//!
//! * `up[R]` — activations of `R` since the row above (`R+1`) was last
//!   refreshed;
//! * `dn[R]` — activations of `R` since the row below (`R-1`) was last
//!   refreshed.
//!
//! Refreshing a row `V` (periodic REF or a victim refresh during
//! mitigation) resets `up[V-1]` and `dn[V+1]`, because `V`'s accumulated
//! disturbance is restored. Both sides are paged [`RowTable`]s, so a bank
//! pays only for the rows it activates. The store reports every count it
//! raises to a [`DisturbanceView`]. The [`Oracle`] view records a
//! violation when a count exceeds `T_RH`; it is independent of the
//! mitigation engines — it observes the same event stream and
//! cross-checks them. The victim-data flip plane (`mopac_dram::flip`) is
//! the second view.

use mopac_types::collections::RowTable;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::{MopacError, MopacResult};
use std::ops::Range;

/// A recorded security violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The aggressor row.
    pub row: u32,
    /// The victim row whose budget was exceeded.
    pub victim: u32,
    /// The activation count reached.
    pub count: u32,
}

/// Which neighbour of a victim a unit of disturbance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// From the lower neighbour (`victim - 1`).
    Lo = 0,
    /// From the upper neighbour (`victim + 1`).
    Hi = 1,
}

/// A reader of the [`Disturbance`] store's reports.
pub trait DisturbanceView {
    /// An activation raised `victim`'s disturbance from `side` to
    /// `count`. Only victims that physically exist are reported.
    fn disturbed(&mut self, victim: u32, side: Side, count: u32);

    /// `row` itself was refreshed.
    fn refreshed(&mut self, _row: u32) {}
}

/// A bank's two optional views, each fed every report in turn.
impl<A: DisturbanceView, B: DisturbanceView> DisturbanceView
    for (Option<&mut A>, Option<&mut B>)
{
    fn disturbed(&mut self, victim: u32, side: Side, count: u32) {
        if let Some(a) = &mut self.0 {
            a.disturbed(victim, side, count);
        }
        if let Some(b) = &mut self.1 {
            b.disturbed(victim, side, count);
        }
    }

    fn refreshed(&mut self, row: u32) {
        if let Some(a) = &mut self.0 {
            a.refreshed(row);
        }
        if let Some(b) = &mut self.1 {
            b.refreshed(row);
        }
    }
}

/// The per-bank disturbance store (see the module docs).
#[derive(Debug, Clone)]
pub struct Disturbance {
    up: RowTable,
    dn: RowTable,
}

impl Disturbance {
    /// A clean store for a bank with `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    #[must_use]
    pub fn new(rows: u32) -> Self {
        assert!(rows > 0, "a bank needs at least one row");
        Self { up: RowTable::new(rows), dn: RowTable::new(rows) }
    }

    /// Rows in the bank.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.up.rows()
    }

    /// Number of allocated [`RowTable`] pages, both sides together.
    #[must_use]
    pub fn present_pages(&self) -> usize {
        self.up.present_pages() + self.dn.present_pages()
    }

    /// Records an activation of `row` (including victim-refresh
    /// activations, which disturb *their* neighbours too) and reports
    /// the victim above, then the one below.
    ///
    /// This is the one place the bank-edge rule lives: the top row has
    /// no `row + 1` victim and row 0 no `row - 1`. (The edge slots still
    /// accumulate — keeping the counter stream identical across
    /// configurations — but never reach a view.) Increments saturate so
    /// a multi-billion-activation soak can't wrap a `u32` and silently
    /// reset a victim's budget.
    pub fn activate(&mut self, row: u32, view: &mut impl DisturbanceView) {
        let up = self.up.update(row, |c| c.saturating_add(1));
        let dn = self.dn.update(row, |c| c.saturating_add(1));
        if row + 1 < self.rows() {
            view.disturbed(row + 1, Side::Lo, up);
        }
        if row > 0 {
            view.disturbed(row - 1, Side::Hi, dn);
        }
    }

    /// Records that `row` itself was refreshed (periodic REF or victim
    /// refresh): its neighbours' budgets toward it reset.
    pub fn refresh_row(&mut self, row: u32, view: &mut impl DisturbanceView) {
        if row > 0 {
            self.up.set(row - 1, 0);
        }
        if row + 1 < self.rows() {
            self.dn.set(row + 1, 0);
        }
        view.refreshed(row);
    }

    /// Records a periodic REF covering `rows`.
    pub fn refresh_range(&mut self, rows: Range<u32>, view: &mut impl DisturbanceView) {
        for r in rows {
            self.refresh_row(r, view);
        }
    }

    /// Records a mitigation of aggressor `row` with the given blast
    /// radius: victims on both sides are refreshed. The victim-refresh
    /// activations themselves are counted as activations of the victims.
    pub fn mitigate(&mut self, row: u32, blast_radius: u32, view: &mut impl DisturbanceView) {
        for d in 1..=blast_radius {
            if row >= d {
                self.refresh_row(row - d, view);
                self.activate(row - d, view);
            }
            if row + d < self.rows() {
                self.refresh_row(row + d, view);
                self.activate(row + d, view);
            }
        }
    }

    /// The maximum per-victim exposure currently accumulated anywhere in
    /// the bank. The edge slots are excluded: they point at rows that
    /// don't exist, so whatever they accumulated exposes no real victim.
    #[must_use]
    pub fn max_exposure(&self) -> u32 {
        let [up, dn] = self.sides();
        let top = self.rows() - 1;
        let real = up.filter(|&(a, _)| a != top).chain(dn.filter(|&(a, _)| a != 0));
        real.map(|(_, c)| c).max().unwrap_or(0)
    }

    /// The non-zero slots of `up`, then of `dn`, as `(aggressor, count)`
    /// in row order, edge slots included.
    pub fn sides(&self) -> [impl Iterator<Item = (u32, u32)> + Clone + '_; 2] {
        [self.up.iter_nonzero(), self.dn.iter_nonzero()]
    }
}

impl Snapshottable for Disturbance {
    /// Writes both sides sparsely: per side, the count of non-zero
    /// slots, then `(aggressor, count)` pairs in row order.
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.up.save_nonzero(w);
        self.dn.save_nonzero(w);
    }

    /// Replaces the store with sides written by `save_state`.
    ///
    /// # Errors
    ///
    /// [`MopacError::Snapshot`] on a row outside the bank or truncated
    /// input.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.up.load_nonzero(r, "disturbance")?;
        self.dn.load_nonzero(r, "disturbance")
    }
}

/// How many distinct violation records to keep for diagnostics.
const MAX_RECORDED: usize = 16;

/// The oracle's view of the store: violations of one `T_RH`.
#[derive(Debug, Clone)]
pub struct Oracle {
    t_rh: u32,
    violations: u64,
    first_violations: Vec<Violation>,
}

impl Oracle {
    /// An oracle enforcing `t_rh`.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is zero.
    #[must_use]
    pub fn new(t_rh: u32) -> Self {
        assert!(t_rh > 0, "threshold must be positive");
        Self { t_rh, violations: 0, first_violations: Vec::new() }
    }

    /// Number of violation events recorded so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first few distinct violations, for diagnostics.
    #[must_use]
    pub fn violation_records(&self) -> &[Violation] {
        &self.first_violations
    }
}

impl Snapshottable for Oracle {
    /// Writes the violation count and records; `T_RH` is configuration.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.violations);
        w.put_usize(self.first_violations.len());
        for v in &self.first_violations {
            w.put_u32(v.row);
            w.put_u32(v.victim);
            w.put_u32(v.count);
        }
    }

    /// # Errors
    ///
    /// [`MopacError::Snapshot`] on more than 16 violation records or
    /// truncated input.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.violations = r.take_u64()?;
        let n = r.take_usize()?;
        if n > MAX_RECORDED {
            return Err(MopacError::snapshot(format!(
                "checker holds {n} violation records, max {MAX_RECORDED}"
            )));
        }
        self.first_violations.clear();
        for _ in 0..n {
            self.first_violations.push(Violation {
                row: r.take_u32()?,
                victim: r.take_u32()?,
                count: r.take_u32()?,
            });
        }
        Ok(())
    }
}

impl DisturbanceView for Oracle {
    fn disturbed(&mut self, victim: u32, side: Side, count: u32) {
        if count > self.t_rh {
            self.violations += 1;
            if self.first_violations.len() < MAX_RECORDED {
                let row = if side == Side::Lo { victim - 1 } else { victim + 1 };
                self.first_violations.push(Violation { row, victim, count });
            }
        }
    }
}

/// Security oracle for one bank: a [`Disturbance`] store read by an
/// [`Oracle`].
///
/// # Examples
///
/// ```
/// use mopac::checker::RowhammerChecker;
///
/// let mut ck = RowhammerChecker::new(64, 10);
/// for _ in 0..10 {
///     ck.on_activate(5);
/// }
/// assert_eq!(ck.violations(), 0);
/// ck.on_activate(5); // 11th activation without any refresh
/// assert_eq!(ck.violations(), 2); // both neighbours of row 5 overexposed
/// ```
#[derive(Debug, Clone)]
pub struct RowhammerChecker {
    store: Disturbance,
    oracle: Oracle,
}

impl RowhammerChecker {
    /// Creates a checker for a bank with `rows` rows and threshold
    /// `t_rh`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `t_rh` is zero.
    #[must_use]
    pub fn new(rows: u32, t_rh: u32) -> Self {
        Self { store: Disturbance::new(rows), oracle: Oracle::new(t_rh) }
    }

    /// See [`Disturbance::activate`].
    pub fn on_activate(&mut self, row: u32) {
        self.store.activate(row, &mut self.oracle);
    }

    /// See [`Disturbance::refresh_row`].
    pub fn on_refresh_row(&mut self, row: u32) {
        self.store.refresh_row(row, &mut self.oracle);
    }

    /// See [`Disturbance::refresh_range`].
    pub fn on_refresh_range(&mut self, rows: Range<u32>) {
        self.store.refresh_range(rows, &mut self.oracle);
    }

    /// See [`Disturbance::mitigate`].
    pub fn on_mitigate(&mut self, row: u32, blast_radius: u32) {
        self.store.mitigate(row, blast_radius, &mut self.oracle);
    }

    /// See [`Oracle::violations`].
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.oracle.violations
    }

    /// See [`Oracle::violation_records`].
    #[must_use]
    pub fn violation_records(&self) -> &[Violation] {
        &self.oracle.first_violations
    }

    /// See [`Disturbance::max_exposure`].
    #[must_use]
    pub fn max_exposure(&self) -> u32 {
        self.store.max_exposure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violation_at_threshold() {
        let mut ck = RowhammerChecker::new(16, 100);
        for _ in 0..100 {
            ck.on_activate(8);
        }
        assert_eq!(ck.violations(), 0);
        assert_eq!(ck.max_exposure(), 100);
    }

    #[test]
    fn violation_past_threshold() {
        let mut ck = RowhammerChecker::new(16, 100);
        for _ in 0..101 {
            ck.on_activate(8);
        }
        assert_eq!(ck.violations(), 2);
        let v = ck.violation_records()[0];
        assert_eq!((v.row, v.count), (8, 101));
    }

    #[test]
    fn mitigation_resets_exposure() {
        let mut ck = RowhammerChecker::new(16, 100);
        for _ in 0..100 {
            ck.on_activate(8);
        }
        ck.on_mitigate(8, 2);
        for _ in 0..100 {
            ck.on_activate(8);
        }
        assert_eq!(ck.violations(), 0);
    }

    #[test]
    fn one_sided_refresh_resets_only_that_side() {
        let mut ck = RowhammerChecker::new(16, 100);
        for _ in 0..60 {
            ck.on_activate(8);
        }
        // Refresh only the upper victim (row 9).
        ck.on_refresh_row(9);
        for _ in 0..60 {
            ck.on_activate(8);
        }
        // Lower victim (row 7) accumulated 120 > 100; upper only 60.
        assert!(ck.violations() > 0);
        assert!(ck
            .violation_records()
            .iter()
            .all(|v| v.victim == 7), "{:?}", ck.violation_records());
    }

    #[test]
    fn periodic_refresh_range() {
        let mut ck = RowhammerChecker::new(16, 100);
        for _ in 0..90 {
            ck.on_activate(8);
        }
        ck.on_refresh_range(0..16);
        for _ in 0..90 {
            ck.on_activate(8);
        }
        assert_eq!(ck.violations(), 0);
    }

    #[test]
    fn victim_refresh_counts_as_activation_of_victim() {
        let mut ck = RowhammerChecker::new(16, 100);
        // Mitigating row 8 activates rows 6, 7, 9, 10 once each.
        ck.on_mitigate(8, 2);
        assert_eq!(ck.max_exposure(), 1);
    }

    #[test]
    fn edge_rows_do_not_panic() {
        let mut ck = RowhammerChecker::new(4, 5);
        for _ in 0..10 {
            ck.on_activate(0);
            ck.on_activate(3);
        }
        ck.on_mitigate(0, 2);
        ck.on_mitigate(3, 2);
        assert!(ck.violations() > 0);
    }

    #[test]
    fn top_row_records_no_phantom_victim() {
        // Hammering the last row of the bank can only endanger the row
        // below it; the `up` side points past the end of the array.
        let mut ck = RowhammerChecker::new(8, 5);
        for _ in 0..20 {
            ck.on_activate(7);
        }
        assert!(ck.violations() > 0);
        assert!(
            ck.violation_records().iter().all(|v| v.victim == 6),
            "phantom victim recorded: {:?}",
            ck.violation_records()
        );
    }

    #[test]
    fn row_zero_records_only_upper_victim() {
        let mut ck = RowhammerChecker::new(8, 5);
        for _ in 0..20 {
            ck.on_activate(0);
        }
        assert!(ck.violations() > 0);
        assert!(ck.violation_records().iter().all(|v| v.victim == 1));
    }

    #[test]
    fn interior_rows_count_both_sides_exactly_as_before() {
        // The phantom fix must not change interior-row accounting: one
        // activation past T_RH records both neighbours.
        let mut ck = RowhammerChecker::new(8, 5);
        for _ in 0..6 {
            ck.on_activate(4);
        }
        assert_eq!(ck.violations(), 2);
        let victims: Vec<u32> = ck.violation_records().iter().map(|v| v.victim).collect();
        assert_eq!(victims, vec![5, 3]);
    }

    #[test]
    fn max_exposure_ignores_edge_slots_toward_nonexistent_victims() {
        let mut ck = RowhammerChecker::new(4, 100);
        // Top row: up-slot charges toward nonexistent row 4.
        for _ in 0..50 {
            ck.on_activate(3);
        }
        // Its real (dn) victim is row 2, exposure 50.
        assert_eq!(ck.max_exposure(), 50);
        // Refresh row 2: only the phantom up-slot retains a count, which
        // must not be reported as exposure.
        ck.on_refresh_row(2);
        assert_eq!(ck.max_exposure(), 0);
        // Symmetric at row 0.
        for _ in 0..30 {
            ck.on_activate(0);
        }
        assert_eq!(ck.max_exposure(), 30);
        ck.on_refresh_row(1);
        assert_eq!(ck.max_exposure(), 0);
    }

    #[test]
    fn single_row_bank_never_violates() {
        // Degenerate geometry: no neighbours exist at all.
        let mut ck = RowhammerChecker::new(1, 2);
        for _ in 0..10 {
            ck.on_activate(0);
        }
        assert_eq!(ck.violations(), 0);
        assert_eq!(ck.max_exposure(), 0);
    }

    #[test]
    fn refresh_sweeps_and_reads_allocate_no_page() {
        let rows = 64 * 1024;
        let mut d = Disturbance::new(rows);
        let mut oracle = Oracle::new(10);
        d.refresh_range(0..rows, &mut oracle);
        assert_eq!(d.max_exposure(), 0);
        assert_eq!(d.sides().into_iter().flatten().count(), 0);
        assert_eq!(d.present_pages(), 0);
        // One activation touches one page per side.
        d.activate(1000, &mut oracle);
        assert_eq!(d.present_pages(), 2);
    }

    #[test]
    fn load_sides_drops_the_populated_pages() {
        let rows = 64 * 1024;
        let mut src = Disturbance::new(rows);
        let mut oracle = Oracle::new(10);
        src.activate(7, &mut oracle);
        let mut w = SnapshotWriter::new();
        src.save_state(&mut w);
        let bytes = w.finish();

        let mut dst = Disturbance::new(rows);
        for row in (0..rows).step_by(1000) {
            dst.activate(row, &mut oracle);
        }
        assert_eq!(dst.present_pages(), 2 * 66);
        dst.load_state(&mut SnapshotReader::new(&bytes).unwrap()).unwrap();
        assert_eq!(dst.present_pages(), 2);
        let got: Vec<Vec<(u32, u32)>> = dst.sides().into_iter().map(Iterator::collect).collect();
        assert_eq!(got, vec![vec![(7, 1)], vec![(7, 1)]]);
    }

    #[test]
    fn exposure_saturates_instead_of_wrapping() {
        // Preload a near-wrap exposure via the snapshot seam (activating
        // u32::MAX times for real is infeasible in a test).
        let mut ck = RowhammerChecker::new(4, u32::MAX - 10);
        let mut w = SnapshotWriter::new();
        w.put_usize(1); // up: one nonzero entry
        w.put_u32(1);
        w.put_u32(u32::MAX - 1);
        w.put_usize(0); // dn: empty
        let bytes = w.finish();
        ck.store.load_state(&mut SnapshotReader::new(&bytes).unwrap()).unwrap();
        for _ in 0..8 {
            ck.on_activate(1);
        }
        // Wrapping would have reset the budget below T_RH and reported
        // zero violations; saturation pins it at u32::MAX.
        assert_eq!(ck.max_exposure(), u32::MAX);
        assert!(ck.violations() > 0);
    }
}
