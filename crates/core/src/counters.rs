//! Per-row PRAC activation counters.
//!
//! PRAC extends every DRAM row with a (2-byte) activation counter that is
//! read, incremented and written back during precharge. This module
//! models one bank's worth of counters. Under plain PRAC each update adds
//! 1; under MoPAC each (probabilistic) update adds `1/p`, and MoPAC-D's
//! deferred updates add `1 + SCtr/p` when an SRQ entry drains.
//!
//! The counters live in a [`RowTable`]: a bank pays only for its
//! non-zero counters while they are few, and refreshes and resets of
//! untouched rows allocate nothing.

use mopac_types::collections::RowTable;

/// One bank's per-row activation counters.
///
/// # Examples
///
/// ```
/// use mopac::counters::PracCounters;
///
/// let mut c = PracCounters::new(1024);
/// c.add(7, 8); // one MoPAC update at p = 1/8
/// assert_eq!(c.get(7), 8);
/// c.reset(7);
/// assert_eq!(c.get(7), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PracCounters {
    counts: RowTable,
}

impl PracCounters {
    /// Creates counters for a bank with `rows` rows, all zero.
    #[must_use]
    pub fn new(rows: u32) -> Self {
        Self { counts: RowTable::new(rows) }
    }

    /// Number of rows covered.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.counts.rows()
    }

    /// Current counter value of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn get(&self, row: u32) -> u32 {
        self.counts.get(row)
    }

    /// Adds `amount` to the counter of `row`, saturating, and returns the
    /// new value.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn add(&mut self, row: u32, amount: u32) -> u32 {
        self.counts.update(row, |c| c.saturating_add(amount))
    }

    /// Resets the counter of `row` to zero (mitigation or refresh).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn reset(&mut self, row: u32) {
        self.counts.set(row, 0);
    }

    /// Flips one bit of the counter of `row` (fault injection: a soft
    /// error in the in-row counter storage) and returns the new value.
    /// Bits above 31 wrap onto the stored word.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn flip_bit(&mut self, row: u32, bit: u32) -> u32 {
        self.counts.update(row, |c| c ^ (1u32 << (bit % 32)))
    }

    /// Iterates over `(row, count)` pairs with non-zero counts, in row
    /// order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.counts.iter_nonzero()
    }
}

impl mopac_types::snapshot::Snapshottable for PracCounters {
    /// Serializes sparsely: the number of non-zero counters, then
    /// `(row, count)` pairs in row order. Only the non-zero counters are
    /// visited while they are few, so a mostly-idle 64 K-row bank costs
    /// a few bytes instead of 256 KB and a full sweep.
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        self.counts.save_nonzero(w);
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        self.counts.load_nonzero(r, "PRAC counter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_reset() {
        let mut c = PracCounters::new(8);
        assert_eq!(c.add(3, 1), 1);
        assert_eq!(c.add(3, 16), 17);
        assert_eq!(c.get(3), 17);
        c.reset(3);
        assert_eq!(c.get(3), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut c = PracCounters::new(2);
        c.add(0, u32::MAX);
        assert_eq!(c.add(0, 10), u32::MAX);
    }

    #[test]
    fn iter_nonzero_only_touched_rows() {
        let mut c = PracCounters::new(100);
        c.add(5, 2);
        c.add(99, 7);
        let v: Vec<_> = c.iter_nonzero().collect();
        assert_eq!(v, vec![(5, 2), (99, 7)]);
    }

    #[test]
    fn resets_and_reads_of_every_row_allocate_no_page() {
        let rows = 64 * 1024;
        let mut c = PracCounters::new(rows);
        for row in 0..rows {
            c.reset(row);
            assert_eq!(c.get(row), 0);
        }
        assert_eq!(c.iter_nonzero().count(), 0);
    }

    #[test]
    fn flip_bit_on_an_absent_row_stores_the_row() {
        let mut c = PracCounters::new(64 * 1024);
        assert_eq!(c.flip_bit(40_000, 33), 2);
        assert_eq!(c.iter_nonzero().collect::<Vec<_>>(), vec![(40_000, 2)]);
        assert_eq!(c.flip_bit(40_000, 1), 0);
        assert_eq!(c.iter_nonzero().count(), 0);
    }

    #[test]
    fn load_state_drops_the_populated_pages() {
        use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
        let mut src = PracCounters::new(64 * 1024);
        src.add(3, 5);
        let mut w = SnapshotWriter::new();
        src.save_state(&mut w);
        let bytes = w.finish();

        // Every 10th row non-zero: the destination is past its dense switch.
        let mut dst = PracCounters::new(64 * 1024);
        for row in (0..64 * 1024).step_by(10) {
            dst.add(row, 1);
        }
        dst.load_state(&mut SnapshotReader::new(&bytes).unwrap()).unwrap();
        assert_eq!(dst.iter_nonzero().collect::<Vec<_>>(), vec![(3, 5)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let c = PracCounters::new(4);
        let _ = c.get(4);
    }
}
