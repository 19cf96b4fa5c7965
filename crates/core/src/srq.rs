//! MoPAC-D's Selected-Row Queue (SRQ, Section 6.1).
//!
//! Each bank buffers rows selected for deferred PRAC-counter updates in a
//! small (default 16-entry) queue. Each entry carries two counters:
//!
//! * `ACtr` — activations to the buffered row since it entered the SRQ,
//!   used to bound *tardiness* (Section 6.3): when `ACtr` exceeds `TTH`
//!   the bank forces an ABO;
//! * `SCtr` — additional selections coalesced into the entry; on drain
//!   the PRAC counter receives `1 + SCtr/p` worth of activations
//!   (Section 6.4).
//!
//! Entries drain in priority order of highest `ACtr` first.

/// One SRQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrqEntry {
    /// The buffered row address.
    pub row: u32,
    /// Activations to this row while buffered.
    pub actr: u32,
    /// Coalesced additional selections.
    pub sctr: u32,
}

/// Outcome of an SRQ insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrqInsert {
    /// A new entry was created.
    Inserted,
    /// The row was already buffered; its `SCtr` was incremented.
    Coalesced,
    /// The queue was full and the row was not present; the selection is
    /// lost (the caller should already be asserting ALERT).
    Overflowed,
}

/// A per-bank (or per-chip) Selected-Row Queue.
///
/// # Examples
///
/// ```
/// use mopac::srq::{Srq, SrqInsert};
///
/// let mut q = Srq::new(2);
/// assert_eq!(q.insert(10), SrqInsert::Inserted);
/// assert_eq!(q.insert(10), SrqInsert::Coalesced);
/// assert_eq!(q.insert(11), SrqInsert::Inserted);
/// assert!(q.is_full());
/// assert_eq!(q.insert(12), SrqInsert::Overflowed);
/// q.on_activate(10); // row 10 now has the highest ACtr
/// let e = q.pop_highest_actr().unwrap();
/// assert_eq!((e.row, e.actr, e.sctr), (10, 1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Srq {
    capacity: usize,
    entries: Vec<SrqEntry>,
}

impl Srq {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SRQ capacity must be positive");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Queue capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is at capacity (ABO trigger condition).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Inserts a selected row, coalescing if already present.
    pub fn insert(&mut self, row: u32) -> SrqInsert {
        if let Some(e) = self.entries.iter_mut().find(|e| e.row == row) {
            e.sctr = e.sctr.saturating_add(1);
            return SrqInsert::Coalesced;
        }
        if self.is_full() {
            return SrqInsert::Overflowed;
        }
        self.entries.push(SrqEntry {
            row,
            actr: 0,
            sctr: 0,
        });
        SrqInsert::Inserted
    }

    /// Notes an activation to `row`; increments its `ACtr` if buffered
    /// and returns the new value.
    pub fn on_activate(&mut self, row: u32) -> Option<u32> {
        let e = self.entries.iter_mut().find(|e| e.row == row)?;
        e.actr = e.actr.saturating_add(1);
        Some(e.actr)
    }

    /// The largest `ACtr` currently buffered (0 if empty).
    #[must_use]
    pub fn max_actr(&self) -> u32 {
        self.entries.iter().map(|e| e.actr).max().unwrap_or(0)
    }

    /// Removes and returns the entry with the highest `ACtr` (drain
    /// priority order).
    pub fn pop_highest_actr(&mut self) -> Option<SrqEntry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.actr)?
            .0;
        Some(self.entries.swap_remove(idx))
    }

    /// Adds `amount` to the `SCtr` of `row` if it is buffered (Row-Press
    /// damage accounting, Appendix A). Returns `true` if the row was
    /// found.
    pub fn add_sctr(&mut self, row: u32, amount: u32) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.row == row) {
            e.sctr = e.sctr.saturating_add(amount);
            true
        } else {
            false
        }
    }

    /// Removes the entry for `row`, if buffered (e.g. the row was just
    /// mitigated through MOAT).
    pub fn remove_row(&mut self, row: u32) -> Option<SrqEntry> {
        let idx = self.entries.iter().position(|e| e.row == row)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Iterates over buffered entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &SrqEntry> {
        self.entries.iter()
    }
}

impl mopac_types::snapshot::Snapshottable for Srq {
    /// Entry *order* is serialized verbatim: `pop_highest_actr` breaks
    /// ACtr ties by position (`max_by_key` returns the last maximum) and
    /// removal uses `swap_remove`, so re-inserting in any other order
    /// would change future drain behavior.
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_u32(e.row);
            w.put_u32(e.actr);
            w.put_u32(e.sctr);
        }
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        let n = r.take_usize()?;
        if n > self.capacity {
            return Err(mopac_types::MopacError::snapshot(format!(
                "SRQ holds {n} entries but capacity is {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            self.entries.push(SrqEntry {
                row: r.take_u32()?,
                actr: r.take_u32()?,
                sctr: r.take_u32()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_increments_sctr() {
        let mut q = Srq::new(4);
        q.insert(5);
        q.insert(5);
        q.insert(5);
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().next().unwrap().sctr, 2);
    }

    #[test]
    fn actr_tracks_only_buffered_rows() {
        let mut q = Srq::new(4);
        q.insert(1);
        assert_eq!(q.on_activate(1), Some(1));
        assert_eq!(q.on_activate(1), Some(2));
        assert_eq!(q.on_activate(2), None);
        assert_eq!(q.max_actr(), 2);
    }

    #[test]
    fn drain_order_is_highest_actr_first() {
        let mut q = Srq::new(4);
        q.insert(1);
        q.insert(2);
        q.insert(3);
        q.on_activate(2);
        q.on_activate(2);
        q.on_activate(3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_highest_actr().map(|e| e.row)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn overflow_reported_when_full() {
        let mut q = Srq::new(1);
        assert_eq!(q.insert(1), SrqInsert::Inserted);
        assert_eq!(q.insert(2), SrqInsert::Overflowed);
        // Coalescing still works at capacity.
        assert_eq!(q.insert(1), SrqInsert::Coalesced);
    }

    #[test]
    fn remove_row_clears_entry() {
        let mut q = Srq::new(4);
        q.insert(9);
        assert!(q.remove_row(9).is_some());
        assert!(q.remove_row(9).is_none());
        assert!(q.is_empty());
    }
}
