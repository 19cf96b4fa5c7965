//! Incrementally maintained FR-FCFS scheduler index.
//!
//! The controller's original hot path rebuilt its candidate set from
//! scratch every cycle: an O(queue) row-hit scan, an O(queue²)
//! conflict scan (each conflict re-scanning the queue for surviving
//! hits), and O(banks) close sweeps — all repeated even when provably
//! nothing could issue. This module holds the state that makes those
//! scans incremental:
//!
//! * [`QueueCounts`] — per-bank totals and row-hit counts for one
//!   request queue, with bank bitmasks. "Hit" means *matches the bank's
//!   currently open row*, so the per-request FR-FCFS classification
//!   (hit / conflict / closed-bank) collapses to O(1) per bank:
//!   a bank's queued requests are all conflicts iff `hits == 0`.
//! * [`SubIndex`] — per-sub-channel bundle of the two queue counts and
//!   the cached next-wake cycle. Every event that can change scheduling
//!   (enqueue, dequeue, any DRAM command on the sub-channel, external
//!   device mutation through `dram_mut`) drops the cache.
//!
//! The invariants (what invalidates what, and why the fast path is
//! bit-identical to per-cycle rescans) are documented in DESIGN.md §10
//! and enforced by `tests/prop_sched_index.rs`.

use mopac_types::bankmask::BankMask;
use mopac_types::time::Cycle;

/// Per-bank request counts for one queue (reads or writes).
///
/// Maintained by the controller at the four events that can change it:
///
/// | event | update |
/// |---|---|
/// | enqueue | `total += 1`; `hits += 1` if the bank's open row matches |
/// | dequeue (column issue) | `total -= 1`, `hits -= 1` (a column command always serves a hit) |
/// | ACT | recount `hits` for that bank against the new open row |
/// | PRE | `hits = 0` for that bank (no open row, nothing can hit) |
///
/// Invariant: `hits[b] > 0` implies bank `b` has an open row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QueueCounts {
    total: Vec<u32>,
    hits: Vec<u32>,
    /// Bit `b` set iff `total[b] > 0`.
    occ_mask: BankMask,
    /// Bit `b` set iff `hits[b] > 0`.
    hits_mask: BankMask,
}

impl QueueCounts {
    pub(crate) fn new(banks: usize) -> Self {
        debug_assert!(
            banks as u32 <= BankMask::CAPACITY,
            "bank masks hold at most {} banks",
            BankMask::CAPACITY
        );
        Self {
            total: vec![0; banks],
            hits: vec![0; banks],
            occ_mask: BankMask::empty(),
            hits_mask: BankMask::empty(),
        }
    }

    /// Queued requests for `bank`.
    #[cfg(test)]
    pub(crate) fn total(&self, bank: u32) -> u32 {
        self.total[bank as usize]
    }

    /// Queued requests for `bank` matching its open row.
    pub(crate) fn hits(&self, bank: u32) -> u32 {
        self.hits[bank as usize]
    }

    /// Banks with at least one queued request.
    pub(crate) fn occ_mask(&self) -> BankMask {
        self.occ_mask
    }

    /// Banks with at least one queued row hit.
    pub(crate) fn hits_mask(&self) -> BankMask {
        self.hits_mask
    }

    pub(crate) fn on_enqueue(&mut self, bank: u32, hit: bool) {
        let b = bank as usize;
        self.total[b] += 1;
        self.occ_mask.set(bank);
        if hit {
            self.hits[b] += 1;
            self.hits_mask.set(bank);
        }
    }

    /// A column command removed one request from `bank`'s queue; the
    /// request it served was by construction a hit on the open row.
    pub(crate) fn on_dequeue_hit(&mut self, bank: u32) {
        let b = bank as usize;
        debug_assert!(self.total[b] > 0 && self.hits[b] > 0);
        self.total[b] -= 1;
        self.hits[b] -= 1;
        if self.total[b] == 0 {
            self.occ_mask.clear(bank);
        }
        if self.hits[b] == 0 {
            self.hits_mask.clear(bank);
        }
    }

    /// An ACT opened `open_row` in `bank`: recount that bank's hits
    /// against the new row. `reqs` iterates the whole queue as
    /// `(bank, row)` pairs; only entries for `bank` are counted.
    pub(crate) fn rescan_bank(
        &mut self,
        bank: u32,
        open_row: u32,
        reqs: impl Iterator<Item = (u32, u32)>,
    ) {
        let n = reqs.filter(|&(b, r)| b == bank && r == open_row).count() as u32;
        self.hits[bank as usize] = n;
        self.hits_mask.assign(bank, n > 0);
    }

    /// A PRE closed `bank`: nothing can hit a closed bank.
    pub(crate) fn clear_hits(&mut self, bank: u32) {
        self.hits[bank as usize] = 0;
        self.hits_mask.clear(bank);
    }

    /// A from-scratch rebuild over the full queue — the reference the
    /// incremental maintenance must agree with (property tests and
    /// [`debug parity checks`](crate::controller::MemoryController::debug_verify_index)).
    pub(crate) fn rebuild(
        banks: usize,
        reqs: impl Iterator<Item = (u32, u32)>,
        open_row: impl Fn(u32) -> Option<u32>,
    ) -> Self {
        let mut c = Self::new(banks);
        for (bank, row) in reqs {
            c.on_enqueue(bank, open_row(bank) == Some(row));
        }
        c
    }
}

/// The cached next-wake for one sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WakeCache {
    /// The computed wake cycle (strictly after `computed_at`).
    wake: Cycle,
    /// Cycle the computation ran at (for parity re-checks).
    computed_at: Cycle,
}

/// Per-sub-channel scheduler index: queue counts + wake cache.
#[derive(Debug, Clone)]
pub(crate) struct SubIndex {
    pub(crate) reads: QueueCounts,
    pub(crate) writes: QueueCounts,
    /// Present only while nothing has changed what or when the
    /// sub-channel could issue since the wake was computed.
    cache: Option<WakeCache>,
}

impl SubIndex {
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            reads: QueueCounts::new(banks),
            writes: QueueCounts::new(banks),
            cache: None,
        }
    }

    /// Kills the cached wake. Called on: enqueue/dequeue, every DRAM
    /// command issued on this sub-channel, and any external device
    /// mutation (`dram_mut`).
    pub(crate) fn invalidate(&mut self) {
        self.cache = None;
    }

    /// The cached wake, if still valid (nothing invalidated it since it
    /// was computed). The caller must additionally check `now < wake`
    /// before treating the current tick as a provable no-op.
    pub(crate) fn valid_wake(&self) -> Option<Cycle> {
        self.cache.map(|c| c.wake)
    }

    /// When the valid cache was computed (parity checks).
    pub(crate) fn valid_computed_at(&self) -> Option<Cycle> {
        self.cache.map(|c| c.computed_at)
    }

    /// Stores the wake computed at `now`. A `None` wake (nothing
    /// pending at all) is not cached — the full tick path stays
    /// authoritative for it.
    pub(crate) fn store_wake(&mut self, wake: Option<Cycle>, now: Cycle) {
        self.cache = wake.map(|w| {
            debug_assert!(w > now, "cached wake must be strictly after now");
            WakeCache {
                wake: w,
                computed_at: now,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_track_enqueue_dequeue() {
        let mut c = QueueCounts::new(4);
        c.on_enqueue(1, false);
        c.on_enqueue(1, true);
        c.on_enqueue(3, true);
        assert_eq!(c.total(1), 2);
        assert_eq!(c.hits(1), 1);
        assert_eq!(c.occ_mask(), BankMask::from_u64(0b1010));
        assert_eq!(c.hits_mask(), BankMask::from_u64(0b1010));
        c.on_dequeue_hit(1);
        assert_eq!(c.total(1), 1);
        assert_eq!(c.hits(1), 0);
        assert_eq!(c.occ_mask(), BankMask::from_u64(0b1010));
        assert_eq!(c.hits_mask(), BankMask::from_u64(0b1000));
        c.on_dequeue_hit(3);
        assert_eq!(c.occ_mask(), BankMask::from_u64(0b0010));
        assert!(c.hits_mask().is_empty());
    }

    #[test]
    fn rescan_and_clear_follow_row_state() {
        let mut c = QueueCounts::new(2);
        c.on_enqueue(0, false);
        c.on_enqueue(0, false);
        // ACT opens row 7; one queued request targets it.
        c.rescan_bank(0, 7, [(0u32, 7u32), (0, 9)].into_iter());
        assert_eq!(c.hits(0), 1);
        assert_eq!(c.hits_mask(), BankMask::from_u64(1));
        c.clear_hits(0);
        assert_eq!(c.hits(0), 0);
        assert!(c.hits_mask().is_empty());
        assert_eq!(c.total(0), 2, "PRE does not dequeue anything");
    }

    #[test]
    fn rebuild_matches_incremental() {
        let reqs = [(0u32, 5u32), (1, 2), (0, 5), (1, 3)];
        let open = |b: u32| (b == 0).then_some(5);
        let fresh = QueueCounts::rebuild(2, reqs.into_iter(), open);
        let mut inc = QueueCounts::new(2);
        for (b, r) in reqs {
            inc.on_enqueue(b, open(b) == Some(r));
        }
        assert_eq!(fresh, inc);
    }

    #[test]
    fn cache_dies_on_invalidate() {
        let mut s = SubIndex::new(4);
        assert_eq!(s.valid_wake(), None);
        s.store_wake(Some(100), 10);
        assert_eq!(s.valid_wake(), Some(100));
        assert_eq!(s.valid_computed_at(), Some(10));
        s.invalidate();
        assert_eq!(s.valid_wake(), None);
        s.store_wake(None, 10);
        assert_eq!(s.valid_wake(), None);
    }
}
