//! Deterministic, allocation-light collections for hot paths and
//! reproducible accumulators.
//!
//! `std::collections::HashMap` seeds its hasher from process-global
//! randomness, so iteration order — and therefore any accumulator that
//! folds in iteration order — varies run to run. The simulator's
//! determinism contract (bit-identical results for a given seed) bans
//! that. [`DetMap`] is a fixed-hash, open-addressed replacement for the
//! `u64`-keyed maps on simulator hot paths (prefetcher line tracking),
//! [`DetCounter`] is the shared accumulator used by workload
//! statistics in tests and bench binaries, and [`RowTable`] is the
//! paged per-row `u32` store behind PRAC counters and the disturbance
//! store.
//!
//! # Examples
//!
//! ```
//! use mopac_types::collections::{DetCounter, DetMap};
//!
//! let mut m: DetMap<&str> = DetMap::new();
//! m.insert(7, "seven");
//! assert_eq!(m.get(7), Some(&"seven"));
//! assert_eq!(m.remove(7), Some("seven"));
//!
//! let mut c = DetCounter::new();
//! c.bump(3);
//! c.bump(3);
//! assert_eq!(c.get(3), 2);
//! ```

/// Multiplicative (Fibonacci) hash: the fixed odd constant is
/// `2^64 / phi`, giving good bit diffusion for sequential keys without
/// any per-process randomness.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum number of slots; always a power of two.
const MIN_CAP: usize = 16;

/// A deterministic open-addressed hash map with `u64` keys.
///
/// Linear probing with backward-shift deletion (no tombstones), capacity
/// always a power of two, resized at 3/4 load. Hashing is a fixed
/// multiplicative hash, so layout and iteration order depend only on the
/// sequence of operations — never on process state.
#[derive(Debug, Clone)]
pub struct DetMap<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
    shift: u32,
}

impl<V> Default for DetMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DetMap<V> {
    /// An empty map with the minimum capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAP)
    }

    /// An empty map able to hold at least `cap` entries before resizing.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(MIN_CAP) * 4 / 3 + 1).next_power_of_two();
        let mut v = Vec::new();
        v.resize_with(slots, || None);
        Self {
            slots: v,
            len: 0,
            // `slots` is a power of two >= 16, so this never underflows.
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Slot holding `key`, if present.
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// True if `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Shared reference to the value for `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).and_then(|i| self.slots[i].as_ref()).map(|(_, v)| v)
    }

    /// Mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Insert `value` under `key`, returning any previous value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Remove `key`, returning its value. Uses backward-shift deletion so
    /// probe chains stay contiguous without tombstones.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let (_, value) = self.slots[i].take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.slots[j] else {
                break;
            };
            let home = self.home(*k);
            // The entry at `j` may slide back to the hole at `i` only if
            // `i` lies on its probe path, i.e. cyclically in [home, j).
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
        }
        Some(value)
    }

    /// Remove all entries, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Iterate entries in slot order — a pure function of the operation
    /// history, identical across runs and platforms.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    fn grow(&mut self) {
        let mut bigger = Self::with_capacity(self.slots.len());
        for (k, v) in self.slots.drain(..).flatten() {
            bigger.insert(k, v);
        }
        *self = bigger;
    }

    /// Serializes the map for a snapshot, including the exact slot
    /// layout.
    ///
    /// Layout is a pure function of operation history (probe chains and
    /// backward-shift deletions), so re-inserting entries on restore
    /// would diverge from the original map's future behavior. Instead
    /// the raw `(slot, key, value)` triples are written so restore
    /// reproduces the layout bit-for-bit. `save_value` serializes one
    /// `V`.
    pub fn save_state_with(
        &self,
        w: &mut crate::snapshot::SnapshotWriter,
        mut save_value: impl FnMut(&V, &mut crate::snapshot::SnapshotWriter),
    ) {
        w.put_usize(self.slots.len());
        w.put_u32(self.shift);
        w.put_usize(self.len);
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((k, v)) = slot {
                w.put_usize(i);
                w.put_u64(*k);
                save_value(v, w);
            }
        }
    }

    /// Restores a map written by [`DetMap::save_state_with`], replacing
    /// `self` entirely. `load_value` deserializes one `V`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::MopacError::Snapshot`] on truncation, an
    /// invalid slot count, an out-of-range slot index, or a duplicate
    /// slot.
    pub fn load_state_with(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
        mut load_value: impl FnMut(
            &mut crate::snapshot::SnapshotReader<'_>,
        ) -> crate::error::MopacResult<V>,
    ) -> crate::error::MopacResult<()> {
        let err = crate::error::MopacError::snapshot;
        let n_slots = r.take_usize()?;
        if !n_slots.is_power_of_two() || n_slots < MIN_CAP {
            return Err(err(format!("invalid DetMap slot count {n_slots}")));
        }
        let shift = r.take_u32()?;
        if shift != 64 - n_slots.trailing_zeros() {
            return Err(err(format!("DetMap shift {shift} inconsistent with {n_slots} slots")));
        }
        let len = r.take_usize()?;
        if len * 4 > n_slots * 3 {
            return Err(err(format!("DetMap len {len} over load factor for {n_slots} slots")));
        }
        let mut slots: Vec<Option<(u64, V)>> = Vec::new();
        slots.resize_with(n_slots, || None);
        for _ in 0..len {
            let i = r.take_usize()?;
            let key = r.take_u64()?;
            let value = load_value(r)?;
            let slot = slots
                .get_mut(i)
                .ok_or_else(|| err(format!("DetMap slot index {i} out of range")))?;
            if slot.is_some() {
                return Err(err(format!("DetMap slot {i} written twice")));
            }
            *slot = Some((key, value));
        }
        self.slots = slots;
        self.len = len;
        self.shift = shift;
        Ok(())
    }
}

/// A deterministic counting accumulator over `u64` keys.
///
/// The shared replacement for ad-hoc `HashMap<_, u32>` tallies in
/// workload tests and bench binaries: same counts, but iteration is in
/// ascending key order, so any fold over the counts is reproducible.
#[derive(Debug, Clone, Default)]
pub struct DetCounter {
    map: DetMap<u32>,
}

impl DetCounter {
    /// An empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment the count for `key`, returning the new count.
    pub fn bump(&mut self, key: u64) -> u32 {
        if let Some(c) = self.map.get_mut(key) {
            *c += 1;
            *c
        } else {
            self.map.insert(key, 1);
            1
        }
    }

    /// Current count for `key` (0 when never bumped).
    #[must_use]
    pub fn get(&self, key: u64) -> u32 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct keys seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no key has been bumped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(key, count)` pairs in ascending key order.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.map.iter().map(|(k, c)| (k, *c)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Counts in ascending key order.
    #[must_use]
    pub fn counts(&self) -> Vec<u32> {
        self.entries().into_iter().map(|(_, c)| c).collect()
    }
}

/// Rows per [`RowTable`] page: 1 KiB of `u32`s.
pub const ROW_PAGE: u32 = 1 << PAGE_SHIFT;

const PAGE_SHIFT: u32 = 8;

type Page = [u32; ROW_PAGE as usize];

/// A per-row `u32` table that pays only for the pages it holds.
///
/// Rows are split into fixed pages of [`ROW_PAGE`] rows. A page is
/// allocated on its first non-zero write and recorded in a presence
/// bitmask; a read of an absent page returns 0, and a zero write to an
/// absent page is a no-op, so refresh sweeps and resets never allocate.
/// A bank whose hot rows are few (the expected case: only a bounded set
/// of rows is activated per refresh window) holds a few pages; one whose
/// rows are all non-zero holds every page, as a dense array would.
///
/// # Examples
///
/// ```
/// use mopac_types::collections::RowTable;
///
/// let mut t = RowTable::new(64 * 1024);
/// t.set(63_000, 3);
/// assert_eq!(t.update(5, |c| c + 2), 2);
/// t.set(9, 0); // zero write to an absent page: nothing allocated
/// assert_eq!(t.get(63_000), 3);
/// assert_eq!(t.present_pages(), 2);
/// assert_eq!(t.iter_nonzero().collect::<Vec<_>>(), vec![(5, 2), (63_000, 3)]);
/// t.clear();
/// assert_eq!(t.present_pages(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RowTable {
    rows: u32,
    pages: Box<[Option<Box<Page>>]>,
    /// Bit `p % 64` of word `p / 64` is set when page `p` is allocated.
    present: Box<[u64]>,
}

impl RowTable {
    /// An all-zero table of `rows` rows; no page is allocated.
    #[must_use]
    pub fn new(rows: u32) -> Self {
        let pages = rows.div_ceil(ROW_PAGE) as usize;
        Self {
            rows,
            pages: vec![None; pages].into_boxed_slice(),
            present: vec![0; pages.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Number of rows covered.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    fn check(&self, row: u32) {
        assert!(row < self.rows, "row {row} out of range for {} rows", self.rows);
    }

    /// The value of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, row: u32) -> u32 {
        self.check(row);
        match &self.pages[(row >> PAGE_SHIFT) as usize] {
            Some(page) => page[(row % ROW_PAGE) as usize],
            None => 0,
        }
    }

    /// Replaces the value of `row` with `f(value)` and returns it. The
    /// row's page is allocated only if it is absent and the new value
    /// is non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn update(&mut self, row: u32, f: impl FnOnce(u32) -> u32) -> u32 {
        self.check(row);
        let p = (row >> PAGE_SHIFT) as usize;
        let slot = (row % ROW_PAGE) as usize;
        if let Some(page) = &mut self.pages[p] {
            page[slot] = f(page[slot]);
            return page[slot];
        }
        let v = f(0);
        if v != 0 {
            self.allocate(p)[slot] = v;
        }
        v
    }

    /// Sets the value of `row` (see [`Self::update`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn set(&mut self, row: u32, value: u32) {
        self.update(row, |_| value);
    }

    #[cold]
    fn allocate(&mut self, p: usize) -> &mut Page {
        self.present[p / 64] |= 1 << (p % 64);
        self.pages[p].insert(Box::new([0; ROW_PAGE as usize]))
    }

    /// Zeroes every row by dropping the allocated pages.
    pub fn clear(&mut self) {
        for (w, word) in self.present.iter_mut().enumerate() {
            while *word != 0 {
                self.pages[w * 64 + word.trailing_zeros() as usize] = None;
                *word &= *word - 1;
            }
        }
    }

    /// Number of allocated pages.
    #[must_use]
    pub fn present_pages(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `(row, value)` pairs with non-zero values, in row order. Only
    /// allocated pages are visited.
    #[must_use]
    pub fn iter_nonzero(&self) -> NonZeroRows<'_> {
        let bits = self.present.first().copied().unwrap_or(0);
        NonZeroRows { table: self, word: 0, bits, page: &[], row: 0 }
    }

    /// Writes the table sparsely in one walk: the count of non-zero
    /// rows, then `(row, value)` pairs in row order.
    pub fn save_nonzero(&self, w: &mut crate::snapshot::SnapshotWriter) {
        let at = w.reserve_usize();
        let mut n = 0;
        for (row, v) in self.iter_nonzero() {
            w.put_u32(row);
            w.put_u32(v);
            n += 1;
        }
        w.patch_usize(at, n);
    }

    /// Replaces the table with rows written by [`Self::save_nonzero`].
    ///
    /// # Errors
    ///
    /// [`MopacError::Snapshot`](crate::error::MopacError::Snapshot) on a
    /// row outside the table (named as a `what` row) or truncated input.
    pub fn load_nonzero(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
        what: &str,
    ) -> crate::error::MopacResult<()> {
        self.clear();
        for _ in 0..r.take_usize()? {
            let row = r.take_u32()?;
            if row >= self.rows {
                return Err(crate::error::MopacError::snapshot(format!(
                    "{what} row {row} out of range"
                )));
            }
            self.set(row, r.take_u32()?);
        }
        Ok(())
    }
}

/// The iterator of [`RowTable::iter_nonzero`].
#[derive(Debug, Clone)]
pub struct NonZeroRows<'a> {
    table: &'a RowTable,
    /// The presence word being walked, and its pages not yet visited.
    word: usize,
    bits: u64,
    /// The rest of the page being scanned, and the row of its first slot.
    page: &'a [u32],
    row: u32,
}

impl Iterator for NonZeroRows<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        loop {
            while let Some((&v, rest)) = self.page.split_first() {
                let row = self.row;
                self.page = rest;
                self.row = row.wrapping_add(1);
                if v != 0 {
                    return Some((row, v));
                }
            }
            while self.bits == 0 {
                self.word += 1;
                self.bits = *self.table.present.get(self.word)?;
            }
            let p = self.word * 64 + self.bits.trailing_zeros() as usize;
            self.bits &= self.bits - 1;
            self.page = self.table.pages[p].as_deref().map_or(&[], |page| &page[..]);
            self.row = (p as u32) << PAGE_SHIFT;
        }
    }
}

/// Pack a `(bank, row)` coordinate into a `DetCounter`/`DetMap` key.
#[must_use]
pub fn bank_row_key(flat_bank: u32, row: u32) -> u64 {
    (u64::from(flat_bank) << 32) | u64::from(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn basic_ops() {
        let mut m: DetMap<u32> = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(0, 10), None);
        assert_eq!(m.insert(0, 11), Some(10));
        assert_eq!(m.get(0), Some(&11));
        assert!(m.contains_key(0));
        assert_eq!(m.remove(0), Some(11));
        assert_eq!(m.remove(0), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_load_factor() {
        let mut m: DetMap<usize> = DetMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i as usize);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i), Some(&(i as usize)));
        }
    }

    /// Fuzz insert/remove/get against the std map (std is fine as a test
    /// oracle; only simulator results must be hasher-independent).
    #[test]
    fn matches_std_hashmap_under_fuzz() {
        let mut rng = DetRng::from_seed(0xC0_11EC);
        let mut det: DetMap<u64> = DetMap::new();
        let mut std_map: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..50_000 {
            let key = rng.below(512);
            match rng.below(10) {
                0..=4 => {
                    let v = rng.next_u64();
                    assert_eq!(det.insert(key, v), std_map.insert(key, v));
                }
                5..=7 => assert_eq!(det.remove(key), std_map.remove(&key)),
                8 => assert_eq!(det.get(key), std_map.get(&key)),
                _ => assert_eq!(det.contains_key(key), std_map.contains_key(&key)),
            }
            assert_eq!(det.len(), std_map.len());
        }
        let mut det_entries: Vec<(u64, u64)> = det.iter().map(|(k, v)| (k, *v)).collect();
        det_entries.sort_unstable();
        let mut std_entries: Vec<(u64, u64)> = std_map.iter().map(|(k, v)| (*k, *v)).collect();
        std_entries.sort_unstable();
        assert_eq!(det_entries, std_entries);
    }

    #[test]
    fn iteration_is_deterministic() {
        let build = || {
            let mut m: DetMap<u64> = DetMap::new();
            for i in 0..200u64 {
                m.insert(i * 37, i);
            }
            for i in 0..100u64 {
                m.remove(i * 74);
            }
            m.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn counter_entries_sorted() {
        let mut c = DetCounter::new();
        for k in [5u64, 3, 5, 9, 3, 5] {
            c.bump(k);
        }
        assert_eq!(c.entries(), vec![(3, 2), (5, 3), (9, 1)]);
        assert_eq!(c.counts(), vec![2, 3, 1]);
        assert_eq!(c.get(5), 3);
        assert_eq!(c.get(42), 0);
    }

    /// The property that forces raw-slot serialization: after a restore,
    /// the map must behave bit-identically under *future* operations,
    /// which depend on probe-chain layout, not just contents.
    #[test]
    fn snapshot_round_trip_preserves_slot_layout() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};
        let mut rng = DetRng::from_seed(0x51A9);
        let mut m: DetMap<u64> = DetMap::new();
        for _ in 0..5_000 {
            let key = rng.below(256);
            if rng.below(3) == 0 {
                m.remove(key);
            } else {
                m.insert(key, rng.next_u64());
            }
        }
        let mut w = SnapshotWriter::new();
        m.save_state_with(&mut w, |v, w| w.put_u64(*v));
        let bytes = w.finish();

        let mut restored: DetMap<u64> = DetMap::new();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored
            .load_state_with(&mut r, |r| r.take_u64())
            .unwrap();

        // Identical iteration (slot) order, not just identical contents.
        let orig: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
        let rest: Vec<(u64, u64)> = restored.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(orig, rest);

        // Identical behavior under further mutation.
        let mut rng2 = rng.clone();
        for _ in 0..2_000 {
            let key = rng.below(256);
            let key2 = rng2.below(256);
            assert_eq!(key, key2);
            if rng.below(3) == 0 {
                let _ = rng2.below(3);
                assert_eq!(m.remove(key), restored.remove(key));
            } else {
                let _ = rng2.below(3);
                let v = rng.next_u64();
                let v2 = rng2.next_u64();
                assert_eq!(v, v2);
                assert_eq!(m.insert(key, v), restored.insert(key, v));
            }
        }
        let orig: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
        let rest: Vec<(u64, u64)> = restored.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(orig, rest);
    }

    #[test]
    fn row_table_zero_writes_and_reads_allocate_nothing() {
        let rows = 64 * 1024;
        let mut t = RowTable::new(rows);
        for row in 0..rows {
            t.set(row, 0);
            assert_eq!(t.update(row, |c| c), 0);
            assert_eq!(t.get(row), 0);
        }
        assert_eq!(t.present_pages(), 0);
        assert_eq!(t.iter_nonzero().count(), 0);
    }

    #[test]
    fn row_table_allocates_one_page_per_touched_page() {
        let mut t = RowTable::new(3 * ROW_PAGE + 17);
        t.set(ROW_PAGE - 1, 1);
        assert_eq!(t.present_pages(), 1);
        t.set(ROW_PAGE, 2);
        t.set(ROW_PAGE + 1, 3);
        assert_eq!(t.present_pages(), 2);
        t.set(3 * ROW_PAGE + 16, 4);
        assert_eq!(t.present_pages(), 3);
        // A page zeroed by writes stays allocated but iterates as empty.
        t.set(ROW_PAGE - 1, 0);
        assert_eq!(t.present_pages(), 3);
        let nonzero: Vec<_> = t.iter_nonzero().collect();
        assert_eq!(nonzero, vec![(ROW_PAGE, 2), (ROW_PAGE + 1, 3), (3 * ROW_PAGE + 16, 4)]);
        t.clear();
        assert_eq!(t.present_pages(), 0);
        assert_eq!(t.get(ROW_PAGE), 0);
    }

    /// Random writes biased toward page and table edges, against a
    /// dense array. Over 64 pages, so the presence mask spans words.
    #[test]
    fn row_table_matches_dense_array() {
        let mut rng = DetRng::from_seed(0x5A6E);
        for rows in [1, ROW_PAGE - 1, ROW_PAGE, 70 * ROW_PAGE + 3] {
            let mut t = RowTable::new(rows);
            let mut dense = vec![0u32; rows as usize];
            for _ in 0..4_000 {
                let row = match rng.below(3) {
                    0 => rng.below(u64::from(rows)) as u32,
                    1 => (rng.below(u64::from(rows.div_ceil(ROW_PAGE))) as u32 * ROW_PAGE)
                        .saturating_sub(rng.below(2) as u32)
                        .min(rows - 1),
                    _ => rows - 1,
                };
                let v = if rng.below(4) == 0 { 0 } else { rng.below(1 << 20) as u32 };
                let i = row as usize;
                match rng.below(50) {
                    0 => {
                        t.clear();
                        dense.fill(0);
                    }
                    1..=24 => {
                        t.set(row, v);
                        dense[i] = v;
                    }
                    _ => {
                        dense[i] = dense[i].saturating_add(v);
                        assert_eq!(t.update(row, |c| c.saturating_add(v)), dense[i]);
                    }
                }
                assert_eq!(t.get(row), dense[i]);
            }
            let want: Vec<(u32, u32)> =
                (0..).zip(dense.iter().copied()).filter(|&(_, v)| v != 0).collect();
            assert_eq!(t.iter_nonzero().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_table_out_of_range_panics() {
        let t = RowTable::new(ROW_PAGE + 1);
        let _ = t.get(ROW_PAGE + 1);
    }

    #[test]
    fn bank_row_key_is_injective() {
        assert_ne!(bank_row_key(1, 0), bank_row_key(0, 1));
        assert_eq!(bank_row_key(2, 7) >> 32, 2);
        assert_eq!(bank_row_key(2, 7) & 0xFFFF_FFFF, 7);
    }
}
