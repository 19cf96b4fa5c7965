//! Shared last-level cache (Table 3: 8 MB, 16-way, 64 B lines).
//!
//! A straightforward set-associative writeback/write-allocate cache with
//! LRU replacement. The calibrated Table 4 workloads bypass it (their
//! published MPKI already describes the post-LLC miss stream — see
//! DESIGN.md), but raw-address applications such as the masstree-style
//! example run through it, and it is exercised directly by unit and
//! property tests.

use mopac_types::addr::PhysAddr;
use mopac_types::snapshot::Snapshottable;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Line present.
    Hit,
    /// Line absent; it was filled, evicting a clean line or nothing.
    Miss,
    /// Line absent; filling it evicted this dirty line, which must be
    /// written back.
    MissDirtyEviction(PhysAddr),
}

impl CacheAccess {
    /// Whether the access missed.
    #[must_use]
    pub fn is_miss(&self) -> bool {
        !matches!(self, CacheAccess::Hit)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u32,
}

mopac_types::counter_struct! {
    /// Cache statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LlcStats {
        /// Total accesses.
        pub accesses: u64 => LlcAccesses,
        /// Misses (including those with dirty evictions).
        pub misses: u64 => LlcMisses,
        /// Dirty lines evicted (writebacks generated).
        pub writebacks: u64 => LlcWritebacks,
    }
}

impl LlcStats {
    /// Miss ratio in `[0, 1]`.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative last-level cache.
///
/// # Examples
///
/// ```
/// use mopac_cpu::llc::{CacheAccess, Llc};
/// use mopac_types::addr::PhysAddr;
///
/// let mut llc = Llc::new(64 * 1024, 16, 64); // 64 KiB toy instance
/// assert!(llc.access(PhysAddr::new(0x1000), false).is_miss());
/// assert_eq!(llc.access(PhysAddr::new(0x1000), false), CacheAccess::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    sets: Vec<Vec<Way>>,
    line_bytes: u32,
    set_shift: u32,
    stats: LlcStats,
    tick: u32,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with the given associativity
    /// and line size.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not describe a power-of-two number of
    /// sets of at least 1.
    #[must_use]
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two());
        let num_sets = capacity_bytes / u64::from(ways) / u64::from(line_bytes);
        assert!(
            num_sets >= 1 && num_sets.is_power_of_two(),
            "sets must be a power of two, got {num_sets}"
        );
        Self {
            sets: vec![vec![Way::default(); ways as usize]; num_sets as usize],
            line_bytes,
            set_shift: line_bytes.trailing_zeros(),
            stats: LlcStats::default(),
            tick: 0,
        }
    }

    /// The paper's 8 MB, 16-way, 64 B configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(8 * 1024 * 1024, 16, 64)
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// Accesses `addr`; `is_write` marks the line dirty.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> CacheAccess {
        self.stats.accesses += 1;
        self.tick = self.tick.wrapping_add(1);
        let line = addr.get() >> self.set_shift;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = tick;
            way.dirty |= is_write;
            return CacheAccess::Hit;
        }
        self.stats.misses += 1;
        // Victim: invalid way first, else LRU.
        let victim_idx = set
            .iter()
            .position(|w| !w.valid)
            .unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set")
            });
        let victim = set[victim_idx];
        set[victim_idx] = Way {
            tag,
            valid: true,
            dirty: is_write,
            lru: tick,
        };
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            let victim_line = victim.tag * self.sets.len() as u64 + set_idx as u64;
            CacheAccess::MissDirtyEviction(PhysAddr::from_line_index(
                victim_line,
                self.line_bytes,
            ))
        } else {
            CacheAccess::Miss
        }
    }
}

impl Snapshottable for Llc {
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        w.put_usize(self.sets.len());
        w.put_usize(self.sets.first().map_or(0, Vec::len));
        for set in &self.sets {
            for way in set {
                w.put_u64(way.tag);
                w.put_bool(way.valid);
                w.put_bool(way.dirty);
                w.put_u32(way.lru);
            }
        }
        self.stats.save_state(w);
        w.put_u32(self.tick);
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        let sets = r.take_usize()?;
        let ways = r.take_usize()?;
        if sets != self.sets.len() || ways != self.sets.first().map_or(0, Vec::len) {
            return Err(mopac_types::MopacError::snapshot(format!(
                "LLC geometry mismatch: snapshot {sets}x{ways}, configured {}x{}",
                self.sets.len(),
                self.sets.first().map_or(0, Vec::len),
            )));
        }
        for set in &mut self.sets {
            for way in set {
                way.tag = r.take_u64()?;
                way.valid = r.take_bool()?;
                way.dirty = r.take_bool()?;
                way.lru = r.take_u32()?;
            }
        }
        self.stats.load_state(r)?;
        self.tick = r.take_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Llc::new(4096, 4, 64);
        assert!(c.access(PhysAddr::new(0), false).is_miss());
        assert_eq!(c.access(PhysAddr::new(0), false), CacheAccess::Hit);
        assert_eq!(c.access(PhysAddr::new(63), false), CacheAccess::Hit);
        assert!(c.access(PhysAddr::new(64), false).is_miss());
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set x 2 ways of 64 B.
        let mut c = Llc::new(128, 2, 64);
        c.access(PhysAddr::new(0), false);
        c.access(PhysAddr::new(128), false);
        c.access(PhysAddr::new(0), false); // refresh line 0
        c.access(PhysAddr::new(256), false); // evicts line 128
        assert_eq!(c.access(PhysAddr::new(0), false), CacheAccess::Hit);
        assert!(c.access(PhysAddr::new(128), false).is_miss());
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = Llc::new(128, 2, 64);
        c.access(PhysAddr::new(0x40), true);
        c.access(PhysAddr::new(0x40 + 128), false);
        let out = c.access(PhysAddr::new(0x40 + 256), false);
        assert_eq!(out, CacheAccess::MissDirtyEviction(PhysAddr::new(0x40)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn paper_default_dimensions() {
        let c = Llc::paper_default();
        assert_eq!(c.sets.len(), 8192);
        assert_eq!(c.sets[0].len(), 16);
    }

    #[test]
    fn miss_ratio_tracks() {
        let mut c = Llc::new(4096, 4, 64);
        for i in 0..64u64 {
            c.access(PhysAddr::new(i * 64), false);
        }
        assert_eq!(c.stats().miss_ratio(), 1.0);
        for i in 48..64u64 {
            c.access(PhysAddr::new(i * 64), false);
        }
        assert!(c.stats().miss_ratio() < 1.0);
    }
}
