//! A one-word per-bank bitmask.
//!
//! The scheduler index and the DRAM device keep per-bank occupancy /
//! row-hit / open-row / alerting sets as bitmasks so classification
//! questions ("any bank with a queued hit?", "all banks closed?") are
//! single-word operations instead of per-bank loops. A sub-channel has
//! at most [`BankMask::CAPACITY`] banks (DDR5 has 32); `DramDevice::new`
//! asserts the cap.

/// A bank bitmask over one `u64` (bit `b` = bank `b`).
///
/// # Examples
///
/// ```
/// use mopac_types::bankmask::BankMask;
///
/// let mut m = BankMask::empty();
/// m.set(3);
/// m.set(40);
/// assert!(m.test(3) && m.test(40) && !m.test(4));
/// assert_eq!(m.ones().collect::<Vec<_>>(), vec![3, 40]);
/// m.clear(3);
/// assert_eq!(m.first_set(), Some(40));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BankMask(u64);

impl BankMask {
    /// Highest bank count a mask can represent.
    pub const CAPACITY: u32 = u64::BITS;

    /// The empty mask.
    #[must_use]
    pub const fn empty() -> Self {
        Self(0)
    }

    /// The mask whose word is `w`.
    #[must_use]
    pub const fn from_u64(w: u64) -> Self {
        Self(w)
    }

    /// Sets `bit`.
    #[inline]
    pub fn set(&mut self, bit: u32) {
        debug_assert!(bit < Self::CAPACITY);
        self.0 |= 1 << bit;
    }

    /// Clears `bit`.
    #[inline]
    pub fn clear(&mut self, bit: u32) {
        debug_assert!(bit < Self::CAPACITY);
        self.0 &= !(1 << bit);
    }

    /// Sets `bit` when `on`, clears it otherwise.
    #[inline]
    pub fn assign(&mut self, bit: u32, on: bool) {
        debug_assert!(bit < Self::CAPACITY);
        self.0 = (self.0 & !(1 << bit)) | (u64::from(on) << bit);
    }

    /// Whether `bit` is set.
    #[inline]
    #[must_use]
    pub fn test(&self, bit: u32) -> bool {
        debug_assert!(bit < Self::CAPACITY);
        (self.0 >> bit) & 1 == 1
    }

    /// Whether no bit is set.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Lowest set bit, if any.
    #[inline]
    #[must_use]
    pub fn first_set(&self) -> Option<u32> {
        (self.0 != 0).then(|| self.0.trailing_zeros())
    }

    /// Intersection.
    #[inline]
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Union.
    #[inline]
    #[must_use]
    pub fn or(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Set difference (`self & !other`). There is no `Not`: it would set
    /// every bit past the bank count.
    #[inline]
    #[must_use]
    pub fn and_not(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Iterates set bits in ascending order.
    #[inline]
    pub fn ones(&self) -> Ones {
        Ones(self.0)
    }
}

/// Ascending set-bit iterator for [`BankMask`].
#[derive(Debug, Clone)]
pub struct Ones(u64);

impl Iterator for Ones {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test_across_words() {
        let mut m = BankMask::empty();
        assert!(m.is_empty());
        for bit in [0u32, 1, 31, 32, 62, BankMask::CAPACITY - 1] {
            m.set(bit);
            assert!(m.test(bit), "bit {bit}");
        }
        assert_eq!(m.count(), 6);
        m.clear(32);
        assert!(!m.test(32));
        assert!(m.test(31), "neighbors survive a clear");
        m.assign(32, true);
        m.assign(31, false);
        assert!(m.test(32) && !m.test(31));
    }

    #[test]
    fn ones_iterates_ascending() {
        let mut m = BankMask::empty();
        for bit in [40u32, 0, 17, 32, 63] {
            m.set(bit);
        }
        assert_eq!(m.ones().collect::<Vec<_>>(), vec![0, 17, 32, 40, 63]);
        assert_eq!(m.first_set(), Some(0));
        assert_eq!(BankMask::empty().first_set(), None);
    }

    #[test]
    fn boolean_ops() {
        let a = BankMask::from_u64(0b1101 | 1 << 50);
        let b = BankMask::from_u64(0b0110 | 1 << 50);
        assert_eq!(a.and(b).ones().collect::<Vec<_>>(), vec![2, 50]);
        assert_eq!(a.and_not(b).ones().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(a.or(b).ones().collect::<Vec<_>>(), vec![0, 1, 2, 3, 50]);
        assert!(a.and_not(a).is_empty());
    }

    #[test]
    fn matches_u64_semantics_on_word_zero() {
        // Random set/clear sequences agree with a raw u64 reference.
        let mut reference: u64 = 0;
        let mut m = BankMask::empty();
        let mut rng = crate::rng::DetRng::from_seed(99);
        for _ in 0..1000 {
            let bit = (rng.next_u64() % 64) as u32;
            if rng.next_u64() & 1 == 0 {
                reference |= 1 << bit;
                m.set(bit);
            } else {
                reference &= !(1 << bit);
                m.clear(bit);
            }
            assert_eq!(m, BankMask::from_u64(reference));
            assert_eq!(m.is_empty(), reference == 0);
            assert_eq!(
                m.first_set(),
                (reference != 0).then(|| reference.trailing_zeros())
            );
        }
    }
}
