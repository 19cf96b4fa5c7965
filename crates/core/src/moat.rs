//! The MOAT single-entry tracker (Section 2.6).
//!
//! MOAT keeps, per bank, the single row with the highest PRAC counter
//! value observed since the last mitigation. When that count reaches the
//! ALERT threshold (`ATH`, or MoPAC's revised `ATH*`), the bank asserts
//! ALERT; on the subsequent ABO the tracked row is mitigated if its count
//! reached the eligibility threshold `ETH = ATH/2`.

/// Per-bank MOAT tracker state.
///
/// # Examples
///
/// ```
/// use mopac::moat::MoatTracker;
///
/// let mut t = MoatTracker::new(100, 50);
/// t.observe(7, 60);
/// assert!(!t.alert_needed());
/// t.observe(9, 120);
/// assert!(t.alert_needed());
/// assert_eq!(t.take_mitigation_candidate(), Some(9));
/// assert!(!t.alert_needed());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoatTracker {
    ath: u32,
    eth: u32,
    tracked: Option<(u32, u32)>, // (row, count)
}

impl MoatTracker {
    /// Creates a tracker with alert threshold `ath` and eligibility
    /// threshold `eth`.
    ///
    /// # Panics
    ///
    /// Panics if `eth > ath` or `ath == 0`.
    #[must_use]
    pub fn new(ath: u32, eth: u32) -> Self {
        assert!(ath > 0, "ATH must be positive");
        assert!(eth <= ath, "ETH {eth} must not exceed ATH {ath}");
        Self {
            ath,
            eth,
            tracked: None,
        }
    }

    /// The ALERT threshold.
    #[must_use]
    pub fn ath(&self) -> u32 {
        self.ath
    }

    /// The eligibility threshold.
    #[must_use]
    pub fn eth(&self) -> u32 {
        self.eth
    }

    /// Reports a row's freshly updated PRAC counter value. The row
    /// replaces the tracked entry if its count is higher.
    pub fn observe(&mut self, row: u32, count: u32) {
        match self.tracked {
            Some((tr, tc)) if tr == row || count > tc => self.tracked = Some((row, count)),
            None => self.tracked = Some((row, count)),
            _ => {}
        }
    }

    /// Whether the tracked row has reached `ATH` and the bank must
    /// assert ALERT.
    #[must_use]
    pub fn alert_needed(&self) -> bool {
        self.tracked.is_some_and(|(_, c)| c >= self.ath)
    }

    /// The tracked row and count, if any.
    #[must_use]
    pub fn tracked(&self) -> Option<(u32, u32)> {
        self.tracked
    }

    /// On ABO: returns the tracked row for mitigation if it reached
    /// `ETH`, invalidating the tracker either way (the process restarts
    /// after every ABO the bank participates in).
    pub fn take_mitigation_candidate(&mut self) -> Option<u32> {
        let candidate = self
            .tracked
            .filter(|&(_, c)| c >= self.eth)
            .map(|(r, _)| r);
        if candidate.is_some() {
            self.tracked = None;
        }
        candidate
    }

    /// Forgets the tracked row if it is `row` (e.g. that row was just
    /// mitigated or refreshed through another path).
    pub fn invalidate_row(&mut self, row: u32) {
        if self.tracked.is_some_and(|(r, _)| r == row) {
            self.tracked = None;
        }
    }
}

impl mopac_types::snapshot::Snapshottable for MoatTracker {
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        match self.tracked {
            Some((row, count)) => {
                w.put_bool(true);
                w.put_u32(row);
                w.put_u32(count);
            }
            None => w.put_bool(false),
        }
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        self.tracked = if r.take_bool()? {
            Some((r.take_u32()?, r.take_u32()?))
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_highest_count() {
        let mut t = MoatTracker::new(100, 50);
        t.observe(1, 10);
        t.observe(2, 5);
        assert_eq!(t.tracked(), Some((1, 10)));
        t.observe(2, 30);
        assert_eq!(t.tracked(), Some((2, 30)));
    }

    #[test]
    fn same_row_updates_even_if_lower() {
        // A mitigated-and-re-hammered row must refresh its own entry.
        let mut t = MoatTracker::new(100, 50);
        t.observe(1, 40);
        t.observe(1, 41);
        assert_eq!(t.tracked(), Some((1, 41)));
    }

    #[test]
    fn eligibility_gates_mitigation() {
        let mut t = MoatTracker::new(100, 50);
        t.observe(3, 49);
        assert_eq!(t.take_mitigation_candidate(), None);
        // Not eligible: entry retained for the next ABO.
        assert_eq!(t.tracked(), Some((3, 49)));
        t.observe(3, 50);
        assert_eq!(t.take_mitigation_candidate(), Some(3));
        assert_eq!(t.tracked(), None);
    }

    #[test]
    fn invalidate_row_only_if_tracked() {
        let mut t = MoatTracker::new(100, 50);
        t.observe(3, 60);
        t.invalidate_row(4);
        assert_eq!(t.tracked(), Some((3, 60)));
        t.invalidate_row(3);
        assert_eq!(t.tracked(), None);
    }

    #[test]
    #[should_panic(expected = "ETH")]
    fn rejects_eth_above_ath() {
        let _ = MoatTracker::new(10, 11);
    }
}
