//! The MINT window sampler (used by MoPAC-D, Section 6.1 footnote 6).
//!
//! MINT divides the activation stream into windows of `1/p` activations
//! and selects *exactly one* activation per window, chosen uniformly at
//! random at the start of the window. MoPAC-D inserts the selected row
//! into the SRQ **at the end of the window** — this closes the
//! PARA-style vulnerability where an attacker who just filled the SRQ
//! would get guaranteed-unsampled activations during the ABO window.

use mopac_types::rng::DetRng;

/// A MINT sampler for one bank (or one chip's view of a bank).
///
/// # Examples
///
/// ```
/// use mopac::mint::MintSampler;
/// use mopac_types::rng::DetRng;
///
/// let mut s = MintSampler::new(4, DetRng::from_seed(3));
/// let mut selected = 0;
/// for act in 0..400u32 {
///     if s.on_activate(act % 7).is_some() {
///         selected += 1;
///     }
/// }
/// assert_eq!(selected, 100); // exactly one selection per 4-ACT window
/// ```
#[derive(Debug, Clone)]
pub struct MintSampler {
    window: u32,
    pos: u32,
    chosen_pos: u32,
    pending: Option<u32>,
    rng: DetRng,
}

impl MintSampler {
    /// Creates a sampler with the given window length (`1/p`).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u32, mut rng: DetRng) -> Self {
        assert!(window > 0, "window must be positive");
        let chosen_pos = rng.below(u64::from(window)) as u32;
        Self {
            window,
            pos: 0,
            chosen_pos,
            pending: None,
            rng,
        }
    }

    /// The window length `1/p`.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Feeds one activation. Returns `Some(row)` when a window closes and
    /// its selected row should be inserted into the SRQ.
    pub fn on_activate(&mut self, row: u32) -> Option<u32> {
        if self.pos == self.chosen_pos {
            self.pending = Some(row);
        }
        self.pos += 1;
        if self.pos == self.window {
            self.pos = 0;
            self.chosen_pos = self.rng.below(u64::from(self.window)) as u32;
            return self.pending.take();
        }
        None
    }
}

impl mopac_types::snapshot::Snapshottable for MintSampler {
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        w.put_u32(self.pos);
        w.put_u32(self.chosen_pos);
        w.put_opt_u32(self.pending);
        self.rng.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        self.pos = r.take_u32()?;
        self.chosen_pos = r.take_u32()?;
        self.pending = r.take_opt_u32()?;
        self.rng.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_selection_per_window() {
        for window in [1u32, 2, 8, 16, 64] {
            let mut s = MintSampler::new(window, DetRng::from_seed(u64::from(window)));
            let windows = 200;
            let mut selections = 0;
            for act in 0..window * windows {
                if s.on_activate(act).is_some() {
                    selections += 1;
                }
            }
            assert_eq!(selections, windows, "window = {window}");
        }
    }

    #[test]
    fn selection_emitted_only_at_window_end() {
        let mut s = MintSampler::new(8, DetRng::from_seed(1));
        for act in 0..800u32 {
            let sel = s.on_activate(act);
            if sel.is_some() {
                // Window boundaries are at act = 7, 15, 23, ...
                assert_eq!(act % 8, 7, "selection at non-boundary act {act}");
            }
        }
    }

    #[test]
    fn uniform_position_within_window() {
        // Each position within the window should be selected roughly
        // uniformly across many windows.
        let window = 8u32;
        let mut s = MintSampler::new(window, DetRng::from_seed(11));
        let mut hits = [0u32; 8];
        let windows = 16_000u32;
        for w in 0..windows {
            for posn in 0..window {
                // Use the position as the row id so the returned value
                // identifies which slot was selected.
                if let Some(row) = s.on_activate(posn) {
                    hits[row as usize] += 1;
                }
                let _ = w;
            }
        }
        let expected = windows as f64 / 8.0;
        for (i, &h) in hits.iter().enumerate() {
            let rel = (f64::from(h) - expected).abs() / expected;
            assert!(rel < 0.08, "slot {i}: {h} vs {expected}");
        }
    }

    #[test]
    fn window_of_one_selects_everything() {
        let mut s = MintSampler::new(1, DetRng::from_seed(2));
        for act in 0..10u32 {
            assert_eq!(s.on_activate(act), Some(act));
        }
    }
}
