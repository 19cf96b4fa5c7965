//! DRAM organization: channels, ranks, sub-channels, banks, rows.
//!
//! The paper's baseline (Table 3) is a 32 GB DDR5 system with one
//! channel, one rank, two sub-channels, 32 banks per sub-channel, 64K
//! rows per bank and 8 KB rows. ABO (ALERT-back-off) is sub-channel
//! scoped: an ALERT from any bank stalls all 32 banks of its
//! sub-channel.
//!
//! The topology generalizes along two axes:
//!
//! * **Channels** are architecturally independent DDR5 channels; each
//!   gets its own memory controller and device instance, ticked
//!   serially in channel order.
//! * **Ranks** share a channel's command bus. Inside the per-channel
//!   device/controller pair, ranks are flattened into the bank
//!   dimension ([`DramGeometry::channel_view`]): a sub-channel with
//!   `ranks * banks_per_subchannel` schedulable banks. The address
//!   mapping still treats rank as its own interleaving dimension.

/// Static description of the simulated DRAM organization.
///
/// # Examples
///
/// ```
/// use mopac_types::geometry::DramGeometry;
///
/// let geom = DramGeometry::ddr5_32gb();
/// assert_eq!(geom.total_banks(), 64);
/// assert_eq!(geom.capacity_bytes(), 32 * 1024 * 1024 * 1024);
/// assert_eq!(geom.lines_per_row(), 128);
///
/// let four = DramGeometry { channels: 4, ..geom };
/// assert_eq!(four.total_banks(), 256);
/// assert_eq!(four.capacity_bytes(), 128 * 1024 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Independent DDR5 channels (1 in the paper's Table 3 system).
    pub channels: u32,
    /// Ranks per channel (1 in the paper). Ranks fold into the bank
    /// dimension inside a channel ([`Self::channel_view`]).
    pub ranks: u32,
    /// Number of sub-channels per channel (ABO scope). DDR5 DIMMs have
    /// two.
    pub subchannels: u32,
    /// Banks per sub-channel per rank (32 for DDR5: 8 bank groups x 4
    /// banks).
    pub banks_per_subchannel: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Subarrays per bank (power of two dividing `rows_per_bank`).
    /// Real DDR5 banks are built from row-buffer-local subarray mats;
    /// modelling them lets PRAC-family engines overlap counter updates
    /// across subarrays (PRACtical). `1` collapses to the historical
    /// flat-bank model and is byte-identical to it in every snapshot
    /// and statistic.
    pub subarrays_per_bank: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Cache-line / memory-transaction size in bytes.
    pub line_bytes: u32,
}

impl DramGeometry {
    /// The paper's Table 3 configuration: 32 GB, 1 channel x 1 rank,
    /// 2 sub-channels x 32 banks, 64K rows per bank, 8 KB rows, 64 B
    /// lines.
    #[must_use]
    pub fn ddr5_32gb() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            subchannels: 2,
            banks_per_subchannel: 32,
            rows_per_bank: 64 * 1024,
            subarrays_per_bank: 1,
            row_bytes: 8 * 1024,
            line_bytes: 64,
        }
    }

    /// A tiny geometry for fast unit tests (1 channel, 1 rank,
    /// 2 sub-channels x 4 banks, 1K rows).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            subchannels: 2,
            banks_per_subchannel: 4,
            rows_per_bank: 1024,
            subarrays_per_bank: 1,
            row_bytes: 8 * 1024,
            line_bytes: 64,
        }
    }

    /// Schedulable banks per sub-channel once ranks are folded in
    /// (`ranks * banks_per_subchannel`).
    #[must_use]
    pub fn banks_per_subchannel_flat(&self) -> u32 {
        self.ranks * self.banks_per_subchannel
    }

    /// Total number of banks across all channels, ranks and
    /// sub-channels.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.subchannels * self.banks_per_subchannel_flat()
    }

    /// Total addressable capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks()) * u64::from(self.rows_per_bank) * u64::from(self.row_bytes)
    }

    /// Number of cache lines per row.
    #[must_use]
    pub fn lines_per_row(&self) -> u32 {
        self.row_bytes / self.line_bytes
    }

    /// Rows per subarray (`rows_per_bank / subarrays_per_bank`).
    #[must_use]
    pub fn rows_per_subarray(&self) -> u32 {
        debug_assert!(self.subarrays_per_bank.is_power_of_two());
        (self.rows_per_bank / self.subarrays_per_bank).max(1)
    }

    /// The subarray a row lives in, in `0..subarrays_per_bank`.
    #[must_use]
    pub fn subarray_of(&self, row: u32) -> u32 {
        (row / self.rows_per_subarray()).min(self.subarrays_per_bank.saturating_sub(1))
    }

    /// Total number of cache lines in the system.
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        self.capacity_bytes() / u64::from(self.line_bytes)
    }

    /// The geometry one channel's device/controller pair simulates:
    /// a single channel whose sub-channels carry the rank-folded bank
    /// count. At 1 channel x 1 rank this is the identity, which is what
    /// keeps the generalized topology bit-identical to the historical
    /// single-instance layout.
    #[must_use]
    pub fn channel_view(&self) -> Self {
        Self {
            channels: 1,
            ranks: 1,
            banks_per_subchannel: self.banks_per_subchannel_flat(),
            ..*self
        }
    }

    /// Converts a (sub-channel, rank-folded bank) pair to a flat bank
    /// index within one channel, in `0..subchannels * ranks *
    /// banks_per_subchannel`.
    #[must_use]
    pub fn flat_bank(&self, subch: u32, bank: u32) -> u32 {
        debug_assert!(subch < self.subchannels && bank < self.banks_per_subchannel_flat());
        subch * self.banks_per_subchannel_flat() + bank
    }

    /// Inverse of [`Self::flat_bank`], extended across channels: `flat`
    /// indexes `0..total_banks()` with channel as the outermost
    /// dimension.
    #[must_use]
    pub fn split_bank(&self, flat: u32) -> BankRef {
        debug_assert!(flat < self.total_banks());
        let per_sub = self.banks_per_subchannel_flat();
        let per_channel = self.subchannels * per_sub;
        BankRef {
            channel: flat / per_channel,
            subchannel: (flat % per_channel) / per_sub,
            bank: flat % per_sub,
        }
    }

    /// A bank's flat index in `0..total_banks()` with channel as the
    /// outermost dimension (inverse of [`Self::split_bank`]).
    #[must_use]
    pub fn flat_bank_global(&self, r: BankRef) -> u32 {
        debug_assert!(r.channel < self.channels);
        r.channel * self.subchannels * self.banks_per_subchannel_flat()
            + self.flat_bank(r.subchannel, r.bank)
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::ddr5_32gb()
    }
}

/// Identifies one bank: its channel, its sub-channel, and its
/// (rank-folded) index within the sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankRef {
    /// Channel index.
    pub channel: u32,
    /// Sub-channel index within the channel.
    pub subchannel: u32,
    /// Bank index within the sub-channel (ranks folded in:
    /// `rank * banks_per_subchannel + bank_in_rank`).
    pub bank: u32,
}

impl BankRef {
    /// Creates a channel-0 bank reference (the historical constructor;
    /// every pre-topology call site is a single-channel context).
    #[must_use]
    pub fn new(subchannel: u32, bank: u32) -> Self {
        Self {
            channel: 0,
            subchannel,
            bank,
        }
    }

    /// Creates a bank reference on an explicit channel.
    #[must_use]
    pub fn on_channel(channel: u32, subchannel: u32, bank: u32) -> Self {
        Self {
            channel,
            subchannel,
            bank,
        }
    }
}

impl std::fmt::Display for BankRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.channel != 0 {
            write!(f, "ch{}.", self.channel)?;
        }
        write!(f, "sc{}.b{}", self.subchannel, self.bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_geometry() {
        let g = DramGeometry::ddr5_32gb();
        assert_eq!(g.total_banks(), 64);
        assert_eq!(g.capacity_bytes(), 32 << 30);
        assert_eq!(g.lines_per_row(), 128);
        assert_eq!(g.total_lines(), (32u64 << 30) / 64);
    }

    #[test]
    fn flat_bank_round_trip() {
        let g = DramGeometry::ddr5_32gb();
        for flat in 0..g.total_banks() {
            let r = g.split_bank(flat);
            assert_eq!(g.flat_bank(r.subchannel, r.bank), flat);
            assert_eq!(g.flat_bank_global(r), flat);
        }
    }

    #[test]
    fn flat_bank_round_trip_multi_channel() {
        let g = DramGeometry {
            channels: 4,
            ranks: 2,
            ..DramGeometry::tiny()
        };
        assert_eq!(g.total_banks(), 4 * 2 * 2 * 4);
        for flat in 0..g.total_banks() {
            let r = g.split_bank(flat);
            assert_eq!(g.flat_bank_global(r), flat);
            assert!(r.channel < g.channels);
            assert!(r.bank < g.banks_per_subchannel_flat());
        }
    }

    #[test]
    fn channel_view_folds_ranks_and_preserves_identity() {
        let base = DramGeometry::tiny();
        assert_eq!(base.channel_view(), base, "1x1 view is the identity");
        let g = DramGeometry {
            channels: 2,
            ranks: 2,
            ..base
        };
        let view = g.channel_view();
        assert_eq!(view.channels, 1);
        assert_eq!(view.ranks, 1);
        assert_eq!(view.banks_per_subchannel, 8);
        assert_eq!(view.total_banks() * g.channels, g.total_banks());
    }

    #[test]
    fn bank_ref_display() {
        assert_eq!(BankRef::new(1, 7).to_string(), "sc1.b7");
        assert_eq!(BankRef::on_channel(2, 1, 7).to_string(), "ch2.sc1.b7");
        assert_eq!(BankRef::on_channel(0, 1, 7).to_string(), "sc1.b7");
    }
}
