//! DRAM organization: channels, sub-channels, banks, rows.
//!
//! The paper's baseline (Table 3) is a 32 GB DDR5 system with one
//! channel, one rank, two sub-channels, 32 banks per sub-channel, 64K
//! rows per bank and 8 KB rows. ABO (ALERT-back-off) is sub-channel
//! scoped: an ALERT from any bank stalls all 32 banks of its
//! sub-channel.
//!
//! The topology generalizes along one axis: **channels** are
//! architecturally independent DDR5 channels; each gets its own memory
//! controller and device instance ([`DramGeometry::channel_view`]),
//! ticked serially in channel order. The model has one rank per
//! channel, as the paper does.

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
    /// Number of sub-channels per channel (ABO scope). DDR5 DIMMs have
    /// two.
    pub subchannels: u32,
    /// Banks per sub-channel (32 for DDR5: 8 bank groups x 4
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
    /// The paper's Table 3 configuration: 32 GB, 1 channel,
    /// 2 sub-channels x 32 banks, 64K rows per bank, 8 KB rows, 64 B
    /// lines.
    #[must_use]
    pub fn ddr5_32gb() -> Self {
        Self {
            channels: 1,
            subchannels: 2,
            banks_per_subchannel: 32,
            rows_per_bank: 64 * 1024,
            subarrays_per_bank: 1,
            row_bytes: 8 * 1024,
            line_bytes: 64,
        }
    }

    /// A tiny geometry for fast unit tests (1 channel,
    /// 2 sub-channels x 4 banks, 1K rows).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            channels: 1,
            subchannels: 2,
            banks_per_subchannel: 4,
            rows_per_bank: 1024,
            subarrays_per_bank: 1,
            row_bytes: 8 * 1024,
            line_bytes: 64,
        }
    }

    /// Total number of banks across all channels and sub-channels.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.subchannels * self.banks_per_subchannel
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

    /// The geometry one channel's device/controller pair simulates: the
    /// same topology with a single channel. At 1 channel this is the
    /// identity.
    #[must_use]
    pub fn channel_view(&self) -> Self {
        Self { channels: 1, ..*self }
    }

    /// Converts a (sub-channel, bank) pair to a flat bank index within
    /// one channel, in `0..subchannels * banks_per_subchannel`.
    #[must_use]
    pub fn flat_bank(&self, subch: u32, bank: u32) -> u32 {
        debug_assert!(subch < self.subchannels && bank < self.banks_per_subchannel);
        subch * self.banks_per_subchannel + bank
    }

    /// Inverse of [`Self::flat_bank`], extended across channels: `flat`
    /// indexes `0..total_banks()` with channel as the outermost
    /// dimension.
    #[must_use]
    pub fn split_bank(&self, flat: u32) -> BankRef {
        debug_assert!(flat < self.total_banks());
        let per_sub = self.banks_per_subchannel;
        let per_channel = self.subchannels * per_sub;
        BankRef {
            channel: flat / per_channel,
            subchannel: (flat % per_channel) / per_sub,
            bank: flat % per_sub,
        }
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::ddr5_32gb()
    }
}

/// Identifies one bank: its channel, its sub-channel, and its index
/// within the sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankRef {
    /// Channel index.
    pub channel: u32,
    /// Sub-channel index within the channel.
    pub subchannel: u32,
    /// Bank index within the sub-channel.
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
        }
    }

    #[test]
    fn flat_bank_round_trip_multi_channel() {
        let g = DramGeometry {
            channels: 4,
            ..DramGeometry::tiny()
        };
        assert_eq!(g.total_banks(), 4 * 2 * 4);
        for flat in 0..g.total_banks() {
            let r = g.split_bank(flat);
            let per_channel = g.subchannels * g.banks_per_subchannel;
            assert_eq!(r.channel * per_channel + g.flat_bank(r.subchannel, r.bank), flat);
            assert!(r.channel < g.channels);
            assert!(r.bank < g.banks_per_subchannel);
        }
    }

    #[test]
    fn channel_view_is_one_channel_and_preserves_identity() {
        let base = DramGeometry::tiny();
        assert_eq!(base.channel_view(), base, "1-channel view is the identity");
        let g = DramGeometry {
            channels: 2,
            ..base
        };
        let view = g.channel_view();
        assert_eq!(view.channels, 1);
        assert_eq!(view.banks_per_subchannel, base.banks_per_subchannel);
        assert_eq!(view.total_banks() * g.channels, g.total_banks());
    }

    #[test]
    fn bank_ref_display() {
        assert_eq!(BankRef::new(1, 7).to_string(), "sc1.b7");
        assert_eq!(BankRef::on_channel(2, 1, 7).to_string(), "ch2.sc1.b7");
        assert_eq!(BankRef::on_channel(0, 1, 7).to_string(), "sc1.b7");
    }
}
