//! Physical-address-to-DRAM mapping policies.
//!
//! The paper uses *Minimalist Open Page* (MOP, Kaseridis et al.) with 4
//! lines per row group: four consecutive cache lines map to the same row,
//! then the stream rotates across sub-channels and banks, and only then
//! returns to a different column group of the same row. MOP preserves
//! enough spatial locality for prefetch-friendly row hits while spreading
//! bank pressure.

use mopac_types::addr::{DecodedAddr, PhysAddr};
use mopac_types::geometry::{BankRef, DramGeometry};

/// An address-mapping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// Minimalist Open Page with `lines_per_group` consecutive lines per
    /// row group (4 in the paper).
    Mop {
        /// Consecutive cache lines mapped to the same row before
        /// rotating to the next sub-channel/bank.
        lines_per_group: u32,
    },
    /// Full row interleaving: an entire row's worth of consecutive lines
    /// before switching banks (maximizes row-buffer hits).
    RowInterleaved,
}

impl Mapping {
    /// The paper's configuration: MOP with 4 lines per group.
    #[must_use]
    pub fn paper_default() -> Self {
        Mapping::Mop { lines_per_group: 4 }
    }
}

/// Maps physical addresses to DRAM coordinates for a fixed geometry.
///
/// # Examples
///
/// ```
/// use mopac_memctrl::mapping::{AddressMapper, Mapping};
/// use mopac_types::geometry::DramGeometry;
/// use mopac_types::addr::PhysAddr;
///
/// let m = AddressMapper::new(DramGeometry::ddr5_32gb(), Mapping::paper_default());
/// let a = m.decode(PhysAddr::new(0));
/// let b = m.decode(PhysAddr::new(64));
/// // Consecutive lines stay in the same row (MOP group of 4).
/// assert_eq!((a.bank, a.row), (b.bank, b.row));
/// assert_ne!(a.col, b.col);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AddressMapper {
    geom: DramGeometry,
    mapping: Mapping,
}

impl AddressMapper {
    /// Creates a mapper.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's line/row/bank counts are not powers of
    /// two, or MOP's `lines_per_group` is not a power of two dividing
    /// the lines per row.
    #[must_use]
    pub fn new(geom: DramGeometry, mapping: Mapping) -> Self {
        assert!(geom.lines_per_row().is_power_of_two());
        assert!(geom.banks_per_subchannel.is_power_of_two());
        assert!(geom.subchannels.is_power_of_two());
        assert!(geom.rows_per_bank.is_power_of_two());
        assert!(geom.channels.is_power_of_two());
        if let Mapping::Mop { lines_per_group } = mapping {
            assert!(
                lines_per_group.is_power_of_two() && lines_per_group <= geom.lines_per_row(),
                "invalid MOP group size {lines_per_group}"
            );
        }
        Self { geom, mapping }
    }

    /// The geometry this mapper serves.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geom
    }

    /// Decodes a physical address.
    #[must_use]
    pub fn decode(&self, addr: PhysAddr) -> DecodedAddr {
        let line = addr.line_index(self.geom.line_bytes) % self.geom.total_lines();
        match self.mapping {
            Mapping::Mop { lines_per_group } => self.decode_mop(line, lines_per_group),
            Mapping::RowInterleaved => self.decode_row_interleaved(line),
        }
    }

    /// Re-encodes DRAM coordinates back to a canonical physical address
    /// (inverse of [`Self::decode`]).
    #[must_use]
    pub fn encode(&self, d: DecodedAddr) -> PhysAddr {
        let line = match self.mapping {
            Mapping::Mop { lines_per_group } => self.encode_mop(d, lines_per_group),
            Mapping::RowInterleaved => self.encode_row_interleaved(d),
        };
        PhysAddr::from_line_index(line, self.geom.line_bytes)
    }

    fn decode_mop(&self, line: u64, group: u32) -> DecodedAddr {
        let g = &self.geom;
        let group = u64::from(group);
        // Channel rotates right after sub-channel so consecutive groups
        // stripe across channels before returning to the same bank. The
        // channel division is the identity at one channel, so
        // single-channel decode is bit-identical to the pre-topology
        // mapping.
        let banks = u64::from(g.banks_per_subchannel);
        let col_lo = line % group;
        let rest = line / group;
        let subch = rest % u64::from(g.subchannels);
        let rest = rest / u64::from(g.subchannels);
        let channel = rest % u64::from(g.channels);
        let rest = rest / u64::from(g.channels);
        let bank = rest % banks;
        let rest = rest / banks;
        let groups_per_row = u64::from(g.lines_per_row()) / group;
        let col_hi = rest % groups_per_row;
        let row = rest / groups_per_row;
        DecodedAddr {
            bank: BankRef::on_channel(channel as u32, subch as u32, bank as u32),
            row: (row % u64::from(g.rows_per_bank)) as u32,
            col: (col_hi * group + col_lo) as u32,
        }
    }

    fn encode_mop(&self, d: DecodedAddr, group: u32) -> u64 {
        let g = &self.geom;
        let group = u64::from(group);
        let col = u64::from(d.col);
        let col_lo = col % group;
        let col_hi = col / group;
        let groups_per_row = u64::from(g.lines_per_row()) / group;
        let mut rest = u64::from(d.row) * groups_per_row + col_hi;
        rest = rest * u64::from(g.banks_per_subchannel) + u64::from(d.bank.bank);
        rest = rest * u64::from(g.channels) + u64::from(d.bank.channel);
        rest = rest * u64::from(g.subchannels) + u64::from(d.bank.subchannel);
        rest * group + col_lo
    }

    fn decode_row_interleaved(&self, line: u64) -> DecodedAddr {
        let g = &self.geom;
        let banks = u64::from(g.banks_per_subchannel);
        let col = line % u64::from(g.lines_per_row());
        let rest = line / u64::from(g.lines_per_row());
        let subch = rest % u64::from(g.subchannels);
        let rest = rest / u64::from(g.subchannels);
        let channel = rest % u64::from(g.channels);
        let rest = rest / u64::from(g.channels);
        let bank = rest % banks;
        let row = rest / banks;
        DecodedAddr {
            bank: BankRef::on_channel(channel as u32, subch as u32, bank as u32),
            row: (row % u64::from(g.rows_per_bank)) as u32,
            col: col as u32,
        }
    }

    fn encode_row_interleaved(&self, d: DecodedAddr) -> u64 {
        let g = &self.geom;
        let mut rest = u64::from(d.row);
        rest = rest * u64::from(g.banks_per_subchannel) + u64::from(d.bank.bank);
        rest = rest * u64::from(g.channels) + u64::from(d.bank.channel);
        rest = rest * u64::from(g.subchannels) + u64::from(d.bank.subchannel);
        rest * u64::from(g.lines_per_row()) + u64::from(d.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mop_groups_of_four_share_a_row() {
        let m = AddressMapper::new(DramGeometry::ddr5_32gb(), Mapping::paper_default());
        let base = m.decode(PhysAddr::new(0));
        for i in 1..4u64 {
            let d = m.decode(PhysAddr::new(i * 64));
            assert_eq!((d.bank, d.row), (base.bank, base.row), "line {i}");
        }
        // The 5th line rotates to another sub-channel or bank.
        let d4 = m.decode(PhysAddr::new(4 * 64));
        assert_ne!(d4.bank, base.bank);
    }

    #[test]
    fn mop_streams_touch_all_banks() {
        let geom = DramGeometry::ddr5_32gb();
        let m = AddressMapper::new(geom, Mapping::paper_default());
        let mut seen = std::collections::HashSet::new();
        for i in 0..(4 * 64 * 2) {
            let d = m.decode(PhysAddr::new(i * 64));
            seen.insert(d.bank);
        }
        assert_eq!(seen.len(), geom.total_banks() as usize);
    }

    #[test]
    fn mop_round_trip() {
        let m = AddressMapper::new(DramGeometry::ddr5_32gb(), Mapping::paper_default());
        for addr in [0u64, 64, 4096, 1 << 20, (1 << 34) + 8 * 64] {
            let a = PhysAddr::new(addr).align_down(64);
            assert_eq!(m.encode(m.decode(a)), a, "addr {addr:#x}");
        }
    }

    #[test]
    fn row_interleaved_round_trip() {
        let m = AddressMapper::new(DramGeometry::tiny(), Mapping::RowInterleaved);
        for addr in [0u64, 64, 8192, 123 * 64] {
            let a = PhysAddr::new(addr);
            assert_eq!(m.encode(m.decode(a)), a.align_down(64));
        }
    }

    #[test]
    fn row_interleaved_keeps_full_row_together() {
        let geom = DramGeometry::ddr5_32gb();
        let m = AddressMapper::new(geom, Mapping::RowInterleaved);
        let base = m.decode(PhysAddr::new(0));
        for i in 1..u64::from(geom.lines_per_row()) {
            let d = m.decode(PhysAddr::new(i * 64));
            assert_eq!((d.bank, d.row), (base.bank, base.row));
        }
    }
}
