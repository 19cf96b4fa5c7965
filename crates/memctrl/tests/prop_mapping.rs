//! Property tests for address mapping: decode/encode must be a bijection
//! over the device's address space for every policy.

use mopac_memctrl::mapping::{AddressMapper, Mapping};
use mopac_types::addr::PhysAddr;
use mopac_types::check::prop_check;
use mopac_types::geometry::DramGeometry;
use mopac_types::prop_ensure;

fn mappings() -> Vec<Mapping> {
    vec![
        Mapping::Mop { lines_per_group: 1 },
        Mapping::Mop { lines_per_group: 4 },
        Mapping::Mop { lines_per_group: 16 },
        Mapping::RowInterleaved,
    ]
}

#[test]
fn decode_encode_round_trip() {
    prop_check("decode_encode_round_trip", 256, |rng| {
        let line = rng.below((32u64 << 30) / 64);
        let geom = DramGeometry::ddr5_32gb();
        for mapping in mappings() {
            let m = AddressMapper::new(geom, mapping);
            let addr = PhysAddr::from_line_index(line, 64);
            let d = m.decode(addr);
            prop_ensure!(d.row < geom.rows_per_bank, "row out of range: {:?}", mapping);
            prop_ensure!(d.col < geom.lines_per_row(), "col out of range: {:?}", mapping);
            prop_ensure!(d.bank.subchannel < geom.subchannels, "subch out of range");
            prop_ensure!(d.bank.bank < geom.banks_per_subchannel, "bank out of range");
            prop_ensure!(
                m.encode(d) == addr,
                "round trip failed for line {line} under {:?}",
                mapping
            );
        }
        Ok(())
    });
}

/// Draws a random power-of-two topology, including the channel
/// dimension (1..=8 channels).
fn random_geometry(rng: &mut mopac_types::rng::DetRng) -> DramGeometry {
    DramGeometry {
        channels: 1 << rng.below(4),
        subchannels: 1 << rng.below(2),
        banks_per_subchannel: 1 << (1 + rng.below(5)),
        rows_per_bank: 1 << (7 + rng.below(6)),
        subarrays_per_bank: 1 << rng.below(4),
        row_bytes: 1 << (9 + rng.below(3)),
        line_bytes: 64,
    }
}

#[test]
fn decode_encode_round_trip_on_random_topologies() {
    prop_check("decode_encode_round_trip_on_random_topologies", 512, |rng| {
        let geom = random_geometry(rng);
        let line = rng.below(geom.total_lines());
        for mapping in mappings() {
            if let Mapping::Mop { lines_per_group } = mapping {
                if lines_per_group > geom.lines_per_row() {
                    continue;
                }
            }
            let m = AddressMapper::new(geom, mapping);
            let addr = PhysAddr::from_line_index(line, geom.line_bytes);
            let d = m.decode(addr);
            prop_ensure!(d.bank.channel < geom.channels, "channel out of range: {geom:?}");
            prop_ensure!(
                d.bank.bank < geom.banks_per_subchannel,
                "bank out of range: {geom:?}"
            );
            prop_ensure!(d.row < geom.rows_per_bank, "row out of range: {geom:?}");
            prop_ensure!(
                m.encode(d) == addr,
                "round trip failed for line {line} under {:?} on {geom:?}",
                mapping
            );
        }
        Ok(())
    });
}

#[test]
fn single_channel_decode_matches_multi_channel_view() {
    // At one channel the channel division is the identity, so the decode of any line on an N-channel geometry,
    // restricted to channel 0's lines, must agree with the per-channel
    // view used by the device layer.
    prop_check("single_channel_decode_matches_multi_channel_view", 256, |rng| {
        let mut geom = random_geometry(rng);
        geom.channels = 1;
        let view = geom.channel_view();
        let m_full = AddressMapper::new(geom, Mapping::paper_default());
        let m_view = AddressMapper::new(view, Mapping::paper_default());
        let line = rng.below(geom.total_lines());
        let addr = PhysAddr::from_line_index(line, geom.line_bytes);
        let a = m_full.decode(addr);
        let b = m_view.decode(addr);
        prop_ensure!(a == b, "channel_view decode diverged at line {line}: {a:?} vs {b:?}");
        Ok(())
    });
}

#[test]
fn distinct_lines_map_to_distinct_coordinates() {
    prop_check("distinct_lines_map_to_distinct_coordinates", 256, |rng| {
        let a = rng.below(1 << 29);
        let b = rng.below(1 << 29);
        if a == b {
            return Ok(());
        }
        let geom = DramGeometry::ddr5_32gb();
        let m = AddressMapper::new(geom, Mapping::paper_default());
        let da = m.decode(PhysAddr::from_line_index(a, 64));
        let db = m.decode(PhysAddr::from_line_index(b, 64));
        prop_ensure!(
            (da.bank, da.row, da.col) != (db.bank, db.row, db.col),
            "lines {a} and {b} collided"
        );
        Ok(())
    });
}
