//! Property tests for the foundation types.

use mopac_types::addr::PhysAddr;
use mopac_types::check::prop_check;
use mopac_types::prop_ensure;
use mopac_types::rng::DetRng;
use mopac_types::time::MemClock;

#[test]
fn line_index_round_trips() {
    prop_check("line_index_round_trips", 256, |rng| {
        let addr = rng.below(1 << 40);
        let a = PhysAddr::new(addr);
        let line = a.line_index(64);
        prop_ensure!(
            PhysAddr::from_line_index(line, 64) == a.align_down(64),
            "addr {addr:#x}"
        );
        Ok(())
    });
}

#[test]
fn align_down_is_idempotent() {
    prop_check("align_down_is_idempotent", 256, |rng| {
        let addr = rng.next_u64();
        let align = 1u32 << rng.below(12);
        let once = PhysAddr::new(addr).align_down(align);
        prop_ensure!(once.align_down(align) == once, "addr {addr:#x} align {align}");
        prop_ensure!(once.get() <= addr, "align_down grew {addr:#x}");
        Ok(())
    });
}

#[test]
fn ns_to_cycles_monotone() {
    prop_check("ns_to_cycles_monotone", 256, |rng| {
        let clk = MemClock::ddr5_6000();
        let a = rng.unit_f64() * 1e6;
        let b = rng.unit_f64() * 1e6;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_ensure!(
            clk.ns_to_cycles(lo) <= clk.ns_to_cycles(hi),
            "monotonicity broke at {lo} vs {hi}"
        );
        Ok(())
    });
}

#[test]
fn cycles_cover_duration() {
    prop_check("cycles_cover_duration", 256, |rng| {
        // The ceiling conversion must never under-provision time.
        let clk = MemClock::ddr5_6000();
        let ns = rng.unit_f64() * 1e6;
        let cycles = clk.ns_to_cycles(ns);
        prop_ensure!(
            clk.cycles_to_ns(cycles) + 1e-6 >= ns,
            "{cycles} cycles under-provision {ns}ns"
        );
        Ok(())
    });
}

#[test]
fn rng_forks_are_reproducible() {
    prop_check("rng_forks_are_reproducible", 128, |rng| {
        let seed = rng.next_u64();
        let stream = rng.next_u64();
        let mut a = DetRng::from_seed(seed).fork(stream);
        let mut b = DetRng::from_seed(seed).fork(stream);
        for _ in 0..16 {
            prop_ensure!(
                a.next_u64() == b.next_u64(),
                "fork({stream}) of seed {seed:#x} diverged"
            );
        }
        Ok(())
    });
}

#[test]
fn bernoulli_extremes() {
    prop_check("bernoulli_extremes", 128, |rng| {
        let mut r = DetRng::from_seed(rng.next_u64());
        prop_ensure!(!r.bernoulli(0.0), "p=0 returned true");
        prop_ensure!(r.bernoulli(1.0), "p=1 returned false");
        Ok(())
    });
}
