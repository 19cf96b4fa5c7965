//! Figure 12: MoPAC-D slowdown vs drain-on-REF rate.
fn main() {
    mopac_bench::experiments::main("fig12_drain_sensitivity");
}
