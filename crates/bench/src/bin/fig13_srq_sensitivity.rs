//! Figure 13: MoPAC-D slowdown vs SRQ size.
fn main() {
    mopac_bench::experiments::main("fig13_srq_sensitivity");
}
