//! Figure 17: MoPAC-D with and without non-uniform probability.
fn main() {
    mopac_bench::experiments::main("fig17_nup");
}
