//! Table 11: MoPAC-D ATH* with uniform vs non-uniform probability.
fn main() {
    mopac_bench::experiments::main("table11_nup_params");
}
