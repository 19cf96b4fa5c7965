//! Table 8: MoPAC-D parameters.
fn main() {
    mopac_bench::experiments::main("table8_mopac_d_params");
}
