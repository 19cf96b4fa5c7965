//! Table 7: MoPAC-C parameters.
fn main() {
    mopac_bench::experiments::main("table7_mopac_c_params");
}
