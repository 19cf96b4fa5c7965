//! Table 6: MoPAC-C's row failure probability P_e1 vs C.
fn main() {
    mopac_bench::experiments::main("table6_pe1");
}
