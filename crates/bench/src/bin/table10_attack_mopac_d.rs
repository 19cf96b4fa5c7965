//! Table 10: the three performance attacks on MoPAC-D.
fn main() {
    mopac_bench::experiments::main("table10_attack_mopac_d");
}
