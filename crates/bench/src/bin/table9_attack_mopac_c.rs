//! Table 9: performance attack on MoPAC-C, model and simulation.
fn main() {
    mopac_bench::experiments::main("table9_attack_mopac_c");
}
