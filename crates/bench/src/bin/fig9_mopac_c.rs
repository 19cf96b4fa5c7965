//! Figure 9: per-workload slowdown of PRAC vs MoPAC-C.
fn main() {
    mopac_bench::experiments::main("fig9_mopac_c");
}
