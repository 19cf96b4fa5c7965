//! Figure 11: per-workload slowdown of PRAC vs MoPAC-D.
fn main() {
    mopac_bench::experiments::main("fig11_mopac_d");
}
