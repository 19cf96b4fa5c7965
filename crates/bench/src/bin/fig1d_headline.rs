//! Figure 1(d): mean slowdown of PRAC vs MoPAC as T_RH scales.
fn main() {
    mopac_bench::experiments::main("fig1d_headline");
}
