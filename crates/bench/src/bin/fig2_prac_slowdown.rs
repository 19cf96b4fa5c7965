//! Figure 2: PRAC slowdown per workload at three thresholds.
fn main() {
    mopac_bench::experiments::main("fig2_prac_slowdown");
}
