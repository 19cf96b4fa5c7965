//! Table 4: workload characteristics, measured vs paper.
fn main() {
    mopac_bench::experiments::main("table4_workloads");
}
