//! Table 1: DDR5 base vs PRAC timings.
fn main() {
    mopac_bench::experiments::main("table1_timings");
}
