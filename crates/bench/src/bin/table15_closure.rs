//! Table 15: PRAC and MoPAC-D under row-closure policies.
fn main() {
    mopac_bench::experiments::main("table15_closure");
}
