//! Table 12: SRQ insertions per 100 ACTs, uniform vs NUP.
fn main() {
    mopac_bench::experiments::main("table12_srq_insertions");
}
