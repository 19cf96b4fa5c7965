//! Figure 18: Row-Press-hardened MoPAC slowdowns.
fn main() {
    mopac_bench::experiments::main("fig18_rowpress");
}
