//! Table 14: Row-Press-hardened ATH*.
fn main() {
    mopac_bench::experiments::main("table14_rowpress_params");
}
