//! Table 13: tolerated T_RH of MoPAC-D, MINT and PrIDE.
fn main() {
    mopac_bench::experiments::main("table13_related");
}
