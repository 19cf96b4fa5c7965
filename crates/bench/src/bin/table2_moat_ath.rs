//! Table 2: the MOAT ALERT threshold vs T_RH.
fn main() {
    mopac_bench::experiments::main("table2_moat_ath");
}
