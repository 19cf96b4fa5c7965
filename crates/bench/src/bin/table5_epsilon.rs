//! Table 5: failure budget F and per-side epsilon.
fn main() {
    mopac_bench::experiments::main("table5_epsilon");
}
