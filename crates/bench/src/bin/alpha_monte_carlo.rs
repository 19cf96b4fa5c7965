//! Section 7.2: Monte-Carlo alpha.
fn main() {
    mopac_bench::experiments::main("alpha_monte_carlo");
}
