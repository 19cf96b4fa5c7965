//! Runs every paper table and figure in one process; see
//! `mopac_bench::experiments` and the README's "Reproducing the paper".
fn main() {
    mopac_bench::experiments::main("run_all");
}
