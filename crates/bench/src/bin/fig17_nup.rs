//! Figure 17 (and the artifact's Fig 15): MoPAC-D with and without
//! non-uniform probability at T_RH = 1000 / 500 / 250.

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut configs = Vec::new();
    for t in [1000u64, 500, 250] {
        configs.push((format!("uniform@{t}"), MitigationConfig::mopac_d(t)));
        configs.push((format!("NUP@{t}"), MitigationConfig::mopac_d_nup(t)));
    }
    slowdown_matrix(
        "fig17",
        "MoPAC-D uniform vs NUP (paper Fig 17; means uniform 0.1/0.8/3.5%, \
         NUP 0/0/1.1%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
