//! Figure 9: per-workload slowdown of PRAC vs MoPAC-C at
//! T_RH = 1000 / 500 / 250 (paper means: PRAC 10%; MoPAC-C 0.7-0.8%,
//! 1.8%, 3.0%).

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let configs = vec![
        ("PRAC".to_string(), MitigationConfig::prac(500)),
        ("MoPAC-C@1000".to_string(), MitigationConfig::mopac_c(1000)),
        ("MoPAC-C@500".to_string(), MitigationConfig::mopac_c(500)),
        ("MoPAC-C@250".to_string(), MitigationConfig::mopac_c(250)),
    ];
    slowdown_matrix(
        "fig9",
        "PRAC vs MoPAC-C slowdowns (paper Fig 9; means 10% / 0.8% / 1.8% / 3.0%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
