//! Figure 11: per-workload slowdown of PRAC vs MoPAC-D at
//! T_RH = 1000 / 500 / 250 (paper means: PRAC 10%; MoPAC-D 0.1%, 0.8%,
//! 3.5%).

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let configs = vec![
        ("PRAC".to_string(), MitigationConfig::prac(500)),
        ("MoPAC-D@1000".to_string(), MitigationConfig::mopac_d(1000)),
        ("MoPAC-D@500".to_string(), MitigationConfig::mopac_d(500)),
        ("MoPAC-D@250".to_string(), MitigationConfig::mopac_d(250)),
    ];
    slowdown_matrix(
        "fig11",
        "PRAC vs MoPAC-D slowdowns (paper Fig 11; means 10% / 0.1% / 0.8% / 3.5%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
