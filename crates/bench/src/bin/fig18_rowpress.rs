//! Figure 18 (Appendix A): MoPAC-C and MoPAC-D with and without
//! integrated Row-Press protection at T_RH = 1000 / 500.

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut configs = Vec::new();
    for t in [1000u64, 500] {
        configs.push((format!("C@{t}"), MitigationConfig::mopac_c(t)));
        configs.push((
            format!("C+RP@{t}"),
            MitigationConfig::mopac_c(t).with_row_press(),
        ));
        configs.push((format!("D@{t}"), MitigationConfig::mopac_d(t)));
        configs.push((
            format!("D+RP@{t}"),
            MitigationConfig::mopac_d(t).with_row_press(),
        ));
    }
    slowdown_matrix(
        "fig18",
        "Row-Press-hardened MoPAC (paper Fig 18; at T1000 C 0.9%, D 0.4%; \
         at T500 C 1.8%, D 6.8%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
