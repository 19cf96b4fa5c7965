//! Figure 13: MoPAC-D slowdown vs SRQ size (8 / 16 / 32 entries) at
//! T_RH = 1000 / 500 / 250.

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut configs = Vec::new();
    for t in [1000u64, 500, 250] {
        for srq in [8usize, 16, 32] {
            configs.push((
                format!("T{t}/srq{srq}"),
                MitigationConfig::mopac_d(t).with_srq_capacity(srq),
            ));
        }
    }
    slowdown_matrix(
        "fig13",
        "MoPAC-D vs SRQ size (paper Fig 13; means T1000: 0.5/0.1/0.1%, \
         T500: 1.9/0.8/0.3%, T250: 9.0/3.5/2.7%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
