//! Figure 12: MoPAC-D slowdown vs drain-on-REF rate (0 / 1 / 2 / 4
//! entries) at T_RH = 1000 / 500 / 250.

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut configs = Vec::new();
    for t in [1000u64, 500, 250] {
        for drain in [0u32, 1, 2, 4] {
            configs.push((
                format!("T{t}/d{drain}"),
                MitigationConfig::mopac_d(t).with_drain_on_ref(drain),
            ));
        }
    }
    slowdown_matrix(
        "fig12",
        "MoPAC-D vs drain-on-REF (paper Fig 12; means T1000: 3.1/0.1/0/0%, \
         T500: 6.2/2.9/0.8/0.1%, T250: 14.1/10.5/7.4/3.5%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
