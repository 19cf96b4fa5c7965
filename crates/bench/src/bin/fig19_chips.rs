//! Figure 19 (Appendix B): MoPAC-D slowdown vs number of chips per
//! sub-channel (1 / 2 / 4 / 8 / 16).

use mopac::config::MitigationConfig;
use mopac_bench::slowdown_matrix;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut configs = Vec::new();
    for t in [1000u64, 500, 250] {
        for chips in [1u32, 2, 4, 8, 16] {
            configs.push((
                format!("T{t}/x{chips}"),
                MitigationConfig::mopac_d(t).with_chips(chips),
            ));
        }
    }
    slowdown_matrix(
        "fig19",
        "MoPAC-D vs chip count (paper Fig 19; at T250: 2.7/3.1/3.5/3.9/4.2%)",
        &configs,
    )
    .expect("slowdown sweep")
    .emit();
}
