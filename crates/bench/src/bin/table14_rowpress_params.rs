//! Table 14 (Appendix A): ATH* modified for Row-Press protection.

use mopac_analysis::params::{row_press_params, MopacDesign};
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table14",
        "Row-Press-hardened ATH* (paper Table 14)",
        &[
            "T_RH",
            "p",
            "ATH* MoPAC-C",
            "paper",
            "ATH* MoPAC-D",
            "paper",
        ],
    );
    let paper = [(500u64, 80u64, 64u64), (1000, 160, 144)];
    for (t, c_want, d_want) in paper {
        let c = row_press_params(MopacDesign::ControllerSide, t);
        let d = row_press_params(MopacDesign::DramSide, t);
        r.row(&[
            t.to_string(),
            format!("1/{}", c.update_prob_denominator),
            c.ath_star.to_string(),
            c_want.to_string(),
            d.ath_star.to_string(),
            d_want.to_string(),
        ]);
    }
    r.emit();
}
