//! Table 11: ATH* for MoPAC-D with uniform vs non-uniform probability
//! (Markov-chain analysis, Equation 9).

use mopac_analysis::markov::nup_params;
use mopac_analysis::params::mopac_d_params;
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table11",
        "ATH* of MoPAC-D vs MoPAC-D+NUP (paper Table 11)",
        &[
            "T_RH",
            "p",
            "uniform ATH*",
            "paper",
            "NUP ATH*",
            "paper",
        ],
    );
    let paper = [
        (1000u64, 336u64, 288u64),
        (500, 152, 136),
        (250, 60, 56),
    ];
    for (t, uni_want, nup_want) in paper {
        let uni = mopac_d_params(t);
        let nup = nup_params(t);
        r.row(&[
            t.to_string(),
            format!("1/{}", uni.update_prob_denominator),
            uni.ath_star.to_string(),
            uni_want.to_string(),
            nup.ath_star.to_string(),
            nup_want.to_string(),
        ]);
    }
    r.emit();
}
