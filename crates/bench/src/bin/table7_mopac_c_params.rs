//! Table 7: MoPAC-C parameters (p, C, ATH*) for varying T_RH.

use mopac_analysis::params::mopac_c_params;
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table7",
        "MoPAC-C parameters (paper Table 7)",
        &["T_RH", "ATH", "p", "C", "ATH*", "paper ATH*"],
    );
    let paper = [(250u64, 80u64), (500, 176), (1000, 368)];
    for (t, want) in paper {
        let p = mopac_c_params(t);
        r.row(&[
            t.to_string(),
            p.ath.to_string(),
            format!("1/{}", p.update_prob_denominator),
            p.critical_updates.to_string(),
            p.ath_star.to_string(),
            want.to_string(),
        ]);
    }
    // Extended range (Figure 1d / intro: p = 1/64 at 4K .. 1/2 at 125).
    for t in [4000u64, 2000, 125] {
        let p = mopac_c_params(t);
        r.row(&[
            t.to_string(),
            p.ath.to_string(),
            format!("1/{}", p.update_prob_denominator),
            p.critical_updates.to_string(),
            p.ath_star.to_string(),
            "-".into(),
        ]);
    }
    r.emit();
}
