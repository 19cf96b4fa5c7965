//! Table 8: MoPAC-D parameters (A', p, C, ATH*, drain-on-REF).

use mopac_analysis::params::mopac_d_params;
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table8",
        "MoPAC-D parameters (paper Table 8; paper prints A'=942 at \
         T=1000 but ATH-TTH = 975-32 = 943)",
        &["T_RH", "ATH", "A'", "p", "C", "ATH*", "paper ATH*", "drain/REF"],
    );
    let paper = [(250u64, 60u64), (500, 152), (1000, 336)];
    for (t, want) in paper {
        let p = mopac_d_params(t);
        r.row(&[
            t.to_string(),
            p.ath.to_string(),
            p.a_effective.to_string(),
            format!("1/{}", p.update_prob_denominator),
            p.critical_updates.to_string(),
            p.ath_star.to_string(),
            want.to_string(),
            p.drain_on_ref.to_string(),
        ]);
    }
    r.emit();
}
