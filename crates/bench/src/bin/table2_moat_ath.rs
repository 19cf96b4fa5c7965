//! Table 2: the MOAT ALERT threshold (ATH) as T_RH varies.

use mopac_analysis::moat::{moat_ath, moat_eth};
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table2",
        "MOAT ALERT threshold (paper Table 2: 975 / 472 / 219)",
        &["T_RH", "ATH (paper)", "ATH (ours)", "ETH"],
    );
    let paper = [(1000u64, 975u64), (500, 472), (250, 219)];
    for (t, want) in paper {
        let ath = moat_ath(t);
        r.row(&[
            t.to_string(),
            want.to_string(),
            ath.to_string(),
            moat_eth(ath).to_string(),
        ]);
    }
    // Extrapolated points used by Figures 1(d) and 2.
    for t in [4000u64, 2000, 125] {
        let ath = moat_ath(t);
        r.row(&[
            t.to_string(),
            "-".into(),
            ath.to_string(),
            moat_eth(ath).to_string(),
        ]);
    }
    r.emit();
}
