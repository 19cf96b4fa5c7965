//! Table 5: failure budget F (Equation 3) and per-side escape budget
//! epsilon (Equation 6) for varying thresholds.

use mopac_analysis::mttf::FailureBudget;
use mopac_bench::{sci, Report};

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table5",
        "F and epsilon vs threshold (paper Table 5; note the paper's \
         eps at T=1000 is a typo — sqrt(1.44e-16) = 1.20e-8)",
        &["T_RH", "F (paper)", "F (ours)", "eps (paper)", "eps (ours)"],
    );
    let paper = [
        (250u64, "3.59e-17", "5.99e-9"),
        (500, "7.19e-17", "8.48e-9"),
        (1000, "1.44e-16", "1.12e-8"),
    ];
    for (t, f_p, e_p) in paper {
        let b = FailureBudget::paper_default(t);
        r.row(&[
            t.to_string(),
            f_p.to_string(),
            sci(b.round_budget()),
            e_p.to_string(),
            sci(b.per_side_epsilon()),
        ]);
    }
    r.emit();
}
