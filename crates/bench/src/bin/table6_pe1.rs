//! Table 6: the row failure probability P_e1 (binomial undercount tail,
//! Equation 2) at varying T_RH as C sweeps 20..=25.

use mopac_analysis::binomial::prob_fewer_than;
use mopac_analysis::moat::moat_ath;
use mopac_analysis::mttf::FailureBudget;
use mopac_bench::{sci, Report};

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table6",
        "P_e1 = P(N <= C) for MoPAC-C (paper Table 6); 'x eps' is the \
         ratio to the threshold's budget",
        &[
            "C",
            "T=250 (p=1/4)",
            "x eps",
            "T=500 (p=1/8)",
            "x eps",
            "T=1000 (p=1/16)",
            "x eps",
        ],
    );
    let cols: Vec<(u64, f64, f64)> = [250u64, 500, 1000]
        .into_iter()
        .map(|t| {
            let ath = moat_ath(t);
            let p = match t {
                250 => 0.25,
                500 => 0.125,
                _ => 1.0 / 16.0,
            };
            let eps = FailureBudget::paper_default(t).per_side_epsilon();
            (ath, p, eps)
        })
        .collect();
    for c in 20u64..=25 {
        let mut cells = vec![c.to_string()];
        for &(ath, p, eps) in &cols {
            let pe1 = prob_fewer_than(ath, p, c + 1); // P(N <= C)
            cells.push(sci(pe1));
            cells.push(format!("{:.1}x", pe1 / eps));
        }
        r.row(&cells);
    }
    r.emit();
    println!(
        "paper bold rows (largest C below eps): 20 @ T=250, 22 @ T=500, 23 @ T=1000"
    );
}
