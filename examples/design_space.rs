//! Design-space exploration: what do MoPAC's parameters and worst-case
//! costs look like at an arbitrary Rowhammer threshold?
//!
//! ```text
//! cargo run --release -p mopac-sim --example design_space [t_rh ...]
//! ```
//!
//! For each threshold (default: the paper's 4000..125 range), prints the
//! derived sampling probability, critical update count, revised ALERT
//! threshold, NUP variant, and the analytic worst-case slowdowns under
//! performance attacks — everything a DRAM or SoC architect would need
//! to pick an operating point.

use mopac_analysis::markov::nup_params;
use mopac_analysis::moat::moat_ath;
use mopac_analysis::mttf::FailureBudget;
use mopac_analysis::params::{mopac_c_params, mopac_d_params};
use mopac_analysis::perf_attack::{
    mitigation_attack_slowdown, srq_full_attack_slowdown, tth_attack_slowdown, PAPER_ALPHA,
};

fn main() {
    mopac_types::knob::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|v| v.parse().expect("thresholds must be integers"))
        .collect();
    let thresholds = if args.is_empty() {
        vec![4000, 2000, 1000, 500, 250, 125]
    } else {
        args
    };
    println!(
        "{:>6} {:>6} {:>9} {:>6} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "T_RH", "ATH", "eps", "p", "C-ATH*", "D-ATH*", "NUP", "mitig-atk", "srq-atk", "tth-atk"
    );
    for t in thresholds {
        let ath = moat_ath(t);
        let eps = FailureBudget::paper_default(t).per_side_epsilon();
        let c = mopac_c_params(t);
        let d = mopac_d_params(t);
        let n = nup_params(t);
        println!(
            "{:>6} {:>6} {:>9.2e} {:>6} {:>7} {:>7} {:>7} {:>8.1}% {:>8.1}% {:>8.1}%",
            t,
            ath,
            eps,
            format!("1/{}", c.update_prob_denominator),
            c.ath_star,
            d.ath_star,
            n.ath_star,
            mitigation_attack_slowdown(&d, PAPER_ALPHA) * 100.0,
            srq_full_attack_slowdown(&d, 5) * 100.0,
            tth_attack_slowdown(d.tth) * 100.0,
        );
    }
    println!(
        "\nAttack columns are analytic worst cases for MoPAC-D \
         (Section 7 model, alpha = {PAPER_ALPHA})."
    );
}
