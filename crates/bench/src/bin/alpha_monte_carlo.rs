//! Section 7.2: Monte-Carlo estimate of alpha — the fraction of ATH*
//! activations after which the fastest of 32 banks triggers ABO.
//!
//! The paper reports alpha ~ 0.55; our iid negative-binomial model of
//! the same process yields ~0.64 (the paper does not specify its MC's
//! reset semantics — see EXPERIMENTS.md). Both are reported.

use mopac_analysis::params::{mopac_c_params, mopac_d_params};
use mopac_analysis::perf_attack::monte_carlo_alpha;
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "alpha",
        "Monte-Carlo alpha (paper Section 7.2: ~0.55 for 32 banks)",
        &["design", "T_RH", "banks", "alpha"],
    );
    for t in [250u64, 500, 1000] {
        for (name, p) in [("MoPAC-C", mopac_c_params(t)), ("MoPAC-D", mopac_d_params(t))] {
            for banks in [1u32, 8, 32, 64] {
                let alpha = monte_carlo_alpha(
                    banks,
                    p.critical_updates + 1,
                    p.p(),
                    20_000,
                    0xA1FA ^ t,
                );
                r.row(&[
                    name.to_string(),
                    t.to_string(),
                    banks.to_string(),
                    format!("{alpha:.3}"),
                ]);
            }
        }
    }
    r.emit();
}
