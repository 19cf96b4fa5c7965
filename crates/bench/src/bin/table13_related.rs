//! Table 13: tolerated T_RH for MoPAC-D, MINT and PrIDE as the time
//! reserved for Rowhammer mitigation per REF is varied.

use mopac_analysis::related::table13_rows;
use mopac_bench::Report;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let mut r = Report::new(
        "table13",
        "Tolerated T_RH vs mitigation time per REF (paper Table 13)",
        &[
            "ns/REF",
            "MoPAC-D",
            "paper",
            "MINT",
            "paper",
            "PrIDE",
            "paper",
        ],
    );
    let paper = [
        (240u64, 250u64, 1491u64, 1975u64),
        (120, 500, 2920, 3808),
        (60, 1000, 5725, 7474),
    ];
    for (row, (ns, mp, mi, pr)) in table13_rows().iter().zip(paper) {
        assert_eq!(row.mitigation_ns_per_ref, ns);
        r.row(&[
            ns.to_string(),
            row.mopac_d.to_string(),
            mp.to_string(),
            row.mint.to_string(),
            mi.to_string(),
            row.pride.to_string(),
            pr.to_string(),
        ]);
    }
    r.emit();
    println!(
        "headline: MoPAC-D tolerates ~6x lower T_RH than MINT and ~8x \
         lower than PrIDE at equal time budget"
    );
}
