//! Table 1: DRAM timings for base DDR5-6000AN vs PRAC, as the simulator
//! enforces them (nanoseconds and DRAM-clock cycles).

use mopac_bench::Report;
use mopac_dram::timing::TimingSet;
use mopac_types::jedec::TimingNs;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let base_ns = TimingNs::ddr5_base();
    let prac_ns = TimingNs::ddr5_prac();
    let base = TimingSet::ddr5_base();
    let prac = TimingSet::ddr5_prac();
    let mut r = Report::new(
        "table1",
        "DRAM timings (paper Table 1) and enforced cycle counts",
        &["param", "base ns", "PRAC ns", "base cyc", "PRAC cyc"],
    );
    let rows: [(&str, f64, f64, u64, u64); 4] = [
        ("tRCD", base_ns.t_rcd, prac_ns.t_rcd, base.t_rcd, prac.t_rcd),
        ("tRP", base_ns.t_rp, prac_ns.t_rp, base.t_rp, prac.t_rp),
        ("tRAS", base_ns.t_ras, prac_ns.t_ras, base.t_ras, prac.t_ras),
        ("tRC", base_ns.t_rc, prac_ns.t_rc, base.t_rc, prac.t_rc),
    ];
    for (name, bn, pn, bc, pc) in rows {
        r.row(&[
            name.to_string(),
            format!("{bn}"),
            format!("{pn}"),
            bc.to_string(),
            pc.to_string(),
        ]);
    }
    r.row(&[
        "tREFI".into(),
        format!("{}", base_ns.t_refi),
        format!("{}", prac_ns.t_refi),
        base.t_refi.to_string(),
        prac.t_refi.to_string(),
    ]);
    r.row(&[
        "tRFC".into(),
        format!("{}", base_ns.t_rfc),
        format!("{}", prac_ns.t_rfc),
        base.t_rfc.to_string(),
        prac.t_rfc.to_string(),
    ]);
    r.emit();
}
