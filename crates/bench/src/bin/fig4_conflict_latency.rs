//! Figure 4: latency to service a read that conflicts with an open row —
//! the core of PRAC's overhead (paper: 40 ns base vs 62 ns PRAC, 1.55x).

use mopac::config::MitigationConfig;
use mopac_bench::Report;
use mopac_dram::device::{DramConfig, DramDevice};

/// Drives PRE -> ACT -> RD on one bank and returns (total cycles,
/// cycles to first data beat).
fn conflict_latency(mit: MitigationConfig) -> (u64, u64) {
    let mut d = DramDevice::new(DramConfig::tiny(mit));
    // Row A open for a while; a read to row B arrives.
    d.activate(0, 0, 0, 0, false).expect("ACT A");
    let pre_at = d.earliest_precharge(0, 0).unwrap();
    d.precharge(0, 0, pre_at).expect("PRE A");
    let act_at = d.earliest_activate(0, 0).unwrap();
    d.activate(0, 0, 1, act_at, false).expect("ACT B");
    let rd_at = d.earliest_column(0, 0, 1).unwrap();
    let done = d.read(0, 0, rd_at).expect("RD B");
    let first_beat = done - d.timing_default().burst;
    (done - pre_at, first_beat - pre_at)
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let (base_total, base_first) = conflict_latency(MitigationConfig::baseline());
    let (prac_total, prac_first) = conflict_latency(MitigationConfig::prac(500));
    let cyc_ns = 1.0 / 3.0;
    let mut r = Report::new(
        "fig4",
        "Row-buffer-conflict read latency (paper Fig 4: 40 ns -> 62 ns, 1.55x)",
        &["config", "PRE->first data (ns)", "PRE->burst end (ns)"],
    );
    r.row(&[
        "base".into(),
        format!("{:.1}", base_first as f64 * cyc_ns),
        format!("{:.1}", base_total as f64 * cyc_ns),
    ]);
    r.row(&[
        "PRAC".into(),
        format!("{:.1}", prac_first as f64 * cyc_ns),
        format!("{:.1}", prac_total as f64 * cyc_ns),
    ]);
    r.row(&[
        "ratio".into(),
        format!("{:.2}x", prac_first as f64 / base_first as f64),
        format!("{:.2}x", prac_total as f64 / base_total as f64),
    ]);
    r.emit();
}
