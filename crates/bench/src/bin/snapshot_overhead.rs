//! Measures the wall-clock cost of periodic crash-safety snapshots on a
//! saturated attack run.
//!
//! Runs the same double-sided hammer twice at the paper geometry (64K
//! rows per bank, [`AttackConfig::new`]'s default): once straight
//! through, once pausing every `MOPAC_SNAP_REF_WINDOWS` (default 32) REF
//! intervals to take a full [`AttackRun::snapshot`]. Results must stay
//! bit-identical (the snapshot is a pure observer), and the median
//! relative slowdown over back-to-back pairs of runs is printed as
//! `snapshot_overhead_pct: <value>` — `ci.sh` gates it below 5% in
//! release builds. The pair ratios' first and third quartiles follow as
//! `snapshot_overhead_iqr_pct: <q1> <q3>`, so a reading near the gate
//! can be told apart from noise.

use mopac::config::MitigationConfig;
use mopac_bench::{attack_cycle_budget, u64_knob};
use mopac_dram::timing::TimingSet;
use mopac_sim::{AttackConfig, AttackResult, AttackRun};
use mopac_types::geometry::BankRef;
use mopac_workloads::attack::DoubleSidedHammer;
use std::time::Instant;

fn run_once(cfg: &AttackConfig, snap_interval: Option<u64>) -> (AttackResult, f64, usize, usize) {
    let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut run = AttackRun::new(cfg, &mut pattern);
    let start = Instant::now();
    let mut snaps = 0usize;
    let mut bytes = 0usize;
    match snap_interval {
        None => run.run_until(run.end()).expect("attack run"),
        Some(interval) => {
            while run.now() < run.end() {
                run.run_until(run.now() + interval).expect("attack run");
                bytes += run.snapshot().len();
                snaps += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (run.result(), elapsed, snaps, bytes)
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let ref_windows =
        u64_knob("MOPAC_SNAP_REF_WINDOWS", 32).unwrap_or_else(|e| panic!("{e}")).max(1);
    let interval = TimingSet::ddr5_base().t_refi * ref_windows;
    let cfg = AttackConfig::new(
        MitigationConfig::prac(500),
        attack_cycle_budget().unwrap_or_else(|e| panic!("{e}")),
    );

    // Warm-up (page in code and allocator paths), then pairs of runs
    // back to back, alternating which goes first. Each pair gives one
    // overhead ratio; host drift between pairs cancels, and the median
    // keeps scheduler noise out. Pairs continue until the measured runs
    // total eight seconds (at least five pairs): the skipping attack
    // driver finishes a 20M-cycle run in about 0.06 s, too short for a
    // best-of-3 to resolve a 5% gate on a shared host.
    let _ = run_once(&cfg, None);
    let (mut plain, mut snapped) = (None, None);
    let (mut t_plain, mut t_snap) = (f64::INFINITY, f64::INFINITY);
    let (mut snaps, mut bytes) = (0, 0);
    let mut ratios = Vec::new();
    let mut measured = 0.0;
    while ratios.len() < 5 || measured < 8.0 {
        let snap_first = ratios.len() % 2 == 1;
        let first = run_once(&cfg, snap_first.then_some(interval));
        let second = run_once(&cfg, (!snap_first).then_some(interval));
        let (p, sn) = if snap_first {
            (second, first)
        } else {
            (first, second)
        };
        measured += p.1 + sn.1;
        t_plain = t_plain.min(p.1);
        t_snap = t_snap.min(sn.1);
        ratios.push(sn.1 / p.1);
        (plain, snapped, snaps, bytes) = (Some(p.0), Some(sn.0), sn.2, sn.3);
    }
    ratios.sort_by(f64::total_cmp);
    let (plain, snapped) = (plain.expect("measured"), snapped.expect("measured"));

    assert_eq!(
        plain.activations, snapped.activations,
        "snapshots perturbed the run"
    );
    assert_eq!(plain.dram, snapped.dram, "snapshots perturbed DRAM state");

    // Each pair ratio as a percent overhead; the quartiles show how
    // finely the median resolves the gate on this host.
    let pct = |q: usize| (ratios[(ratios.len() - 1) * q / 4] - 1.0) * 100.0;
    let overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    println!(
        "saturated attack, {} cycles: plain {t_plain:.3}s, {snaps} snapshot(s) every {ref_windows} REF windows ({interval} cycles, {bytes} bytes total) {t_snap:.3}s",
        cfg.cycles
    );
    println!("snapshot_overhead_pct: {overhead:.2}");
    println!("snapshot_overhead_iqr_pct: {:.2} {:.2}", pct(1), pct(3));
}
