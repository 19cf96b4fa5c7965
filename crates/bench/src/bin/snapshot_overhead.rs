//! Measures the wall-clock cost of periodic crash-safety snapshots on a
//! saturated attack run.
//!
//! Runs the same double-sided hammer twice at the paper geometry (64K
//! rows per bank, [`AttackConfig::new`]'s default): once straight
//! through, once pausing every `MOPAC_SNAP_REF_WINDOWS` (default 32) REF
//! intervals to take a full [`AttackRun::snapshot`]. Results must stay
//! bit-identical (the snapshot is a pure observer), and the median
//! relative slowdown over blocks of back-to-back pairs of runs is
//! printed as `snapshot_overhead_pct: <value>`, and the gate it must
//! stay below as `snapshot_overhead_gate_pct: <gate>` — `ci.sh` reads
//! both and fails a release build at or over the gate. The block
//! medians' first and third quartiles follow as
//! `snapshot_overhead_iqr_pct: <q1> <q3>`; timing continues (up to a
//! fixed cap) until they lie on one side of the gate, so a reading near
//! the gate can be told apart from noise.

use mopac::config::MitigationConfig;
use mopac_bench::{attack_cycle_budget, u64_knob};
use mopac_dram::timing::TimingSet;
use mopac_sim::{AttackConfig, AttackResult, AttackRun};
use mopac_types::geometry::BankRef;
use mopac_workloads::attack::DoubleSidedHammer;
use std::time::Instant;

/// Pairs of runs per overhead ratio. One 20M-cycle run takes about
/// 0.04 s, and single pair ratios spread over about ±4 points on a
/// 2-CPU shared host, too wide for their quartiles to clear the gate.
const BLOCK: usize = 8;

/// The gate on the median overhead, in percent. ci.sh reads it from
/// the output, so this is the one place that sets it.
const GATE_PCT: f64 = 5.0;

/// Measured seconds after which timing stops even if the interquartile
/// range still straddles the gate.
const CAP_S: f64 = 40.0;

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
    // back to back, alternating which goes first. A block of `BLOCK`
    // pairs gives one overhead ratio, the median of its pair ratios:
    // host drift between pairs cancels, and the medians keep scheduler
    // noise out (a block's summed times did not: one preempted run
    // moves them). Blocks continue until the measured runs total eight
    // seconds (at least five blocks) and the blocks' interquartile range
    // lies on one side of the gate, or until `CAP_S`.
    let _ = run_once(&cfg, None);
    let (mut t_plain, mut t_snap) = (f64::INFINITY, f64::INFINITY);
    let mut blocks = Vec::new();
    let mut block = Vec::with_capacity(BLOCK);
    let mut measured = 0.0;
    let quartiles = |sorted: &[f64]| [1, 2, 3].map(|q| sorted[(sorted.len() - 1) * q / 4]);
    let ([q1, overhead, q3], plain, (snapped, _, snaps, bytes)) = loop {
        let snap_first = block.len() % 2 == 1;
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
        block.push(sn.1 / p.1);
        if block.len() < BLOCK {
            continue;
        }
        block.sort_by(f64::total_cmp);
        blocks.push((quartiles(&block)[1] - 1.0) * 100.0);
        block.clear();
        blocks.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&blocks);
        let resolved = q3 < GATE_PCT || q1 >= GATE_PCT;
        if blocks.len() >= 5 && measured >= 8.0 && (resolved || measured >= CAP_S) {
            break ([q1, median, q3], p.0, sn);
        }
    };

    assert_eq!(
        plain.activations, snapped.activations,
        "snapshots perturbed the run"
    );
    assert_eq!(plain.dram, snapped.dram, "snapshots perturbed DRAM state");

    println!(
        "saturated attack, {} cycles: plain {t_plain:.3}s, {snaps} snapshot(s) every {ref_windows} REF windows ({interval} cycles, {bytes} bytes total) {t_snap:.3}s",
        cfg.cycles
    );
    println!("snapshot_overhead_pct: {overhead:.2}");
    println!("snapshot_overhead_gate_pct: {GATE_PCT:.2}");
    println!(
        "snapshot_overhead_iqr_pct: {q1:.2} {q3:.2} ({} blocks of {BLOCK} pairs, {measured:.1}s)",
        blocks.len()
    );
}
