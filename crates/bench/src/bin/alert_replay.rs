//! Post-mortem ALERT replay: re-materialize the machine state shortly
//! before a chosen trace-ring ALERT and re-run it deterministically.
//!
//! Phase 1 (record): drive a double-sided hammer against the chosen
//! engine with metrics enabled, capturing a full [`AttackRun`] snapshot
//! every `MOPAC_REPLAY_INTERVAL` cycles (default 10k).
//!
//! Phase 2 (replay): pick an ALERT from the recorded trace ring
//! (`MOPAC_REPLAY_ALERT` = index into the ring's ALERT events, default
//! the last one), restore the latest snapshot at-or-before its cycle
//! into a *freshly constructed* run, and execute just past the alert.
//! Because snapshots capture the controller, device, engine, RNG, sink,
//! and attack-pattern cursor, the replay reproduces the ALERT at the
//! exact cycle with the exact cause — the verdict is checked, and the
//! replay window's protocol events go to
//! `EXPERIMENTS-data/alert_replay_trace.csv` for inspection.
//!
//! Knobs: `MOPAC_REPLAY_ENGINE` (default `prac`), `MOPAC_ATTACK_CYCLES`
//! (run length), `MOPAC_REPLAY_INTERVAL`, `MOPAC_REPLAY_ALERT`.

use mopac_bench::{attack_cycle_budget, data_dir, u64_knob};
use mopac_sim::experiment::mitigation_preset;
use mopac_sim::{AttackConfig, AttackRun};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::obs::{SinkConfig, TraceEvent, TraceEventKind, TraceRing};
use mopac_workloads::attack::DoubleSidedHammer;

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let engine = std::env::var("MOPAC_REPLAY_ENGINE").unwrap_or_else(|_| "prac".to_string());
    let mitigation = mitigation_preset(&engine, 500).unwrap_or_else(|e| panic!("{e}"));
    let interval = u64_knob("MOPAC_REPLAY_INTERVAL", 10_000)
        .unwrap_or_else(|e| panic!("{e}"))
        .max(1);
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        ..AttackConfig::new(
            mitigation,
            attack_cycle_budget().unwrap_or_else(|e| panic!("{e}")),
        )
    };

    // Phase 1: record, snapshotting at a fixed cadence.
    let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut run = AttackRun::new(&cfg, &mut pattern);
    run.enable_metrics(SinkConfig::default());
    let mut snaps: Vec<(u64, Vec<u8>)> = vec![(0, run.snapshot())];
    while run.now() < run.end() {
        run.run_until(run.now() + interval).expect("attack run");
        snaps.push((run.now(), run.snapshot()));
    }
    let recorded = run
        .metrics_snapshot(SinkConfig::default())
        .expect("metrics snapshot");
    let alerts: Vec<TraceEvent> = recorded
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Alert)
        .copied()
        .collect();
    println!(
        "recorded {} cycles against {engine}: {} ALERT(s) in the trace ring, {} snapshot(s)",
        cfg.cycles,
        alerts.len(),
        snaps.len()
    );
    let Some(last) = alerts.last().copied() else {
        println!("no ALERT events to replay; done");
        return;
    };
    let pick = u64_knob("MOPAC_REPLAY_ALERT", (alerts.len() - 1) as u64)
        .unwrap_or_else(|e| panic!("{e}")) as usize;
    let alert = *alerts.get(pick).unwrap_or(&last);

    // Phase 2: restore the latest snapshot at-or-before the alert and
    // re-run just past it.
    let (snap_cycle, snap) = snaps
        .iter()
        .rev()
        .find(|(c, _)| *c <= alert.cycle)
        .expect("cycle-0 snapshot always qualifies");
    println!(
        "replaying ALERT @ cycle {} (cause {}) from snapshot @ cycle {snap_cycle} ({} bytes)",
        alert.cycle,
        alert.value,
        snap.len()
    );
    let mut pattern2 = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut replay = AttackRun::new(&cfg, &mut pattern2);
    replay.enable_metrics(SinkConfig::default());
    replay.restore(snap).expect("restore snapshot");
    assert_eq!(replay.now(), *snap_cycle);
    replay.run_until(alert.cycle + 1).expect("replay run");
    let replayed = replay
        .metrics_snapshot(SinkConfig::default())
        .expect("replay metrics snapshot");
    let reproduced = replayed.events.iter().any(|e| {
        e.kind == TraceEventKind::Alert
            && e.cycle == alert.cycle
            && e.subchannel == alert.subchannel
            && e.value == alert.value
    });

    // Persist the replay window for inspection.
    let mut csv = String::from(TraceRing::CSV_HEADER);
    csv.push('\n');
    for e in replayed
        .events
        .iter()
        .filter(|e| e.cycle >= *snap_cycle && e.cycle <= alert.cycle)
    {
        csv.push_str(&e.to_csv_row());
        csv.push('\n');
    }
    let dir = data_dir();
    std::fs::create_dir_all(&dir).expect("create data dir");
    let path = dir.join("alert_replay_trace.csv");
    mopac_types::persist::atomic_write_str(&path, &csv).expect("write replay trace");
    println!("replay window written to {}", path.display());

    assert!(
        reproduced,
        "replay did NOT reproduce the ALERT at cycle {} — snapshot seam is broken",
        alert.cycle
    );
    println!(
        "OK: replay reproduced ALERT @ cycle {} bit-identically",
        alert.cycle
    );
}
