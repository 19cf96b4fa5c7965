//! The benchmark's own checks, on the small [`Budget::SMOKE`] budgets.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mopac_perfbench::capture::Source;
use mopac_perfbench::host::{compute_probe, CpuInstant};
use mopac_perfbench::replay::{attack_loop, per_layer_specs, replay_dram_counts, LoopCost};
use mopac_perfbench::workload::{CellKind, CellOutcome};
use mopac_perfbench::{cells, Budget, Pass, Workload, END_TO_END};
use mopac_sim::attack::AttackRun;

fn pass(workload: Workload, seed: u64, traced: bool) -> Pass {
    Pass::run(&cells(workload, seed, &Budget::SMOKE), traced)
}

fn assert_clean(workload: Workload, seed: u64, p: &Pass) {
    let failures = p.failures(workload, &cells(workload, seed, &Budget::SMOKE));
    assert!(failures.is_empty(), "{}: {failures:?}", workload.name());
}

#[test]
fn same_seed_same_digest_and_another_seed_changes_it() {
    for workload in Workload::ALL {
        let a = pass(workload, 7, false);
        let b = pass(workload, 7, false);
        let c = pass(workload, 8, false);
        assert_clean(workload, 7, &a);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{}: same seed, different digest",
            workload.name()
        );
        assert_ne!(
            a.digest(),
            c.digest(),
            "{}: seed does not reach the load",
            workload.name()
        );
    }
}

#[test]
fn traced_pass_only_observes() {
    for workload in Workload::ALL {
        let untraced = pass(workload, 11, false);
        let traced = pass(workload, 11, true);
        assert_clean(workload, 11, &traced);
        assert_eq!(untraced.digest(), traced.digest(), "{}", workload.name());
    }
}

fn check_replay(o: &CellOutcome) -> bool {
    let cap = o.capture.as_ref().expect("traced cell has a capture");
    assert_eq!(
        cap.counters.events_dropped, 0,
        "{}: trace ring dropped events",
        cap.engine
    );
    let c = &cap.counters;
    assert_eq!(
        (c.activates, c.refreshes, c.rfms),
        (cap.result.acts, cap.result.refs, cap.result.rfms)
    );
    if cap.result.device_faults > 0 {
        // Injected device faults are invisible to a command replay.
        assert!(replay_dram_counts(cap).is_err());
        return false;
    }
    let replayed = replay_dram_counts(cap).expect("replay reproduces the run");
    assert_eq!(
        replayed,
        (c.activates, c.refreshes, c.rfms),
        "{}: replayed command counts",
        cap.engine
    );
    true
}

#[test]
fn replayed_command_counts_equal_the_run() {
    for workload in Workload::ALL {
        let traced = pass(workload, 5, true);
        let replayed = traced.outcomes.iter().filter(|o| check_replay(o)).count();
        match workload {
            Workload::Mc4Faults => assert!(replayed >= 1, "no fault-free mc4 cell replayed"),
            _ => assert_eq!(replayed, traced.outcomes.len(), "{}", workload.name()),
        }
    }
}

#[test]
fn benchmark_attack_loop_matches_attack_run() {
    let cells = cells(Workload::AttackBattery, 3, &Budget::SMOKE);
    let mut compared = 0;
    for cell in &cells {
        let CellKind::Attack {
            cfg,
            pattern,
            readback,
        } = &cell.kind
        else {
            continue;
        };
        let mut p_run = pattern.build(cfg.geometry);
        let mut run = AttackRun::new(cfg, p_run.as_mut());
        run.run_until(cfg.cycles).unwrap();
        let mut p_loop = pattern.build(cfg.geometry);
        let mut mc = attack_loop(cfg, p_loop.as_mut(), &mut LoopCost::new()).unwrap();
        if *readback {
            run.verify_readback();
            mc.dram_mut().flip_readback_sweep();
        }
        let r = run.result();
        assert_eq!(mc.dram().stats(), r.dram, "{}", cell.label);
        assert_eq!(mc.dram().violations(), r.violations, "{}", cell.label);
        assert_eq!(mc.dram().flip_stats(), r.flip, "{}", cell.label);
        compared += 1;
    }
    assert_eq!(compared, cells.len());
}

#[test]
fn sources_rebuild_the_captured_inputs() {
    let traced = pass(Workload::PaperSweep, 2, true);
    for o in &traced.outcomes {
        let cap = o.capture.as_ref().unwrap();
        let Source::Traces { cfg, mix } = &cap.source else {
            panic!("sweep cells run traces")
        };
        let mut fresh = mopac_sim::experiment::build_traces(mix, cfg).unwrap();
        for (src, captured) in fresh.iter_mut().zip(&cap.records) {
            let captured = captured.borrow();
            assert!(!captured.is_empty());
            let regenerated: Vec<_> = (0..captured.len()).map(|_| src.next_record()).collect();
            assert_eq!(regenerated, *captured);
        }
    }
}

/// `BENCHMARK.json` names exactly the workloads and metrics the
/// benchmark reports.
#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let names: Vec<String> = json
        .match_indices("\"name\": \"")
        .map(|(i, m)| {
            let rest = &json[i + m.len()..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect();
    let mut expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _, _)| (*n).to_string()));
    expected.extend(per_layer_specs().into_iter().map(|(n, _, _)| n));
    assert_eq!(names, expected);
}

#[test]
fn thread_cpu_clock_counts_only_this_threads_running_time() {
    let wall = std::time::Instant::now();
    let cpu = CpuInstant::now();
    let spun = compute_probe();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (cpu, wall) = (cpu.elapsed_s(), wall.elapsed().as_secs_f64());
    assert!(spun > 0.0 && spun <= cpu, "probe {spun} s, clock {cpu} s");
    assert!(
        cpu < wall - 0.04,
        "a sleep was counted: {cpu} s on the clock, {wall} s wall"
    );
}
