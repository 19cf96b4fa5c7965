//! Property tests for the incremental scheduler index.
//!
//! The tentpole invariant behind the event-driven fast path: the
//! per-bank counts and cached wake the controller maintains
//! incrementally must always agree with a from-scratch rebuild — under
//! randomized request streams, page policies, injected faults, and
//! ABO storms — and a published `next_wake` must never be late (no
//! command can issue strictly before it, and no scheduling-mode
//! boundary lies before it).

use mopac::config::MitigationConfig;
use mopac_dram::device::{DramConfig, DramDevice};
use mopac_memctrl::controller::{
    AccessKind, Completion, McConfig, MemRequest, MemoryController, PagePolicy,
};
use mopac_memctrl::mapping::{AddressMapper, Mapping};
use mopac_types::addr::{DecodedAddr, PhysAddr};
use mopac_types::check::prop_check;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::prop_ensure;
use mopac_types::rng::DetRng;
use mopac_types::Cycle;

fn mitigations() -> Vec<MitigationConfig> {
    vec![
        MitigationConfig::baseline(),
        MitigationConfig::prac(500),
        MitigationConfig::mopac_c(500),
        MitigationConfig::mopac_d(500),
    ]
}

fn policies() -> Vec<PagePolicy> {
    vec![
        PagePolicy::Open,
        PagePolicy::Closed,
        PagePolicy::ClosedIdle,
        PagePolicy::TimeoutNs(120.0),
    ]
}

fn build_mc(mit: MitigationConfig, policy: PagePolicy, seed: u64) -> MemoryController {
    let mut dram_cfg = DramConfig::tiny(mit);
    dram_cfg.enable_checker = false;
    let dram = DramDevice::new(dram_cfg);
    let cfg = McConfig {
        seed,
        page_policy: policy,
        ..McConfig::default()
    };
    MemoryController::new(dram, cfg)
}

/// One random enqueue attempt with probability `p`.
fn maybe_enqueue(
    mc: &mut MemoryController,
    rng: &mut DetRng,
    mapper: &AddressMapper,
    geom: DramGeometry,
    id: &mut u64,
    now: Cycle,
    p: f64,
) {
    if rng.bernoulli(p) {
        let kind = if rng.bernoulli(0.25) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let lines = geom.capacity_bytes() / u64::from(geom.line_bytes);
        let addr = PhysAddr::from_line_index(rng.below(lines), geom.line_bytes);
        if mc.enqueue_phys(*id, kind, addr, mapper, now) {
            *id += 1;
        }
    }
}

/// The incremental index always agrees with a from-scratch rebuild
/// under random request streams across mitigations and page policies.
#[test]
fn index_agrees_with_full_rescan_under_random_streams() {
    prop_check("index_agrees_with_full_rescan_under_random_streams", 8, |rng| {
        let mit = mitigations()[rng.below(4) as usize];
        let policy = policies()[rng.below(4) as usize];
        let mut mc = build_mc(mit, policy, rng.next_u64());
        let geom = DramGeometry::tiny();
        let mapper = AddressMapper::new(geom, Mapping::paper_default());
        let mut done: Vec<Completion> = Vec::new();
        let mut id = 0u64;
        for now in 0..8_000u64 {
            maybe_enqueue(&mut mc, rng, &mapper, geom, &mut id, now, 0.35);
            if let Err(e) = mc.tick(now, &mut done) {
                return Err(format!("tick({now}) errored: {e}"));
            }
            mc.debug_verify_index()
                .map_err(|e| format!("cycle {now} ({mit:?}, {policy:?}): {e}"))?;
        }
        prop_ensure!(mc.stats().reads_done > 0, "run serviced no reads");
        Ok(())
    });
}

/// Same agreement under fault injection: RFM delays and drops, stuck
/// banks, and ALERT storms (bursts of injected ALERTs that force the
/// controller through its ABO drain path over and over).
#[test]
fn index_agrees_under_faults_and_abo_storms() {
    prop_check("index_agrees_under_faults_and_abo_storms", 8, |rng| {
        let mit = mitigations()[1 + rng.below(3) as usize]; // ALERT needs a PRAC-family engine
        let policy = policies()[rng.below(4) as usize];
        let mut mc = build_mc(mit, policy, rng.next_u64());
        let geom = DramGeometry::tiny();
        let mapper = AddressMapper::new(geom, Mapping::paper_default());
        mc.dram_mut().inject_rfm_delay(rng.below(300));
        if rng.bernoulli(0.5) {
            mc.dram_mut().inject_rfm_drop(1 + rng.below(3) as u32);
        }
        let cycles: Cycle = 10_000;
        let storm_at = 200 + rng.below(cycles / 2);
        let storm_len = 1_000 + rng.below(2_000);
        let stuck_at = 100 + rng.below(cycles / 2);
        let stuck_len = 500 + rng.below(2_500);
        let mut done: Vec<Completion> = Vec::new();
        let mut id = 0u64;
        for now in 0..cycles {
            // ABO storm: a fresh ALERT every ~200 cycles for the storm
            // window, alternating sub-channels.
            if now >= storm_at && now < storm_at + storm_len && now % 200 == storm_at % 200 {
                let sc = (now / 200 % 2) as u32;
                if let Err(e) = mc.dram_mut().inject_alert(sc, now) {
                    return Err(format!("inject_alert failed: {e}"));
                }
            }
            if now == stuck_at {
                let bank = rng.below(u64::from(geom.banks_per_subchannel)) as u32;
                if let Err(e) = mc.dram_mut().inject_stuck_bank(0, bank, now + stuck_len) {
                    return Err(format!("inject_stuck_bank failed: {e}"));
                }
            }
            maybe_enqueue(&mut mc, rng, &mapper, geom, &mut id, now, 0.4);
            if let Err(e) = mc.tick(now, &mut done) {
                return Err(format!("tick({now}) errored under faults: {e}"));
            }
            mc.debug_verify_index()
                .map_err(|e| format!("cycle {now} ({mit:?}, {policy:?}): {e}"))?;
        }
        Ok(())
    });
}

/// Every registry engine with its name, at `t_rh`.
fn presets(t_rh: u64) -> Vec<(&'static str, MitigationConfig)> {
    mopac::EngineRegistry::builtin()
        .specs()
        .iter()
        .map(|s| (s.name, (s.preset)(t_rh)))
        .collect()
}

/// A controller for the wake probes: tiny geometry split into 8
/// subarrays, so PRACtical's per-subarray update gates differ from
/// its bank gates.
fn build_probe_mc(mit: MitigationConfig, cfg: McConfig) -> MemoryController {
    let mut dram_cfg = DramConfig::tiny(mit);
    dram_cfg.geometry.subarrays_per_bank = 8;
    dram_cfg.enable_checker = false;
    MemoryController::new(DramDevice::new(dram_cfg), cfg)
}

/// Asserts that `mc`'s published wake at `now` is not late: a clone
/// ticked every cycle from `now + 1` up to the wake (at most 2 000
/// cycles) issues nothing and ends with the same statistics as a clone
/// that skips the gap with `note_idle_cycles`, so no mode boundary
/// (refresh, ALERT window end) lies inside it either. Each probe tick
/// first invalidates the clone's cached wake (`dram_mut`), so it runs
/// the full scheduling scan instead of the O(1) fast path that trusts
/// the cache under test. Returns the probed wake, or `None` when there
/// was nothing to probe (no wake, or a wake at `now + 1`, which skips
/// no cycle).
fn probe_wake(mc: &MemoryController, now: Cycle, label: &str) -> Option<Cycle> {
    let wake = mc.next_wake(now)?;
    assert!(wake > now, "wake {wake} not strictly after now {now} ({label})");
    if wake == now + 1 {
        return None;
    }
    let end = wake.min(now + 1 + 2_000);
    let mut probe = mc.clone();
    let mut sink: Vec<Completion> = Vec::new();
    for t in (now + 1)..end {
        probe.dram_mut();
        let issued = probe
            .tick(t, &mut sink)
            .unwrap_or_else(|e| panic!("probe tick({t}) errored ({label}): {e}"));
        assert_eq!(
            issued, 0,
            "next_wake({now}) = {wake} was late: command(s) issued at {t} ({label})"
        );
    }
    let mut skipped = mc.clone();
    skipped.note_idle_cycles(now + 1, end - (now + 1));
    assert_eq!(
        probe.stats(),
        skipped.stats(),
        "skipping to next_wake({now}) = {wake} diverged from ticking ({label})"
    );
    Some(wake)
}

/// `next_wake` may be early but never late: between `now` and the
/// published wake, ticking every cycle issues nothing. Probed on a
/// clone so the main run's schedule is undisturbed, over every
/// registry engine x every page policy under sparse random traffic.
#[test]
fn published_wake_is_never_late() {
    let geom = DramGeometry::tiny();
    let mapper = AddressMapper::new(geom, Mapping::paper_default());
    let root = DetRng::from_seed(0x3A4E_5EED);
    for (i, (name, mit)) in presets(500).into_iter().enumerate() {
        for (j, policy) in policies().into_iter().enumerate() {
            let label = format!("{name}, {policy:?}");
            let mut rng = root.fork((i * 8 + j) as u64);
            let cfg = McConfig {
                seed: rng.next_u64(),
                page_policy: policy,
                ..McConfig::default()
            };
            let mut mc = build_probe_mc(mit, cfg);
            let mut done: Vec<Completion> = Vec::new();
            let mut id = 0u64;
            let mut probes = 0u32;
            for now in 0..3_000u64 {
                maybe_enqueue(&mut mc, &mut rng, &mapper, geom, &mut id, now, 0.3);
                mc.tick(now, &mut done)
                    .unwrap_or_else(|e| panic!("tick({now}) errored ({label}): {e}"));
                if now % 97 == 0 && probe_wake(&mc, now, &label).is_some() {
                    probes += 1;
                }
            }
            assert!(probes > 0, "no wake probes ran ({label})");
        }
    }
}

/// The same never-late check in the attack-driver regime: strict
/// close-page, a read queue kept full of double-sided hammer reads at
/// a low threshold (80), so the tracking engines raise ALERTs over and
/// over, and a short starvation age, so starved fronts act too. Probes
/// land inside ALERT normal windows (the deadline is a wake candidate
/// of its own) and in recovery, and the test asserts both happened. It
/// also asserts that `practical`'s bank-scoped recovery publishes wakes
/// beyond the next cycle: the held banks' queued work must not pin the
/// wake to `now + 1`, so those probes are bounded by the recovery PRE
/// and RFM candidates themselves.
#[test]
fn published_wake_is_never_late_under_alerts() {
    let mut window_probes = 0u32;
    let mut recovery_probes = 0u32;
    let mut bank_recovery_probes = 0u32;
    for (name, mit) in presets(80) {
        let cfg = McConfig {
            page_policy: PagePolicy::Closed,
            read_queue_capacity: 32,
            starvation_cycles: 200,
            ..McConfig::default()
        };
        let mut mc = build_probe_mc(mit, cfg);
        let normal_window = mc.dram().abo_timing().normal_window;
        let mut done: Vec<Completion> = Vec::new();
        let mut id = 0u64;
        let mut next_probe = 0;
        for now in 0..20_000u64 {
            // Keep the read queue full: mostly bank 0's aggressor pair,
            // every fourth read to another bank so that work outside
            // the alerting bank stays queued.
            loop {
                let bank = if id % 4 == 3 {
                    1 + (id / 4 % 3) as u32
                } else {
                    0
                };
                let row = if id.is_multiple_of(2) { 99 } else { 101 };
                let req = MemRequest {
                    id,
                    kind: AccessKind::Read,
                    addr: DecodedAddr::new(BankRef::new((id / 8 % 2) as u32, bank), row, 0),
                };
                if !mc.enqueue(req, now) {
                    break;
                }
                id += 1;
            }
            mc.tick(now, &mut done)
                .unwrap_or_else(|e| panic!("tick({now}) errored ({name}): {e}"));
            if now < next_probe {
                continue;
            }
            // Probe every published wake, one at a time.
            if let Some(wake) = probe_wake(&mc, now, name) {
                next_probe = wake;
                for sc in 0..2 {
                    if let Some(asserted) = mc.dram().alert_since(sc) {
                        if now < asserted + normal_window {
                            window_probes += 1;
                        } else {
                            recovery_probes += 1;
                            if name == "practical" && !mc.dram().alerting_banks(sc).is_empty() {
                                bank_recovery_probes += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        window_probes > 0,
        "no probe ran inside an ALERT normal window"
    );
    assert!(recovery_probes > 0, "no probe ran during ALERT recovery");
    assert!(
        bank_recovery_probes > 0,
        "no practical probe skipped a cycle during bank-scoped recovery"
    );
}

/// One full-queue hammer step for the ALERT-set parity test: mostly
/// bank 0's aggressor pair on both sub-channels, every fourth read to
/// another bank.
fn fill_hammer_queue(mc: &mut MemoryController, id: &mut u64, now: Cycle) {
    loop {
        let bank = if *id % 4 == 3 { 1 + (*id / 4 % 3) as u32 } else { 0 };
        let row = if id.is_multiple_of(2) { 99 } else { 101 };
        let req = MemRequest {
            id: *id,
            kind: AccessKind::Read,
            addr: DecodedAddr::new(BankRef::new((*id / 8 % 2) as u32, bank), row, 0),
        };
        if !mc.enqueue(req, now) {
            return;
        }
        *id += 1;
    }
}

/// The device's incrementally kept ALERT set equals a fresh per-bank
/// `alert_cause()` scan, and the cause ALERT would assert is the lowest
/// such bank's, after every cycle of a hammer run at a low threshold,
/// for every registry engine, under injected counter flips, dropped
/// RFMs and injected ALERTs, and right after a snapshot restore into a
/// freshly built controller (`debug_verify_index` runs the device's
/// `debug_verify_masks`). A one-entry SRQ makes MoPAC-D's ACT-time
/// sampler fill it, so an ACT can raise a cause too.
#[test]
fn alert_set_agrees_with_engine_scan() {
    prop_check("alert_set_agrees_with_engine_scan", 1, |rng| {
        let mut alerts = 0u64;
        let srq1 = ("mopac-d, 1-entry SRQ", MitigationConfig::mopac_d(80).with_srq_capacity(1));
        for (name, mit) in presets(80).into_iter().chain([srq1]) {
            let cfg = McConfig {
                seed: rng.next_u64(),
                page_policy: PagePolicy::Closed,
                read_queue_capacity: 32,
                starvation_cycles: 200,
                ..McConfig::default()
            };
            let mut mc = build_probe_mc(mit, cfg);
            let mut done: Vec<Completion> = Vec::new();
            let mut id = 0u64;
            // Long enough for two REFs (tREFI is ~11.7K cycles).
            let cycles: Cycle = 30_000;
            let restore_at = 1_000 + rng.below(cycles - 2_000);
            for now in 0..cycles {
                match rng.below(400) {
                    0 => {
                        let (sc, row) = (rng.below(2) as u32, 98 + rng.below(5) as u32);
                        mc.dram_mut()
                            .inject_counter_flip(sc, 0, row, 4 + rng.below(6) as u32)
                            .map_err(|e| format!("inject_counter_flip ({name}): {e}"))?;
                    }
                    1 => mc.dram_mut().inject_rfm_drop(1),
                    2 => mc
                        .dram_mut()
                        .inject_alert(rng.below(2) as u32, now)
                        .map_err(|e| format!("inject_alert ({name}): {e}"))?,
                    _ => {}
                }
                if now == restore_at {
                    let mut w = mopac_types::snapshot::SnapshotWriter::new();
                    mopac_types::snapshot::Snapshottable::save_state(&mc, &mut w);
                    let bytes = w.finish();
                    let mut fresh = build_probe_mc(mit, cfg);
                    let mut r = mopac_types::snapshot::SnapshotReader::new(&bytes)
                        .map_err(|e| format!("snapshot ({name}): {e}"))?;
                    mopac_types::snapshot::Snapshottable::load_state(&mut fresh, &mut r)
                        .map_err(|e| format!("restore ({name}): {e}"))?;
                    fresh
                        .debug_verify_index()
                        .map_err(|e| format!("right after restore at {now} ({name}): {e}"))?;
                    mc = fresh;
                }
                fill_hammer_queue(&mut mc, &mut id, now);
                mc.tick(now, &mut done)
                    .map_err(|e| format!("tick({now}) errored ({name}): {e}"))?;
                mc.debug_verify_index()
                    .map_err(|e| format!("cycle {now} ({name}): {e}"))?;
            }
            alerts += mc.dram().stats().alerts();
        }
        prop_ensure!(alerts > 0, "no ALERT was raised");
        Ok(())
    });
}
