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
use mopac_dram::timing::TimingSet;
use mopac_memctrl::controller::{
    AccessKind, Completion, McConfig, MemRequest, MemoryController, PagePolicy,
};
use mopac_memctrl::mapping::{AddressMapper, Mapping};
use mopac_types::addr::{DecodedAddr, PhysAddr};
use mopac_types::bankmask::BankMask;
use mopac_types::check::prop_check;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::prop_ensure;
use mopac_types::rng::DetRng;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
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

/// What the test itself remembers of one sub-channel's shared
/// resources, from the commands it issued: every ACT cycle, the end of
/// the last data burst, and the REF/RFM block. The floors computed from
/// it are the reference the device's floors must equal.
#[derive(Debug, Clone, Default)]
struct FloorModel {
    acts: Vec<Cycle>,
    bus_done: Cycle,
    blocked: Cycle,
}

impl FloorModel {
    fn activate(&self, t: &TimingSet) -> Cycle {
        let rrd = self.acts.last().map_or(0, |a| a + t.t_rrd);
        let faw = match self.acts.len() {
            n if n >= 4 => self.acts[n - 4] + t.t_faw,
            _ => 0,
        };
        rrd.max(faw).max(self.blocked)
    }

    fn column(&self, t: &TimingSet) -> Cycle {
        self.bus_done.saturating_sub(t.cl).max(self.blocked)
    }
}

/// Checks every gate of `d` against its split: each `earliest_*` gate
/// is its bank part `max` the sub-channel floor, and each floor equals
/// the one the test's own command history gives.
fn check_gates(d: &DramDevice, model: &[FloorModel], row: u32, at: &str) -> Result<(), String> {
    let t = *d.timing_default();
    let banks = d.config().geometry.banks_per_subchannel;
    for (sc, m) in model.iter().enumerate() {
        let sc = sc as u32;
        let floors = (
            d.activate_floor(sc),
            d.column_floor(sc),
            d.precharge_floor(sc),
        );
        let expected = (m.activate(&t), m.column(&t), m.blocked);
        prop_ensure!(
            floors == expected,
            "{at}: sc{sc} (ACT, column, PRE) floors {floors:?}, history gives {expected:?}"
        );
        let raise = |part: Option<Cycle>, floor: Cycle| part.map(|p| p.max(floor));
        for bank in 0..banks {
            let open = d.open_row(sc, bank).map(|o| o.row);
            let pairs = [
                (
                    "ACT",
                    d.earliest_activate(sc, bank),
                    raise(d.bank_activate_gate(sc, bank), expected.0),
                ),
                (
                    "ACT row",
                    d.earliest_activate_row(sc, bank, row),
                    raise(d.bank_activate_row_gate(sc, bank, row), expected.0),
                ),
                (
                    "column",
                    open.and_then(|r| d.earliest_column(sc, bank, r)),
                    open.and_then(|r| raise(d.bank_column_gate(sc, bank, r), expected.1)),
                ),
                (
                    "PRE",
                    d.earliest_precharge(sc, bank),
                    raise(d.bank_precharge_gate(sc, bank), expected.2),
                ),
            ];
            for (command, gate, split) in pairs {
                prop_ensure!(
                    gate == split,
                    "{at}: sc{sc}/bank{bank} {command} gate {gate:?}, bank part max floor {split:?}"
                );
            }
        }
    }
    Ok(())
}

/// Every device gate is its bank part `max` a sub-channel floor (tRRD,
/// tFAW and the REF/RFM block for ACT; the data bus and the block for
/// column commands; the block for PRE), and the floors equal the ones
/// the issued command history gives. Random command streams issue each
/// command at its gate, so tRRD and tFAW bind, for every registry
/// engine, under injected RFM delays and drops, stuck banks, ALERTs and
/// counter flips, and across a snapshot restore into a fresh device.
/// The controller takes each floor once per scan on this identity.
#[test]
fn gates_are_bank_part_max_subchannel_floor() {
    prop_check("gates_are_bank_part_max_subchannel_floor", 2, |rng| {
        for (name, mit) in presets(80) {
            let mut cfg = DramConfig::tiny(mit);
            cfg.geometry.banks_per_subchannel = 16;
            cfg.geometry.subarrays_per_bank = 8;
            cfg.seed = rng.next_u64();
            let mut d = DramDevice::new(cfg.clone());
            let t = *d.timing_default();
            let abo = *d.abo_timing();
            let (subs, banks, rows) = (2u32, 16u32, cfg.geometry.rows_per_bank);
            let mut model = vec![FloorModel::default(); subs as usize];
            let mut rfm_extra: Cycle = 0;
            let mut now: Cycle = 0;
            let steps = 3_000;
            let restore_at = 500 + rng.below(steps - 1_000);
            let mut faw_bound = 0u32;
            for step in 0..steps {
                let at = format!("{name}, step {step}, cycle {now}");
                check_gates(&d, &model, rng.below(u64::from(rows)) as u32, &at)?;
                if step == restore_at {
                    let mut w = SnapshotWriter::new();
                    d.save_state(&mut w);
                    let bytes = w.finish();
                    let mut fresh = DramDevice::new(cfg.clone());
                    let mut r = SnapshotReader::new(&bytes).map_err(|e| format!("{at}: {e}"))?;
                    fresh
                        .load_state(&mut r)
                        .map_err(|e| format!("{at}: restore: {e}"))?;
                    d = fresh;
                    check_gates(&d, &model, 0, &format!("{at}, after restore"))?;
                }
                let sc = rng.below(u64::from(subs)) as u32;
                let bank = rng.below(u64::from(banks)) as u32;
                let m = &mut model[sc as usize];
                let fault = |e: mopac_types::MopacError| format!("{at}: {e}");
                match rng.below(100) {
                    0..=54 => {
                        // ACT at its gate; PRE the bank first when open.
                        let row = rng.below(u64::from(rows)) as u32;
                        if d.open_row(sc, bank).is_some() {
                            let Some(gate) = d.earliest_precharge(sc, bank) else {
                                return Err(format!("{at}: open bank without a PRE gate"));
                            };
                            now = now.max(gate);
                            d.precharge(sc, bank, now).map_err(fault)?;
                            continue;
                        }
                        let Some(gate) = d.earliest_activate_row(sc, bank, row) else {
                            return Err(format!("{at}: closed bank without an ACT gate"));
                        };
                        let without_faw = m.acts.last().map_or(0, |a| a + t.t_rrd).max(m.blocked);
                        if m.activate(&t) > without_faw.max(now) {
                            faw_bound += 1;
                        }
                        now = now.max(gate);
                        d.activate(sc, bank, row, now, rng.bernoulli(0.5))
                            .map_err(fault)?;
                        m.acts.push(now);
                    }
                    55..=79 => {
                        // A read or write to the open row at its gate.
                        let Some(open) = d.open_row(sc, bank) else {
                            continue;
                        };
                        let Some(gate) = d.earliest_column(sc, bank, open.row) else {
                            return Err(format!("{at}: open row without a column gate"));
                        };
                        now = now.max(gate);
                        m.bus_done = if rng.bernoulli(0.7) {
                            d.read(sc, bank, now).map_err(fault)?
                        } else {
                            d.write(sc, bank, now).map_err(fault)?
                        };
                    }
                    80..=84 => {
                        // REF, RFM or a bank-scoped RFM once every bank is closed.
                        let Some(gate) = d.earliest_refresh(sc) else {
                            for b in d.open_banks_mask(sc).ones() {
                                if let Some(g) = d.earliest_precharge(sc, b) {
                                    now = now.max(g);
                                    d.precharge(sc, b, now).map_err(fault)?;
                                }
                            }
                            continue;
                        };
                        now = now.max(gate);
                        match rng.below(3) {
                            0 => {
                                d.refresh(sc, now).map_err(fault)?;
                                m.blocked = now + t.t_rfc;
                            }
                            1 => {
                                d.rfm(sc, now).map_err(fault)?;
                                m.blocked = now + abo.stall + rfm_extra;
                            }
                            _ => {
                                let mask = BankMask::from_u64(1 + rng.below(0xFFFF));
                                now = now.max(d.earliest_rfm_banks(sc, mask).unwrap_or(now));
                                d.rfm_banks(sc, mask, now).map_err(fault)?;
                            }
                        }
                    }
                    85..=89 => now += 1 + rng.below(200),
                    90 => {
                        rfm_extra = rng.below(300);
                        d.inject_rfm_delay(rfm_extra);
                    }
                    91 => d.inject_rfm_drop(1 + rng.below(2) as u32),
                    92 => d
                        .inject_stuck_bank(sc, bank, now + rng.below(500))
                        .map_err(fault)?,
                    93 => d.inject_alert(sc, now).map_err(fault)?,
                    94 => d
                        .inject_counter_flip(
                            sc,
                            bank,
                            rng.below(u64::from(rows)) as u32,
                            rng.below(8) as u32,
                        )
                        .map_err(fault)?,
                    _ => now += rng.below(4),
                }
            }
            prop_ensure!(faw_bound > 0, "{name}: tFAW never bound an ACT");
        }
        Ok(())
    });
}

/// The scheduler index agrees with a from-scratch rebuild (and a valid
/// cached wake with a fresh recompute) on every cycle of a random
/// request stream, for every registry engine, under injected RFM
/// delays and drops, stuck banks and ALERTs, and right after a snapshot
/// restore into a freshly built controller. The wake and issue scans
/// take each sub-channel floor once; the recompute checks them.
#[test]
fn index_agrees_for_every_engine_across_faults_and_restore() {
    prop_check("index_agrees_for_every_engine_across_faults_and_restore", 1, |rng| {
        let geom = DramGeometry::tiny();
        let mapper = AddressMapper::new(geom, Mapping::paper_default());
        for (name, mit) in presets(80) {
            let policy = policies()[rng.below(4) as usize];
            let cfg = McConfig {
                seed: rng.next_u64(),
                page_policy: policy,
                ..McConfig::default()
            };
            let mut mc = build_probe_mc(mit, cfg);
            mc.dram_mut().inject_rfm_delay(rng.below(300));
            let cycles: Cycle = 6_000;
            let restore_at = 1_000 + rng.below(cycles - 2_000);
            let mut done: Vec<Completion> = Vec::new();
            let mut id = 0u64;
            for now in 0..cycles {
                let at = format!("{name}, {policy:?}, cycle {now}");
                match rng.below(500) {
                    0 => mc.dram_mut().inject_rfm_drop(1),
                    1 => mc
                        .dram_mut()
                        .inject_alert(rng.below(2) as u32, now)
                        .map_err(|e| format!("{at}: {e}"))?,
                    2 => {
                        let bank = rng.below(u64::from(geom.banks_per_subchannel)) as u32;
                        mc.dram_mut()
                            .inject_stuck_bank(rng.below(2) as u32, bank, now + rng.below(1_000))
                            .map_err(|e| format!("{at}: {e}"))?;
                    }
                    _ => {}
                }
                if now == restore_at {
                    let mut w = SnapshotWriter::new();
                    mc.save_state(&mut w);
                    let bytes = w.finish();
                    let mut fresh = build_probe_mc(mit, cfg);
                    let mut r = SnapshotReader::new(&bytes).map_err(|e| format!("{at}: {e}"))?;
                    fresh.load_state(&mut r).map_err(|e| format!("{at}: restore: {e}"))?;
                    fresh.debug_verify_index().map_err(|e| format!("{at}, after restore: {e}"))?;
                    mc = fresh;
                }
                maybe_enqueue(&mut mc, rng, &mapper, geom, &mut id, now, 0.4);
                mc.tick(now, &mut done).map_err(|e| format!("{at}: tick: {e}"))?;
                mc.debug_verify_index().map_err(|e| format!("{at}: {e}"))?;
            }
        }
        Ok(())
    });
}

/// The controller's snapshot bytes.
fn snapshot_bytes(mc: &MemoryController) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    mc.save_state(&mut w);
    w.finish()
}

/// A controller that keeps its wake caches — including the wake stored
/// after an issuing tick — against a cold twin that drops them before
/// every tick (`dram_mut`), so every twin tick is a full scheduling
/// pass. An 8-entry write queue puts the write-drain hysteresis marks
/// at 7 (start) and 1 (stop); the request stream alternates write-heavy
/// bursts, read-heavy stretches and idle gaps at rates the tiny device
/// can serve, so that the queues cross both marks again and again, and
/// requests keep landing between a published wake and its cycle. After
/// every cycle the two must agree on `McStats`, `DramStats`,
/// completions and snapshot bytes: a cached wake has to leave exactly
/// the state the full ticks it stands for would have.
#[test]
fn cached_wakes_match_a_cold_twin_across_the_drain_hysteresis() {
    prop_check("cached_wakes_match_a_cold_twin_across_the_drain_hysteresis", 8, |rng| {
        let mit = mitigations()[rng.below(4) as usize];
        let policy = policies()[rng.below(4) as usize];
        let cfg = McConfig {
            seed: rng.next_u64(),
            page_policy: policy,
            read_queue_capacity: 16,
            write_queue_capacity: 8,
            ..McConfig::default()
        };
        let mut mc = build_probe_mc(mit, cfg);
        let mut twin = mc.clone();
        let geom = DramGeometry::tiny();
        let lines = geom.capacity_bytes() / u64::from(geom.line_bytes);
        let mapper = AddressMapper::new(geom, Mapping::paper_default());
        // A small pool of lines, so rows are hit again and the queues
        // drain as well as fill.
        let pool: Vec<u64> = (0..48).map(|_| rng.below(lines)).collect();
        let (mut done, mut twin_done) = (Vec::new(), Vec::new());
        let (mut id, mut full_write_queue, mut early_arrivals) = (0u64, 0u32, 0u32);
        for now in 0..6_000u64 {
            let at = format!("{mit:?}, {policy:?}, cycle {now}");
            // (arrival probability, write share) per 300-cycle phase.
            let (p, writes) = match now / 400 % 4 {
                0 => (0.08, 0.9),
                1 => (0.04, 0.2),
                2 => (0.06, 0.5),
                _ => (0.005, 0.5),
            };
            if rng.bernoulli(p) {
                let kind = if rng.bernoulli(writes) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let line = pool[rng.below(pool.len() as u64) as usize];
                let addr = PhysAddr::from_line_index(line, geom.line_bytes);
                if now > 0 && mc.next_wake(now - 1).is_some_and(|w| w > now) {
                    early_arrivals += 1;
                }
                let accepted = mc.enqueue_phys(id, kind, addr, &mapper, now);
                prop_ensure!(
                    accepted == twin.enqueue_phys(id, kind, addr, &mapper, now),
                    "{at}: the twin disagreed on accepting request {id}"
                );
                if accepted {
                    id += 1;
                } else if kind == AccessKind::Write {
                    full_write_queue += 1;
                }
            }
            twin.dram_mut();
            let issued = mc.tick(now, &mut done).map_err(|e| format!("{at}: {e}"))?;
            let twin_issued = twin
                .tick(now, &mut twin_done)
                .map_err(|e| format!("{at}: twin: {e}"))?;
            prop_ensure!(issued == twin_issued, "{at}: issued {issued}, twin {twin_issued}");
            prop_ensure!(mc.stats() == twin.stats(), "{at}: McStats diverged");
            prop_ensure!(mc.dram().stats() == twin.dram().stats(), "{at}: DramStats diverged");
            prop_ensure!(done == twin_done, "{at}: completions diverged");
            prop_ensure!(
                snapshot_bytes(&mc) == snapshot_bytes(&twin),
                "{at}: snapshot bytes diverged"
            );
            mc.debug_verify_index().map_err(|e| format!("{at}: {e}"))?;
        }
        prop_ensure!(full_write_queue > 0, "the write queue never filled");
        prop_ensure!(early_arrivals > 0, "no request landed before a published wake");
        prop_ensure!(mc.dram().stats().writes > 0, "no write was served");
        Ok(())
    });
}
