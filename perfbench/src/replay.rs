//! Per-layer costs, taken from outside the simulator.
//!
//! Every timing here is of a call the benchmark itself makes into a
//! layer's public API, replaying what a traced pass captured: trace
//! records into fresh generators, a standalone `Core` and
//! `StreamPrefetcher`; the command stream into a fresh `DramDevice`,
//! standalone engines, checkers and flip planes; attack cells through a
//! benchmark-owned `enqueue`/`tick` loop. A replay that does not
//! reproduce the run it replays (different records, different command
//! counts, a protocol error, or device-level faults the replay cannot
//! see) leaves its layer unmeasured on that workload rather than
//! reporting an approximation.

use crate::capture::{CellCapture, Cmd, CmdKind, Source};
use crate::workload::{CellOutcome, CellTiming, Workload};
use mopac::checker::RowhammerChecker;
use mopac::engine::{build_engine, MitigationEngine, RecoveryScope, TimingDemands};
use mopac::EngineRegistry;
use mopac_cpu::core::{Core, CoreParams};
use mopac_cpu::prefetch::StreamPrefetcher;
use mopac_cpu::trace::TraceRecord;
use mopac_dram::device::{DramConfig, DramDevice, DramStats};
use mopac_dram::flip::FlipPlane;
use mopac_memctrl::controller::{AccessKind, McConfig, MemRequest, MemoryController, PagePolicy};
use mopac_memctrl::mapping::AddressMapper;
use mopac_sim::attack::AttackConfig;
use mopac_sim::experiment::build_traces;
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::rng::DetRng;
use mopac_workloads::attack::AttackPattern;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// REF commands per refresh window (JEDEC DDR5: 8192 REFs per tREFW);
/// each REF refreshes `rows_per_bank / 8192` rows of every bank.
const REF_GROUPS: u32 = 8192;

/// Per-layer metric names, units and directions, in report order.
#[must_use]
pub fn per_layer_specs() -> Vec<(String, &'static str, &'static str)> {
    let registry = EngineRegistry::builtin();
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));
    add("workloads.generator.ns_per_record", "ns", "lower");
    add("workloads.generator.records", "count", "lower");
    add("workloads.attack.ns_per_target", "ns", "lower");
    add("cpu.core.ns_per_instr", "ns", "lower");
    add("cpu.prefetch.ns_per_observe", "ns", "lower");
    add("cpu.prefetch.useful_ratio", "ratio", "higher");
    add("memctrl.mapping.ns_per_decode", "ns", "lower");
    add("memctrl.enqueue_ns", "ns", "lower");
    for spec in registry.specs().iter().filter(|s| s.tracks()) {
        add(
            &format!("memctrl.tick_ns_per_cycle.{}", spec.name),
            "ns",
            "lower",
        );
    }
    add("mc.idle_with_work_ratio", "ratio", "lower");
    add("mc.read_latency_p50", "cycles", "lower");
    add("mc.read_latency_p99", "cycles", "lower");
    add("dram.act_ns", "ns", "lower");
    add("dram.pre_ns", "ns", "lower");
    add("dram.ref_ns", "ns", "lower");
    add("dram.rfm_ns", "ns", "lower");
    add("dram.flip.ns_per_act", "ns", "lower");
    add("dram.activates", "count", "higher");
    add("dram.alerts", "count", "lower");
    add("dram.blocked_bank_cycles", "count", "lower");
    add("dram.corrupted_reads", "count", "lower");
    for spec in registry.specs() {
        add(
            &format!("core.engine.ns_per_act.{}", spec.name),
            "ns",
            "lower",
        );
    }
    add("core.checker.ns_per_act", "ns", "lower");
    add("engine.mitigations", "count", "lower");
    add("sim.setup.traces_s", "s", "lower");
    add("sim.setup.system_new_s", "s", "lower");
    add("sim.setup.attack_new_s", "s", "lower");
    add("kernel.sync_rounds", "count", "lower");
    add("kernel.batch_len_p50", "cycles", "higher");
    add("sim.fault.events_applied", "count", "lower");
    add("types.snapshot.save_ms", "ms", "lower");
    add("types.snapshot.restore_ms", "ms", "lower");
    add("types.snapshot.kb", "KB", "lower");
    add("trace_overhead", "ratio", "lower");
    v
}

/// Per-layer results: `None` marks a layer unmeasured on the workload.
#[derive(Debug, Default)]
pub struct Layers {
    values: HashMap<String, Option<f64>>,
}

impl Layers {
    fn set(&mut self, name: &str, v: Option<f64>) {
        self.values.insert(name.to_string(), v);
    }

    /// The value of `name`, `None` if unmeasured.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().flatten()
    }
}

/// Times single calls with `Instant`, subtracting the cost of the
/// timing itself (calibrated once).
#[derive(Debug, Clone, Copy)]
struct CallTimer {
    overhead_ns: f64,
}

impl CallTimer {
    fn calibrate() -> Self {
        let n = 20_000u32;
        let best = (0..5)
            .map(|_| {
                let mut total = 0u128;
                for _ in 0..n {
                    let t = Instant::now();
                    black_box(());
                    total += t.elapsed().as_nanos();
                }
                total as f64 / f64::from(n)
            })
            .fold(f64::INFINITY, f64::min);
        Self { overhead_ns: best }
    }
}

/// Accumulated time over `calls` timed calls.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    ns: f64,
    calls: u64,
}

impl Acc {
    fn add(&mut self, t: Instant, timer: CallTimer) {
        self.ns += t.elapsed().as_nanos() as f64 - timer.overhead_ns;
        self.calls += 1;
    }

    fn add_bulk(&mut self, t: Instant, calls: u64) {
        self.ns += t.elapsed().as_nanos() as f64;
        self.calls += calls;
    }

    fn merge(self, other: Acc) -> Acc {
        Acc {
            ns: self.ns + other.ns,
            calls: self.calls + other.calls,
        }
    }

    fn per_call(self) -> Option<f64> {
        (self.calls > 0).then(|| (self.ns / self.calls as f64).max(0.0))
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// For each ACT in `cmds`, whether the next precharge of its bank
/// carried a counter update — the controller's MoPAC-C coin, which the
/// trace records only on the PRE.
fn act_selected(cmds: &[&Cmd]) -> Vec<bool> {
    let mut next_cu: HashMap<(u32, u32), bool> = HashMap::new();
    let mut out = vec![false; cmds.len()];
    for (i, c) in cmds.iter().enumerate().rev() {
        match c.kind {
            CmdKind::Pre => {
                next_cu.insert((c.sc, c.bank), false);
            }
            CmdKind::PreCu => {
                next_cu.insert((c.sc, c.bank), true);
            }
            CmdKind::Act => out[i] = next_cu.get(&(c.sc, c.bank)).copied().unwrap_or(false),
            CmdKind::Ref | CmdKind::Rfm => {}
        }
    }
    out
}

#[derive(Debug, Default)]
struct DramAcc {
    act: Acc,
    pre: Acc,
    refresh: Acc,
    rfm: Acc,
}

/// Replays one cell's command stream into fresh devices and returns
/// their summed statistics; `Err` on a protocol error or when the run
/// injected device-level faults, which a command replay cannot see.
fn replay_dram(cap: &CellCapture, timer: CallTimer, acc: &mut DramAcc) -> MopacResult<DramStats> {
    if cap.result.device_faults > 0 {
        return Err(MopacError::internal("device-level faults were injected"));
    }
    let bank_scope =
        TimingDemands::for_config(&cap.mitigation).recovery_scope == RecoveryScope::Bank;
    let mut total = DramStats::default();
    for (ch, &seed) in cap.device_seeds.iter().enumerate() {
        let ch = ch as u32;
        let mut dev = DramDevice::new(DramConfig {
            geometry: cap.geometry,
            mitigation: cap.mitigation,
            enable_checker: cap.checker,
            seed,
            channel: ch,
            flip: cap.flip,
        });
        let cmds: Vec<&Cmd> = cap.commands.iter().filter(|c| c.channel == ch).collect();
        let selected = act_selected(&cmds);
        for (c, &sel) in cmds.iter().zip(&selected) {
            match c.kind {
                CmdKind::Act => {
                    let t = Instant::now();
                    dev.activate(c.sc, c.bank, c.row, c.cycle, sel)?;
                    acc.act.add(t, timer);
                }
                CmdKind::Pre | CmdKind::PreCu => {
                    let t = Instant::now();
                    dev.precharge(c.sc, c.bank, c.cycle)?;
                    acc.pre.add(t, timer);
                }
                CmdKind::Ref => {
                    let t = Instant::now();
                    dev.refresh(c.sc, c.cycle)?;
                    acc.refresh.add(t, timer);
                }
                CmdKind::Rfm => {
                    let targets = dev.alerting_banks(c.sc);
                    let t = Instant::now();
                    if bank_scope && !targets.is_empty() {
                        dev.rfm_banks(c.sc, targets, c.cycle)?;
                    } else {
                        dev.rfm(c.sc, c.cycle)?;
                    }
                    acc.rfm.add(t, timer);
                }
            }
        }
        total.accumulate(&dev.stats());
    }
    Ok(total)
}

/// Whether replayed device statistics reproduce the run's.
fn reproduces(total: &DramStats, cap: &CellCapture) -> bool {
    let cu = cap
        .commands
        .iter()
        .filter(|c| c.kind == CmdKind::PreCu)
        .count() as u64;
    let r = &cap.result;
    total.activates == r.acts
        && total.refreshes == r.refs
        && total.rfms == r.rfms
        && total.mitigations == r.mitigations
        && total.alerts() == r.alerts
        && total.precharges_cu == cu
}

/// The replayed devices' ACT, REF and RFM counts, for the benchmark's
/// tests.
///
/// # Errors
///
/// See [`replay_dram`].
pub fn replay_dram_counts(cap: &CellCapture) -> MopacResult<(u64, u64, u64)> {
    let total = replay_dram(cap, CallTimer { overhead_ns: 0.0 }, &mut DramAcc::default())?;
    Ok((total.activates, total.refreshes, total.rfms))
}

/// Replays the command stream into standalone per-bank engines.
fn replay_engine(cap: &CellCapture, timer: CallTimer, acc: &mut Acc) {
    let rows = cap.geometry.rows_per_bank;
    let per_group = rows.div_ceil(REF_GROUPS).max(1);
    let mut engines: HashMap<(u32, u32, u32), Box<dyn MitigationEngine>> = HashMap::new();
    for c in &cap.commands {
        let key = (c.channel, c.sc, c.bank);
        match c.kind {
            CmdKind::Act => {
                let seed = cap.device_seeds[c.channel as usize];
                let e = engines.entry(key).or_insert_with(|| {
                    let flat = u64::from(cap.geometry.flat_bank(c.sc, c.bank));
                    build_engine(&cap.mitigation, rows, DetRng::from_seed(seed).fork(flat))
                });
                let t = Instant::now();
                e.on_activate(c.row, 0.0);
                acc.add(t, timer);
            }
            CmdKind::Pre | CmdKind::PreCu => {
                if let Some(e) = engines.get_mut(&key) {
                    e.on_precharge(c.row, c.kind == CmdKind::PreCu, 0.0);
                }
            }
            CmdKind::Ref => {
                let range = c.row..(c.row + per_group).min(rows);
                for ((ch, sc, _), e) in &mut engines {
                    if *ch == c.channel && *sc == c.sc {
                        black_box(e.on_ref(range.clone()));
                    }
                }
            }
            CmdKind::Rfm => {
                for ((ch, sc, _), e) in &mut engines {
                    if *ch == c.channel && *sc == c.sc && e.alert_cause().is_some() {
                        black_box(e.service_abo());
                    }
                }
            }
        }
    }
}

/// Replays ACTs and REFs into standalone per-bank checkers.
fn replay_checker(cap: &CellCapture, timer: CallTimer, acc: &mut Acc) {
    let rows = cap.geometry.rows_per_bank;
    let per_group = rows.div_ceil(REF_GROUPS).max(1);
    let t_rh = cap.mitigation.t_rh.min(u64::from(u32::MAX)) as u32;
    let mut checkers: HashMap<(u32, u32, u32), RowhammerChecker> = HashMap::new();
    for c in &cap.commands {
        match c.kind {
            CmdKind::Act => {
                let ck = checkers
                    .entry((c.channel, c.sc, c.bank))
                    .or_insert_with(|| RowhammerChecker::new(rows, t_rh));
                let t = Instant::now();
                ck.on_activate(c.row);
                acc.add(t, timer);
            }
            CmdKind::Ref => {
                let range = c.row..(c.row + per_group).min(rows);
                for ((ch, sc, _), ck) in &mut checkers {
                    if *ch == c.channel && *sc == c.sc {
                        ck.on_refresh_range(range.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

/// Replays ACTs and REFs into standalone per-bank flip planes.
fn replay_flip(cap: &CellCapture, timer: CallTimer, acc: &mut Acc) {
    let Some(cfg) = cap.flip else { return };
    let rows = cap.geometry.rows_per_bank;
    let per_group = rows.div_ceil(REF_GROUPS).max(1);
    let seed = cap.device_seeds[0];
    let mut planes: HashMap<(u32, u32), FlipPlane> = HashMap::new();
    for c in &cap.commands {
        match c.kind {
            CmdKind::Act => {
                let flat = cap.geometry.flat_bank(c.sc, c.bank);
                let p = planes
                    .entry((c.sc, c.bank))
                    .or_insert_with(|| FlipPlane::new(cfg, rows, FlipPlane::bank_salt(seed, flat)));
                let t = Instant::now();
                black_box(p.on_activate(c.row));
                acc.add(t, timer);
            }
            CmdKind::Ref => {
                let range = c.row..(c.row + per_group).min(rows);
                for ((sc, _), p) in &mut planes {
                    if *sc == c.sc {
                        p.on_refresh_range(range.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

/// The same construction [`mopac_sim::attack::AttackRun::new`] performs.
fn attack_controller(cfg: &AttackConfig) -> MemoryController {
    let dram = DramDevice::new(DramConfig {
        geometry: cfg.geometry.channel_view(),
        mitigation: cfg.mitigation,
        enable_checker: cfg.enable_checker,
        seed: cfg.seed,
        channel: 0,
        flip: cfg.flip,
    });
    MemoryController::new(
        dram,
        McConfig {
            page_policy: PagePolicy::Closed,
            read_queue_capacity: cfg.window,
            write_queue_capacity: 8,
            starvation_cycles: 100_000,
            seed: cfg.seed ^ 0xF00,
        },
    )
}

/// Per-call costs of the benchmark-owned attack loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopCost {
    timer: CallTimer,
    enqueue: Acc,
    tick: Acc,
}

impl LoopCost {
    /// Empty costs, with the call timer calibrated.
    #[must_use]
    pub fn new() -> Self {
        Self::with_timer(CallTimer::calibrate())
    }

    fn with_timer(timer: CallTimer) -> Self {
        Self {
            timer,
            enqueue: Acc::default(),
            tick: Acc::default(),
        }
    }
}

impl Default for LoopCost {
    fn default() -> Self {
        Self::new()
    }
}

/// The attack drive loop, owned by the benchmark: keeps the window
/// full with `enqueue` and advances with `tick`, exactly as
/// `AttackRun::run_until` does. Returns the controller at the end.
///
/// # Errors
///
/// Propagates controller errors.
pub fn attack_loop(
    cfg: &AttackConfig,
    pattern: &mut dyn AttackPattern,
    cost: &mut LoopCost,
) -> MopacResult<MemoryController> {
    let timer = cost.timer;
    let mut mc = attack_controller(cfg);
    let mut done = Vec::new();
    let mut id = 0u64;
    for now in 0..cfg.cycles {
        while mc.queued() < cfg.window {
            let addr = pattern.next_target();
            let req = MemRequest {
                id,
                kind: AccessKind::Read,
                addr,
            };
            let t = Instant::now();
            let accepted = mc.enqueue(req, now);
            cost.enqueue.add(t, timer);
            if !accepted {
                break;
            }
            id += 1;
        }
        done.clear();
        let t = Instant::now();
        mc.tick(now, &mut done)?;
        cost.tick.add(t, timer);
    }
    Ok(mc)
}

fn sum<F: Fn(&CellCapture) -> u64>(caps: &[&CellCapture], f: F) -> u64 {
    caps.iter().map(|c| f(c)).sum()
}

/// Computes every per-layer metric for `workload` from an untraced pass
/// (host timings of construction and snapshots), a traced pass (the
/// captures) and the traced ÷ untraced pass wall time.
///
/// # Errors
///
/// Propagates errors from rebuilding trace generators.
pub fn layers(
    workload: Workload,
    untraced: &[CellOutcome],
    traced: &[CellOutcome],
    trace_overhead: f64,
    diverged: &mut Vec<String>,
) -> MopacResult<Layers> {
    let timer = CallTimer::calibrate();
    let caps: Vec<&CellCapture> = traced.iter().filter_map(|o| o.capture.as_ref()).collect();
    let mut out = Layers::default();

    // workloads + cpu + mapping: rebuild each system cell's generators
    // and replay the records they produced.
    let mut gen = Acc::default();
    let mut gen_ok = true;
    let mut core_acc = Acc::default();
    let mut pf = Acc::default();
    let mut decode = Acc::default();
    let mut records_total = 0u64;
    for cap in &caps {
        let Source::Traces { cfg, mix } = &cap.source else {
            continue;
        };
        let mut fresh = build_traces(mix, cfg)?;
        let mapper = AddressMapper::new(cfg.geometry, cfg.mapping);
        for (src, captured) in fresh.iter_mut().zip(&cap.records) {
            let captured = captured.borrow();
            let n = captured.len();
            records_total += n as u64;
            let mut buf: Vec<TraceRecord> = Vec::with_capacity(n);
            let t = Instant::now();
            for _ in 0..n {
                buf.push(src.next_record());
            }
            gen.add_bulk(t, n as u64);
            gen_ok &= buf == *captured;

            let t = Instant::now();
            for r in captured.iter() {
                black_box(mapper.decode(black_box(r.addr)));
            }
            decode.add_bulk(t, n as u64);

            core_acc = core_acc.merge(replay_core(&captured));

            let mut p = StreamPrefetcher::new(cfg.prefetch_trackers, cfg.prefetch_distance);
            let line_bytes = cfg.geometry.line_bytes;
            let reads = captured.iter().filter(|r| !r.is_write).count() as u64;
            let t = Instant::now();
            for r in captured.iter().filter(|r| !r.is_write) {
                black_box(p.observe(r.addr.line_index(line_bytes)));
            }
            pf.add_bulk(t, reads);
        }
    }
    if !gen_ok {
        diverged.push("workloads.generator: regenerated records differ".into());
    }
    out.set(
        "workloads.generator.ns_per_record",
        gen.per_call().filter(|_| gen_ok),
    );
    out.set(
        "workloads.generator.records",
        (records_total > 0).then_some(records_total as f64),
    );
    out.set("cpu.core.ns_per_instr", core_acc.per_call());
    out.set("cpu.prefetch.ns_per_observe", pf.per_call());
    let pf_issued = sum(&caps, |c| c.prefetch.issued);
    out.set(
        "cpu.prefetch.useful_ratio",
        ratio(
            sum(&caps, |c| c.prefetch.hits + c.prefetch.late_hits),
            pf_issued,
        ),
    );
    out.set("memctrl.mapping.ns_per_decode", decode.per_call());

    // Attack patterns, standalone.
    let mut targets = Acc::default();
    for cap in &caps {
        let Source::Pattern { spec, cfg } = &cap.source else {
            continue;
        };
        let mut p = spec.build(cfg.geometry);
        let t = Instant::now();
        for _ in 0..cap.targets {
            black_box(p.next_target());
        }
        targets.add_bulk(t, cap.targets);
    }
    out.set("workloads.attack.ns_per_target", targets.per_call());

    // The benchmark-owned attack loop, per engine.
    let mut costs: HashMap<&str, LoopCost> = HashMap::new();
    let mut loop_ok = true;
    for cap in &caps {
        let Source::Pattern { spec, cfg } = &cap.source else {
            continue;
        };
        if cfg.flip.is_some() {
            continue;
        }
        let mut p = spec.build(cfg.geometry);
        let cost = costs
            .entry(cap.engine)
            .or_insert_with(|| LoopCost::with_timer(timer));
        let mc = attack_loop(cfg, p.as_mut(), cost)?;
        let s = mc.dram().stats();
        loop_ok &= s.activates == cap.result.acts
            && s.refreshes == cap.result.refs
            && s.rfms == cap.result.rfms
            && s.mitigations == cap.result.mitigations
            && mc.dram().violations() == cap.result.violations;
    }
    if !loop_ok {
        diverged.push("memctrl: benchmark-owned attack loop differs from AttackRun".into());
    }
    let enqueue = costs
        .values()
        .fold(Acc::default(), |a, c| a.merge(c.enqueue));
    out.set("memctrl.enqueue_ns", enqueue.per_call().filter(|_| loop_ok));
    for spec in EngineRegistry::builtin()
        .specs()
        .iter()
        .filter(|s| s.tracks())
    {
        let v = costs
            .get(spec.name)
            .and_then(|c| c.tick.per_call())
            .filter(|_| loop_ok);
        out.set(&format!("memctrl.tick_ns_per_cycle.{}", spec.name), v);
    }

    // Controller statistics from the traced pass.
    out.set(
        "mc.idle_with_work_ratio",
        ratio(
            sum(&caps, |c| c.counters.idle_with_work),
            sum(&caps, |c| c.subchannel_cycles),
        ),
    );
    let mut lat = crate::capture::Buckets::default();
    let mut batch = crate::capture::Buckets::default();
    for cap in &caps {
        lat.merge(&cap.read_latency);
        batch.merge(&cap.batch_len);
    }
    out.set("mc.read_latency_p50", lat.quantile(0.50).map(|v| v as f64));
    out.set("mc.read_latency_p99", lat.quantile(0.99).map(|v| v as f64));

    // DRAM: the command stream into fresh devices.
    let mut dram = DramAcc::default();
    let mut dram_ok = true;
    for cap in &caps {
        let why = match replay_dram(cap, timer, &mut dram) {
            Ok(total) if reproduces(&total, cap) => continue,
            Ok(_) => "replayed command counts differ".to_string(),
            Err(e) => e.to_string(),
        };
        diverged.push(format!("dram replay of a {} cell: {why}", cap.engine));
        dram_ok = false;
    }
    let dram_metric = |a: Acc| a.per_call().filter(|_| dram_ok);
    out.set("dram.act_ns", dram_metric(dram.act));
    out.set("dram.pre_ns", dram_metric(dram.pre));
    out.set("dram.ref_ns", dram_metric(dram.refresh));
    out.set("dram.rfm_ns", dram_metric(dram.rfm));
    let mut flip = Acc::default();
    for cap in &caps {
        replay_flip(cap, timer, &mut flip);
    }
    out.set("dram.flip.ns_per_act", flip.per_call());
    out.set(
        "dram.activates",
        Some(sum(&caps, |c| c.counters.activates) as f64),
    );
    out.set(
        "dram.alerts",
        Some(sum(&caps, |c| c.counters.alerts) as f64),
    );
    out.set(
        "dram.blocked_bank_cycles",
        Some(sum(&caps, |c| c.counters.blocked_bank_cycles) as f64),
    );
    out.set(
        "dram.corrupted_reads",
        Some(sum(&caps, |c| c.result.corrupted_reads) as f64),
    );

    // Engines and the checker, standalone.
    for spec in EngineRegistry::builtin().specs() {
        let mut acc = Acc::default();
        for cap in caps.iter().filter(|c| c.engine == spec.name) {
            replay_engine(cap, timer, &mut acc);
        }
        out.set(
            &format!("core.engine.ns_per_act.{}", spec.name),
            acc.per_call(),
        );
    }
    let mut checker = Acc::default();
    for cap in caps.iter().filter(|c| c.checker && c.mitigation.tracks()) {
        replay_checker(cap, timer, &mut checker);
    }
    out.set("core.checker.ns_per_act", checker.per_call());
    out.set(
        "engine.mitigations",
        Some(sum(&caps, |c| c.counters.engine_mitigations) as f64),
    );

    // Simulation set-up, kernel and faults.
    let untraced_sum =
        |f: fn(&CellTiming) -> f64| -> f64 { untraced.iter().map(|o| f(&o.timing)).sum() };
    let systems = caps
        .iter()
        .any(|c| matches!(c.source, Source::Traces { .. }));
    let attacks = caps
        .iter()
        .any(|c| matches!(c.source, Source::Pattern { .. }));
    out.set(
        "sim.setup.traces_s",
        systems.then(|| untraced_sum(|x| x.traces_s)),
    );
    out.set(
        "sim.setup.system_new_s",
        systems.then(|| untraced_sum(|x| x.system_new_s)),
    );
    out.set(
        "sim.setup.attack_new_s",
        attacks.then(|| untraced_sum(|x| x.attack_new_s)),
    );
    let kernel = caps.iter().any(|c| c.event_kernel);
    out.set(
        "kernel.sync_rounds",
        kernel.then(|| sum(&caps, |c| c.counters.sync_rounds) as f64),
    );
    out.set(
        "kernel.batch_len_p50",
        batch.quantile(0.50).map(|v| v as f64),
    );
    let faults = workload == Workload::Mc4Faults;
    out.set(
        "sim.fault.events_applied",
        faults.then(|| sum(&caps, |c| c.result.faults_applied) as f64),
    );

    // Snapshots (untraced: the traced ring would inflate them).
    let snaps: u64 = untraced.iter().map(|o| o.timing.snapshots).sum();
    let restores: u64 = untraced.iter().map(|o| o.timing.restores).sum();
    let bytes: u64 = untraced.iter().map(|o| o.timing.snapshot_bytes).sum();
    out.set(
        "types.snapshot.save_ms",
        (snaps > 0).then(|| untraced_sum(|x| x.save_s) * 1e3 / snaps as f64),
    );
    out.set(
        "types.snapshot.restore_ms",
        (restores > 0).then(|| untraced_sum(|x| x.restore_s) * 1e3 / restores as f64),
    );
    out.set(
        "types.snapshot.kb",
        (snaps > 0).then(|| bytes as f64 / 1024.0 / snaps as f64),
    );
    out.set(
        "trace_overhead",
        trace_overhead.is_finite().then_some(trace_overhead),
    );
    Ok(out)
}

/// Replays one core's records into a standalone [`Core`] whose loads
/// complete at once; the calls are its instructions retired.
fn replay_core(records: &[TraceRecord]) -> Acc {
    let mut core = Core::new(CoreParams::paper_default());
    let mut pushed = 0u64;
    let mut id = 0u64;
    let t = Instant::now();
    for r in records {
        let mut gap = r.gap;
        while gap > 0 {
            let free = core.rob_free() as u32;
            if free == 0 {
                core.retire();
                continue;
            }
            let take = gap.min(free);
            core.push_instrs(take);
            gap -= take;
            pushed += u64::from(take);
        }
        if !r.is_write {
            while core.rob_free() == 0 {
                core.retire();
            }
            core.push_read(id);
            core.on_complete(id);
            id += 1;
            pushed += 1;
        }
        core.retire();
    }
    while core.retired() < pushed {
        core.retire();
    }
    Acc {
        ns: t.elapsed().as_nanos() as f64,
        calls: core.retired(),
    }
}
