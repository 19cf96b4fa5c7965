//! The full-system simulator: 8 trace-driven cores, optional shared LLC,
//! the memory controller and the DRAM device, advanced on the DRAM
//! clock by one of two kernels:
//!
//! * [`KernelMode::EventDriven`] (the default) ticks normally while
//!   anything is happening, but when a cycle makes *zero* progress (no
//!   fault event, no DRAM command, no completion delivery, no fetch, no
//!   retire) it jumps `now` straight to the earliest external wake —
//!   the minimum of the fault injector's next event, the earliest
//!   in-flight completion, and [`MemoryController::next_wake`] — and
//!   compensates the per-cycle statistics in bulk; while every core is
//!   deep inside an instruction gap it fast-forwards through a
//!   driver-only loop. Skipped cycles are provably no-ops, so the
//!   results are bit-identical to lockstep.
//! * [`KernelMode::Lockstep`] ticks every DRAM cycle; it is the golden
//!   reference the equivalence suite checks the fast kernel against.

use crate::fault::{CorruptingTrace, FaultInjector, FaultPlan};
use crate::shard::ChannelSet;
use mopac::config::MitigationConfig;
use mopac_cpu::core::{Core, CoreParams};
use mopac_cpu::llc::{CacheAccess, Llc, LlcStats};
use mopac_cpu::prefetch::StreamPrefetcher;
use mopac_cpu::trace::TraceSource;
use mopac_dram::device::{DramConfig, DramDevice, DramStats};
use mopac_memctrl::controller::{
    AccessKind, Completion, McConfig, McStats, MemRequest, MemoryController,
};
use mopac_memctrl::mapping::{AddressMapper, Mapping};
use mopac_types::addr::PhysAddr;
use mopac_types::collections::DetMap;
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::geometry::DramGeometry;
use mopac_types::obs::{Counter, MetricsSink, MetricsSnapshot, SinkConfig};
use mopac_types::snapshot::{expect_exhausted, SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::time::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the system advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Skip provably idle cycles by jumping to the next wake point.
    #[default]
    EventDriven,
    /// Tick every DRAM cycle (the golden reference kernel).
    Lockstep,
}

/// System-level configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// DRAM organization (Table 3 default).
    pub geometry: DramGeometry,
    /// Mitigation under test.
    pub mitigation: MitigationConfig,
    /// Memory-controller configuration (page policy etc.).
    pub mc: McConfig,
    /// Address mapping.
    pub mapping: Mapping,
    /// Instructions each core must retire.
    pub instrs_per_core: u64,
    /// Route traces through the shared LLC (calibrated Table 4 traces
    /// bypass it; raw-address applications enable it).
    pub use_llc: bool,
    /// Run the Rowhammer oracle during the run.
    pub enable_checker: bool,
    /// Master seed.
    pub seed: u64,
    /// Hard cycle cap (safety net for misconfigured runs).
    pub max_cycles: Cycle,
    /// Stream-prefetcher lookahead in lines (0 disables prefetching).
    pub prefetch_distance: u64,
    /// Stream trackers per core.
    pub prefetch_trackers: usize,
    /// Livelock watchdog: error out if no core retires an instruction
    /// for this many consecutive cycles (0 disables the watchdog).
    pub livelock_window: Cycle,
    /// Optional deterministic fault schedule applied during the run.
    pub fault_plan: Option<FaultPlan>,
    /// Simulation kernel (event-driven by default; lockstep is the
    /// golden reference).
    pub kernel: KernelMode,
    /// Observability: `Some` enables the metrics sink (registry +
    /// trace ring) on the controller and device. `None` (the default)
    /// keeps every sink call a no-op; runs are bit-identical either
    /// way — the sink only records alongside the simulation.
    pub metrics: Option<SinkConfig>,
    /// Channels always tick serially, in channel order; this field
    /// stays only because existing struct literals set it. 0 and 1 are
    /// accepted, and [`System::new`] rejects anything larger with
    /// [`MopacError::Config`] rather than silently running serial.
    pub shard_threads: usize,
}

impl SystemConfig {
    /// The paper's system with the given mitigation and a per-core
    /// instruction budget.
    #[must_use]
    pub fn paper_default(mitigation: MitigationConfig, instrs_per_core: u64) -> Self {
        Self {
            geometry: DramGeometry::ddr5_32gb(),
            mitigation,
            mc: McConfig::default(),
            mapping: Mapping::paper_default(),
            instrs_per_core,
            use_llc: false,
            enable_checker: false,
            seed: 0x5151,
            max_cycles: 2_000_000_000,
            prefetch_distance: 16,
            prefetch_trackers: 8,
            livelock_window: 10_000_000,
            fault_plan: None,
            kernel: KernelMode::EventDriven,
            metrics: None,
            shard_threads: 0,
        }
    }
}

/// Per-core results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreResult {
    /// Instructions retired when the budget was reached.
    pub instructions: u64,
    /// Cycle at which the budget was crossed.
    pub finish_cycle: Cycle,
    /// Instructions per DRAM cycle up to the finish.
    pub ipc: f64,
}

mopac_types::counter_struct! {
    /// Prefetcher effectiveness counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PrefetchStats {
        /// Prefetch requests sent to memory.
        pub issued: u64 => PrefetchIssued,
        /// Demand reads fully absorbed by a completed prefetch.
        pub hits: u64 => PrefetchHits,
        /// Demand reads that piggybacked on an in-flight prefetch.
        pub late_hits: u64 => PrefetchLateHits,
    }
}

/// Results of one simulation run. `PartialEq` is exact (including the
/// `f64` fields): the kernel-equivalence suite asserts the event-driven
/// and lockstep kernels produce bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-core outcomes.
    pub cores: Vec<CoreResult>,
    /// Total cycles simulated (last finisher).
    pub cycles: Cycle,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Aggregated mitigation statistics.
    pub mitigation: mopac::bank::MitigationStats,
    /// Rowhammer oracle violations (0 when disabled).
    pub violations: u64,
    /// Mean read latency (cycles).
    pub avg_read_latency: f64,
    /// Prefetcher counters.
    pub prefetch: PrefetchStats,
    /// Fault-injection events applied during the run.
    pub faults_applied: u64,
    /// Trace records corrupted by an injected `TraceCorruption` fault.
    pub trace_corruptions: u64,
}

impl RunResult {
    /// Weighted speedup of this run relative to `base` (mean per-core
    /// IPC ratio); the paper's performance metric.
    #[must_use]
    pub fn weighted_speedup_vs(&self, base: &RunResult) -> f64 {
        assert_eq!(self.cores.len(), base.cores.len(), "core count mismatch");
        let n = self.cores.len() as f64;
        self.cores
            .iter()
            .zip(&base.cores)
            .map(|(a, b)| a.ipc / b.ipc)
            .sum::<f64>()
            / n
    }

    /// Slowdown relative to `base` (1 - weighted speedup). Positive
    /// values mean this run is slower.
    #[must_use]
    pub fn slowdown_vs(&self, base: &RunResult) -> f64 {
        1.0 - self.weighted_speedup_vs(base)
    }

    /// Row-buffer hit rate observed at the DRAM (column commands that
    /// did not need a fresh activation).
    #[must_use]
    pub fn rbhr(&self) -> f64 {
        let cols = self.dram.reads + self.dram.writes;
        if cols == 0 {
            0.0
        } else {
            1.0 - self.dram.activates.min(cols) as f64 / cols as f64
        }
    }

    /// Turns oracle escapes into a structured diagnostic: `Ok(())` when
    /// the run saw no Rowhammer-checker violations, otherwise
    /// [`MopacError::OracleViolation`] carrying the count. Fault
    /// campaigns report this instead of asserting.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::OracleViolation`] if any row crossed the
    /// Rowhammer threshold without mitigation.
    pub fn check_oracle(&self) -> MopacResult<()> {
        if self.violations == 0 {
            Ok(())
        } else {
            Err(MopacError::OracleViolation {
                violations: self.violations,
                detail: format!(
                    "{} row(s) crossed the Rowhammer threshold unmitigated \
                     ({} fault event(s) were injected)",
                    self.violations, self.faults_applied
                ),
            })
        }
    }

    /// Activations per refresh interval per bank (Table 4's APRI).
    #[must_use]
    pub fn apri(&self, banks: u32) -> f64 {
        let refs_per_sc = self.dram.refreshes.max(1) / 2;
        self.dram.activates as f64 / refs_per_sc as f64 / f64::from(banks)
    }
}

/// State of one prefetched line.
#[derive(Debug, Clone, Copy)]
struct PfEntry {
    ready: bool,
    /// ROB load waiting for this prefetch to land, if any.
    rob_waiter: Option<u64>,
}

/// Min-heap entry for an in-flight completion: ordered by completion
/// cycle with a monotonic sequence tiebreak, so same-cycle completions
/// deliver in issue order — exactly the order the previous sorted-Vec
/// insert (`partition_point` on `at <= c.at`) preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InflightEntry {
    at: Cycle,
    seq: u64,
    completion: Completion,
}

impl Ord for InflightEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `seq` is unique per entry, so this total order never reports
        // two distinct entries equal.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for InflightEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// In-flight read completions, keyed on completion cycle. Replaces the
/// O(n) sorted-Vec insert with an O(log n) binary heap.
#[derive(Debug, Default)]
struct InflightHeap {
    heap: BinaryHeap<Reverse<InflightEntry>>,
    seq: u64,
}

impl InflightHeap {
    fn push(&mut self, c: Completion) {
        self.heap.push(Reverse(InflightEntry {
            at: c.at,
            seq: self.seq,
            completion: c,
        }));
        self.seq += 1;
    }

    /// The earliest completion cycle, if any reads are in flight.
    fn peek_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pops the earliest completion if it is due at or before `now`.
    fn pop_due(&mut self, now: Cycle) -> Option<Completion> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.at <= now) {
            self.heap.pop().map(|Reverse(e)| e.completion)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

struct CoreDriver {
    core: Core,
    trace: Box<dyn TraceSource>,
    fetch_credit: f64,
    gap_left: u32,
    pending: Option<(PhysAddr, bool)>,
    seq: u64,
    prefetcher: Option<StreamPrefetcher>,
    /// Prefetched lines by line index. A [`DetMap`] so per-core
    /// prefetch state is deterministic regardless of hasher seeding.
    pf_lines: DetMap<PfEntry>,
    /// In-flight prefetch request id -> line.
    pf_by_id: DetMap<u64>,
}

impl CoreDriver {
    /// The driver's next wake cycle: `Some(now + 1)` while the core can
    /// still fetch or retire on its own next cycle, `None` once it is
    /// blocked on an external event — a completion delivery or memory-
    /// controller queue space — which only the system-level wake sources
    /// (in-flight completions, MC commands) can provide. A step that
    /// made zero progress must leave every driver returning `None`;
    /// the event kernel debug-asserts this before skipping.
    fn next_wake(
        &self,
        now: Cycle,
        mapper: &AddressMapper,
        chans: &ChannelSet,
        line_bytes: u32,
    ) -> Option<Cycle> {
        if self.core.retire_ready() {
            return Some(now + 1);
        }
        if self.gap_left > 0 {
            return (self.core.rob_free() > 0).then_some(now + 1);
        }
        if let Some((addr, is_write)) = self.pending {
            if self.core.rob_free() == 0 {
                return None;
            }
            if !is_write {
                // A ready prefetched line absorbs the read; an in-flight
                // one without a waiter registers a late hit. Both count
                // as fetch progress.
                if let Some(e) = self.pf_lines.get(addr.line_index(line_bytes)) {
                    if e.ready || e.rob_waiter.is_none() {
                        return Some(now + 1);
                    }
                }
            }
            let decoded = mapper.decode(addr);
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            return chans
                .can_accept(decoded.bank.channel, decoded.bank.subchannel, kind)
                .then_some(now + 1);
        }
        // No gap and nothing pending: a fresh trace record is always
        // available (traces are infinite), so the next fetch makes
        // progress unconditionally.
        Some(now + 1)
    }
}

/// Snapshot section tags ([`mopac_types::snapshot`]).
const SNAP_SYSTEM: u32 = 0x5359_5301; // "SYS\x01"
const SNAP_DRIVER: u32 = 0x4452_5601; // "DRV\x01"
const SNAP_MC: u32 = 0x4D43_5401; // "MCT\x01"

/// Minimum of two optional cycles, treating `None` as "no constraint".
fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A time jump the event kernel takes between steps.
#[derive(Clone, Copy)]
enum Jump {
    /// Run the driver-only loop up to this cycle
    /// ([`System::fast_forward_gaps`]).
    FastForward(Cycle),
    /// Jump straight to this cycle after a zero-progress step
    /// ([`System::skip_to`]).
    Skip(Cycle),
}

/// The assembled system.
pub struct System {
    cfg: SystemConfig,
    mapper: AddressMapper,
    chans: ChannelSet,
    llc: Option<Llc>,
    drivers: Vec<CoreDriver>,
    inflight: InflightHeap,
    scratch: Vec<Completion>,
    now: Cycle,
    pf_stats: PrefetchStats,
    injector: Option<FaultInjector>,
    /// Livelock-watchdog state: instructions retired at the last
    /// observed progress, and the cycle it was observed. Fields (not
    /// run-loop locals) so a snapshot preserves the watchdog's phase and
    /// a restored run trips it at exactly the cycle an uninterrupted run
    /// would have.
    last_retired: u64,
    last_progress_at: Cycle,
    /// System-level kernel metrics (sync rounds). Kept out of
    /// [`System::snapshot`] deliberately: kernel bookkeeping is not
    /// simulation state, and the two kernels take different numbers of
    /// rounds to reach identical snapshot digests.
    kernel_sink: MetricsSink,
}

impl System {
    /// Builds a system running one trace per core.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Config`] if `traces` is empty or
    /// [`SystemConfig::shard_threads`] asks for more than one thread.
    pub fn new(cfg: SystemConfig, traces: Vec<Box<dyn TraceSource>>) -> MopacResult<Self> {
        if traces.is_empty() {
            return Err(MopacError::config("need at least one core trace"));
        }
        if cfg.shard_threads > 1 {
            return Err(MopacError::config(format!(
                "shard_threads = {} is not supported: channels tick serially (use 0 or 1)",
                cfg.shard_threads
            )));
        }
        let injector = cfg.fault_plan.as_ref().map(FaultInjector::new);
        let corruption = cfg
            .fault_plan
            .as_ref()
            .and_then(FaultPlan::trace_corruption_rate);
        let traces: Vec<Box<dyn TraceSource>> = match corruption {
            None => traces,
            Some(rate) => {
                let seed = cfg.fault_plan.as_ref().map_or(0, FaultPlan::seed);
                let line_bytes = cfg.geometry.line_bytes;
                traces
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| {
                        Box::new(CorruptingTrace::new(t, rate, line_bytes, seed, i as u64))
                            as Box<dyn TraceSource>
                    })
                    .collect()
            }
        };
        let mapper = AddressMapper::new(cfg.geometry, cfg.mapping);
        // One controller+device per channel. Channel 0 uses the
        // historical seed derivations exactly (salt 0), so a 1-channel
        // system is bit-identical to the pre-topology simulator; the
        // other channels salt every seed with a channel-indexed odd
        // multiplier so no two channels share an RNG stream.
        let mcs = (0..cfg.geometry.channels)
            .map(|ch| {
                let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(ch));
                let dram = DramDevice::new(DramConfig {
                    geometry: cfg.geometry.channel_view(),
                    mitigation: cfg.mitigation,
                    enable_checker: cfg.enable_checker,
                    seed: (cfg.seed ^ 0xD8A3) ^ salt,
                    channel: ch,
                    flip: None,
                });
                let mut mc_cfg = cfg.mc;
                mc_cfg.seed = (cfg.seed ^ 0x3C) ^ salt;
                let mut mc = MemoryController::new(dram, mc_cfg);
                if let Some(sink_cfg) = cfg.metrics {
                    mc.enable_metrics(sink_cfg);
                }
                mc
            })
            .collect();
        let chans = ChannelSet::new(mcs);
        let drivers = traces
            .into_iter()
            .map(|trace| CoreDriver {
                core: Core::new(CoreParams::paper_default()),
                trace,
                fetch_credit: 0.0,
                gap_left: 0,
                pending: None,
                seq: 0,
                prefetcher: (cfg.prefetch_distance > 0).then(|| {
                    StreamPrefetcher::new(cfg.prefetch_trackers, cfg.prefetch_distance)
                }),
                pf_lines: DetMap::new(),
                pf_by_id: DetMap::new(),
            })
            .collect();
        let llc = cfg.use_llc.then(Llc::paper_default);
        let kernel_sink = match cfg.metrics {
            Some(sink_cfg) => MetricsSink::enabled(sink_cfg),
            None => MetricsSink::disabled(),
        };
        Ok(Self {
            cfg,
            mapper,
            chans,
            llc,
            drivers,
            inflight: InflightHeap::default(),
            scratch: Vec::new(),
            now: 0,
            pf_stats: PrefetchStats::default(),
            injector,
            last_retired: 0,
            last_progress_at: 0,
            kernel_sink,
        })
    }

    /// Like [`System::run`] but also returns the memory controller's
    /// statistics (diagnostics and reporting).
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_with_mc_stats(self) -> MopacResult<(RunResult, McStats)> {
        let mut me = self;
        let result = me.run_inner()?;
        Ok((result, me.mc_stats()))
    }

    /// Channel-summed controller statistics.
    #[must_use]
    pub fn mc_stats(&self) -> McStats {
        self.chans.stats()
    }

    /// LLC statistics (`None` when [`SystemConfig::use_llc`] is off).
    #[must_use]
    pub fn llc_stats(&self) -> Option<LlcStats> {
        self.llc.as_ref().map(Llc::stats)
    }

    /// Like [`System::run`] but also returns the merged metrics
    /// snapshot (`None` unless [`SystemConfig::metrics`] was set).
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_with_metrics(self) -> MopacResult<(RunResult, Option<MetricsSnapshot>)> {
        let mut me = self;
        let result = me.run_inner()?;
        let snapshot = me.metrics_snapshot();
        Ok((result, snapshot))
    }

    /// Returns one merged [`MetricsSnapshot`]: every channel's
    /// controller and device sinks (latency histograms, protocol trace
    /// events, per-bank engine histograms), the channel-summed stats
    /// structs, the LLC and prefetcher counters, the kernel's sync
    /// rounds and the system-level gauges. Returns `None` when metrics
    /// are disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut merged = MetricsSink::enabled(self.cfg.metrics?);
        merged.absorb(&self.kernel_sink);
        merged.set_counters(self.pf_stats.counters());
        if let Some(llc) = self.llc_stats() {
            merged.set_counters(llc.counters());
        }
        crate::shard::metrics_snapshot(self.chans.controllers(), merged, self.now)
    }

    /// Runs to completion (all cores reach the instruction budget) and
    /// returns the results.
    ///
    /// # Errors
    ///
    /// - [`MopacError::CycleCapExceeded`] if `max_cycles` elapses first.
    /// - [`MopacError::Livelock`] if the watchdog sees no retired
    ///   instruction for `livelock_window` consecutive cycles.
    /// - [`MopacError::TimingProtocol`] if an (injected or internal)
    ///   fault drives the device into an illegal command sequence.
    pub fn run(mut self) -> MopacResult<RunResult> {
        self.run_inner()
    }

    /// Runs until the device has executed at least `refs` REF commands
    /// (cumulative since construction), pausing at that boundary, or to
    /// completion if every core finishes first.
    ///
    /// Returns `Ok(None)` on a pause — the system is between cycles and
    /// can be [`snapshot`](System::snapshot)ted, resumed with a further
    /// `run_until_refs`, or driven to the end with
    /// [`run_to_completion`](System::run_to_completion) — and
    /// `Ok(Some(result))` when the run completed before the boundary.
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_until_refs(&mut self, refs: u64) -> MopacResult<Option<RunResult>> {
        self.run_loop(Some(refs))
    }

    /// Runs a (possibly restored) system to completion; the borrowing
    /// counterpart of [`System::run`] for checkpointed flows.
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_to_completion(&mut self) -> MopacResult<RunResult> {
        self.run_inner()
    }

    fn run_inner(&mut self) -> MopacResult<RunResult> {
        self.run_loop(None)?.ok_or_else(|| {
            MopacError::internal("run without a pause boundary returned no result")
        })
    }

    fn run_loop(&mut self, pause_at_refs: Option<u64>) -> MopacResult<Option<RunResult>> {
        let budget = self.cfg.instrs_per_core;
        let n_cores = self.drivers.len();
        let event_driven = self.cfg.kernel == KernelMode::EventDriven;
        // Consecutive zero-progress steps. The wake computation
        // (`skip_target`) scans both sub-channel queues, which costs
        // more than a lockstep tick; under a saturated bus most stalls
        // last one or two cycles, so attempting a jump on the first
        // stalled cycle is a net loss. Deferring the attempt until the
        // second consecutive stall keeps saturated workloads at
        // lockstep speed — the deferred cycles are genuine `step`s, so
        // equivalence is unaffected — while idle regions still pay only
        // one extra tick before the jump.
        let mut stall_streak = 0u32;
        // The time jump the last step licensed, taken at the top of the
        // next iteration, after the pause check.
        let mut jump: Option<Jump> = None;
        let mut finished = 0usize;
        while finished < n_cores {
            // Pause boundary: between full cycles every invariant the
            // snapshot relies on holds (scratch empty, no half-delivered
            // completion), so this is the only place a pause can land.
            // It runs before any jump: the step that licensed the jump
            // may have executed the REF that reaches the boundary, and
            // the lockstep kernel pauses right after that step.
            if pause_at_refs.is_some_and(|t| self.chans.refreshes() >= t) {
                return Ok(None);
            }
            match jump.take() {
                Some(Jump::FastForward(end)) => {
                    self.fast_forward_gaps(end, budget, &mut finished)?;
                    continue;
                }
                Some(Jump::Skip(target)) => {
                    self.skip_to(target);
                    // The jump is clamped to the watchdog and cycle-cap
                    // deadlines, so landing on one must trip it at
                    // exactly the cycle — and with exactly the fields —
                    // the lockstep kernel would have reported.
                    self.check_deadlines(finished)?;
                }
                None => {}
            }
            let progress = self.step()?;
            finished = self
                .drivers
                .iter_mut()
                .map(|d| usize::from(d.core.check_finished(budget, self.now)))
                .sum();
            self.note_retirement();
            self.check_deadlines(finished)?;
            // Quiescent fast-forward: while every driver is deep inside
            // an instruction gap, the machine's only per-cycle work is
            // driver arithmetic (fetch credit, ROB pushes, retirement).
            // Run those cycles through a tight loop that skips the
            // controller tick, the completion heap, and the fault
            // injector — all provably idle until the earliest external
            // wake — instead of full `step`s.
            if event_driven && progress && finished < n_cores {
                let bound = self.quiescent_bound();
                if bound >= 16 {
                    let prev = self.now - 1;
                    let mut wake = self.chans.next_wake(prev);
                    if let Some(inj) = self.injector.as_ref() {
                        wake = min_opt(wake, inj.next_due());
                    }
                    wake = min_opt(wake, self.inflight.peek_at());
                    let end = wake
                        .map_or(self.now + bound, |w| w.min(self.now + bound))
                        .max(self.now);
                    if end > self.now + 8 {
                        jump = Some(Jump::FastForward(end));
                        continue;
                    }
                }
            }
            stall_streak = if progress { 0 } else { stall_streak + 1 };
            if event_driven && !progress && stall_streak >= 2 {
                jump = self.skip_target(self.last_progress_at).map(Jump::Skip);
            }
        }
        let cores = self
            .drivers
            .iter()
            .map(|d| {
                let finish = d.core.finished_at().ok_or_else(|| {
                    MopacError::internal("core counted finished without a finish cycle")
                })?;
                Ok(CoreResult {
                    instructions: budget,
                    finish_cycle: finish,
                    ipc: budget as f64 / finish.max(1) as f64,
                })
            })
            .collect::<MopacResult<Vec<_>>>()?;
        Ok(Some(RunResult {
            cores,
            cycles: self.now,
            dram: self.chans.dram_stats(),
            mitigation: self.chans.mitigation_stats(),
            violations: self.chans.violations(),
            avg_read_latency: self.chans.stats().avg_read_latency(),
            prefetch: self.pf_stats,
            faults_applied: self.injector.as_ref().map_or(0, FaultInjector::applied),
            trace_corruptions: self
                .drivers
                .iter()
                .map(|d| d.trace.corrupted_records())
                .sum(),
        }))
    }

    /// Livelock-watchdog bookkeeping after a step: any newly retired
    /// instruction resets the stall window.
    fn note_retirement(&mut self) {
        if self.cfg.livelock_window > 0 {
            let retired: u64 = self.drivers.iter().map(|d| d.core.retired()).sum();
            if retired > self.last_retired {
                self.last_retired = retired;
                self.last_progress_at = self.now;
            }
        }
    }

    /// The livelock-watchdog and cycle-cap guards, in the order every
    /// path of the run loop applies them.
    ///
    /// # Errors
    ///
    /// [`MopacError::Livelock`] once no instruction has retired for
    /// `livelock_window` cycles, then [`MopacError::CycleCapExceeded`]
    /// once `now` reaches `max_cycles`.
    fn check_deadlines(&self, finished: usize) -> MopacResult<()> {
        if self.cfg.livelock_window > 0
            && self.now - self.last_progress_at >= self.cfg.livelock_window
        {
            return Err(MopacError::Livelock {
                cycle: self.now,
                stalled_for: self.now - self.last_progress_at,
                retired: self.last_retired,
            });
        }
        if self.now >= self.cfg.max_cycles {
            return Err(MopacError::CycleCapExceeded {
                cap: self.cfg.max_cycles,
                finished_cores: finished,
                total_cores: self.drivers.len(),
            });
        }
        Ok(())
    }

    /// The current cycle: the next cycle [`System::run_until_refs`] or
    /// [`System::run_to_completion`] will simulate, or the cycle a
    /// pause landed on.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Test/diagnostic hook: advances one cycle.
    ///
    /// # Errors
    ///
    /// Propagates [`System::run`]'s per-cycle errors.
    #[doc(hidden)]
    pub fn debug_step(&mut self) -> MopacResult<()> {
        self.step().map(|_| ())
    }

    /// Test/diagnostic hook: per-core retired instruction counts.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_retired(&self) -> Vec<u64> {
        self.drivers.iter().map(|d| d.core.retired()).collect()
    }

    /// Test/diagnostic hook: total queued requests in the MC.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_queued(&self) -> usize {
        self.chans.queued()
    }

    /// Test/diagnostic hook: in-flight read completions.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Serializes the system's full mutable state — cores, traces,
    /// prefetchers, LLC, in-flight completions, fault injector, memory
    /// controller, device and every RNG stream — into a self-describing
    /// snapshot ([`mopac_types::snapshot`]). Call only between cycles
    /// (e.g. at a [`System::run_until_refs`] pause); a restored system
    /// of the same configuration continues bit-identically.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(SNAP_SYSTEM);
        // Topology header: restore validates shape before touching any
        // state, so a snapshot cannot be loaded into a system with a
        // different channel/rank/bank organization.
        let g = &self.cfg.geometry;
        w.put_u32(g.channels);
        w.put_u32(g.ranks);
        w.put_u32(g.subchannels);
        w.put_u32(g.banks_per_subchannel);
        w.put_u32(g.rows_per_bank);
        w.put_u64(self.now);
        w.put_u64(self.last_retired);
        w.put_u64(self.last_progress_at);
        self.pf_stats.save_state(&mut w);
        w.put_usize(self.drivers.len());
        for d in &self.drivers {
            w.begin_section(SNAP_DRIVER);
            d.core.save_state(&mut w);
            d.trace.save_state(&mut w);
            w.put_f64(d.fetch_credit);
            w.put_u32(d.gap_left);
            match d.pending {
                Some((addr, is_write)) => {
                    w.put_bool(true);
                    w.put_u64(addr.get());
                    w.put_bool(is_write);
                }
                None => w.put_bool(false),
            }
            w.put_u64(d.seq);
            match d.prefetcher.as_ref() {
                Some(pf) => {
                    w.put_bool(true);
                    pf.save_state(&mut w);
                }
                None => w.put_bool(false),
            }
            d.pf_lines.save_state_with(&mut w, |e, w| {
                w.put_bool(e.ready);
                w.put_opt_u64(e.rob_waiter);
            });
            d.pf_by_id.save_state_with(&mut w, |v, w| w.put_u64(*v));
            w.end_section();
        }
        // In-flight completions in (at, seq) order: the heap's internal
        // layout is not deterministic, the delivery order is.
        let mut entries: Vec<InflightEntry> = self
            .inflight
            .heap
            .iter()
            .map(|Reverse(e)| *e)
            .collect();
        entries.sort_unstable();
        w.put_usize(entries.len());
        for e in &entries {
            w.put_u64(e.seq);
            w.put_u64(e.completion.id);
            w.put_u64(e.completion.at);
        }
        w.put_u64(self.inflight.seq);
        match self.llc.as_ref() {
            Some(llc) => {
                w.put_bool(true);
                llc.save_state(&mut w);
            }
            None => w.put_bool(false),
        }
        match self.injector.as_ref() {
            Some(inj) => {
                w.put_bool(true);
                inj.save_state(&mut w);
            }
            None => w.put_bool(false),
        }
        for mc in self.chans.iter() {
            w.begin_section(SNAP_MC);
            mc.save_state(&mut w);
            w.end_section();
        }
        w.end_section();
        w.finish()
    }

    /// Restores a snapshot taken by [`System::snapshot`] into this
    /// system, which must be freshly constructed with the same
    /// configuration and traces.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on a corrupt or truncated
    /// snapshot, or when its shape does not match this system's
    /// configuration (core count, LLC/prefetcher/injector presence,
    /// geometry).
    pub fn restore(&mut self, bytes: &[u8]) -> MopacResult<()> {
        let mut r = SnapshotReader::new(bytes)?;
        r.begin_section(SNAP_SYSTEM)?;
        let snap_topo = (
            r.take_u32()?,
            r.take_u32()?,
            r.take_u32()?,
            r.take_u32()?,
            r.take_u32()?,
        );
        let g = &self.cfg.geometry;
        let cfg_topo = (
            g.channels,
            g.ranks,
            g.subchannels,
            g.banks_per_subchannel,
            g.rows_per_bank,
        );
        if snap_topo != cfg_topo {
            return Err(MopacError::snapshot(format!(
                "topology mismatch: snapshot was taken on {}ch x {}rk x {}sc x {}banks x \
                 {}rows but this system is {}ch x {}rk x {}sc x {}banks x {}rows",
                snap_topo.0,
                snap_topo.1,
                snap_topo.2,
                snap_topo.3,
                snap_topo.4,
                cfg_topo.0,
                cfg_topo.1,
                cfg_topo.2,
                cfg_topo.3,
                cfg_topo.4,
            )));
        }
        self.now = r.take_u64()?;
        self.last_retired = r.take_u64()?;
        self.last_progress_at = r.take_u64()?;
        self.pf_stats.load_state(&mut r)?;
        let cores = r.take_usize()?;
        if cores != self.drivers.len() {
            return Err(MopacError::snapshot(format!(
                "snapshot has {cores} cores but {} configured",
                self.drivers.len(),
            )));
        }
        for d in &mut self.drivers {
            r.begin_section(SNAP_DRIVER)?;
            d.core.load_state(&mut r)?;
            d.trace.load_state(&mut r)?;
            d.fetch_credit = r.take_f64()?;
            d.gap_left = r.take_u32()?;
            d.pending = if r.take_bool()? {
                let addr = PhysAddr::new(r.take_u64()?);
                let is_write = r.take_bool()?;
                Some((addr, is_write))
            } else {
                None
            };
            d.seq = r.take_u64()?;
            match (r.take_bool()?, d.prefetcher.as_mut()) {
                (true, Some(pf)) => pf.load_state(&mut r)?,
                (false, None) => {}
                (snap, _) => {
                    return Err(MopacError::snapshot(format!(
                        "prefetcher presence mismatch: snapshot {snap}, configured {}",
                        d.prefetcher.is_some(),
                    )));
                }
            }
            d.pf_lines.load_state_with(&mut r, |r| {
                Ok(PfEntry {
                    ready: r.take_bool()?,
                    rob_waiter: r.take_opt_u64()?,
                })
            })?;
            d.pf_by_id.load_state_with(&mut r, |r| r.take_u64())?;
            r.end_section()?;
        }
        let inflight = r.take_usize()?;
        self.inflight.heap.clear();
        for _ in 0..inflight {
            let seq = r.take_u64()?;
            let id = r.take_u64()?;
            let at = r.take_u64()?;
            self.inflight.heap.push(Reverse(InflightEntry {
                at,
                seq,
                completion: Completion { id, at },
            }));
        }
        self.inflight.seq = r.take_u64()?;
        match (r.take_bool()?, self.llc.as_mut()) {
            (true, Some(llc)) => llc.load_state(&mut r)?,
            (false, None) => {}
            (snap, _) => {
                return Err(MopacError::snapshot(format!(
                    "LLC presence mismatch: snapshot {snap}, configured {}",
                    self.llc.is_some(),
                )));
            }
        }
        match (r.take_bool()?, self.injector.as_mut()) {
            (true, Some(inj)) => inj.load_state(&mut r)?,
            (false, None) => {}
            (snap, _) => {
                return Err(MopacError::snapshot(format!(
                    "fault-injector presence mismatch: snapshot {snap}, configured {}",
                    self.injector.is_some(),
                )));
            }
        }
        for mc in self.chans.iter_mut() {
            r.begin_section(SNAP_MC)?;
            mc.load_state(&mut r)?;
            r.end_section()?;
        }
        r.end_section()?;
        expect_exhausted(&r)
    }

    /// Advances one DRAM cycle. Returns whether the cycle made any
    /// progress: a fault event fired, the controller issued a command,
    /// a completion was delivered, a core fetched, or a core retired.
    /// A `false` return is the event kernel's licence to skip: every
    /// state change left in the machine is idempotent under further
    /// ticks, so the cycle would replay identically until an external
    /// wake.
    fn step(&mut self) -> MopacResult<bool> {
        let now = self.now;
        let mut progress = false;
        // Scheduled faults fire before the controllers see the cycle.
        // The injector's addressing predates the channel dimension, so
        // its events land on channel 0 (which is the whole machine in a
        // single-channel run).
        if let Some(inj) = self.injector.as_mut() {
            let before = inj.applied();
            inj.apply(now, self.chans.channel_mut(0))?;
            progress |= inj.applied() != before;
        }
        // Every channel's controller issues commands, in channel order;
        // reads may complete.
        self.scratch.clear();
        if self.chans.tick_all(now, &mut self.scratch)? > 0 {
            progress = true;
        }
        self.kernel_sink.add(Counter::KernelSyncRounds, 1);
        for c in self.scratch.drain(..) {
            self.inflight.push(c);
        }
        // Deliver due completions (demand loads and prefetches).
        while let Some(c) = self.inflight.pop_due(now) {
            progress = true;
            let d = &mut self.drivers[(c.id >> 48) as usize];
            if let Some(line) = d.pf_by_id.remove(c.id) {
                if let Some(entry) = d.pf_lines.get_mut(line) {
                    entry.ready = true;
                    if let Some(waiter) = entry.rob_waiter {
                        d.core.on_complete(waiter);
                        // Consumed by the demand stream.
                        d.pf_lines.remove(line);
                    }
                }
            } else {
                d.core.on_complete(c.id);
            }
        }
        // Fetch in rotating order so no core monopolizes a nearly-full
        // queue, then retire.
        let n = self.drivers.len();
        let start = (now as usize) % n;
        for k in 0..n {
            if self.fetch_core((start + k) % n, now) {
                progress = true;
            }
        }
        for d in &mut self.drivers {
            if d.core.retire() > 0 {
                progress = true;
            }
        }
        self.now += 1;
        Ok(progress)
    }

    /// The cycle the event kernel jumps to after a zero-progress step:
    /// the earliest external wake among the fault injector's next
    /// event, the earliest in-flight completion, and the memory
    /// controller's [`MemoryController::next_wake`] — clamped to the
    /// livelock-watchdog and cycle-cap deadlines so those guards fire
    /// at exactly the cycle lockstep would have reached. Returns `None`
    /// when the wake is the very next cycle (nothing to skip).
    fn skip_target(&self, last_progress_at: Cycle) -> Option<Cycle> {
        // `step` already bumped `now`; the zero-progress tick happened
        // at `now - 1`, and the wake sources speak in "strictly after
        // the cycle I last saw" terms.
        let prev = self.now - 1;
        let mut wake = self.chans.next_wake(prev);
        // A zero-progress step must leave every driver blocked on an
        // external event; merging the driver wakes anyway means a
        // progress-detection bug degrades to lockstep for a cycle
        // instead of skipping state changes.
        let line_bytes = self.cfg.geometry.line_bytes;
        for d in &self.drivers {
            if let Some(w) = d.next_wake(prev, &self.mapper, &self.chans, line_bytes) {
                debug_assert!(false, "zero-progress step left a runnable core");
                wake = min_opt(wake, Some(w));
            }
        }
        if let Some(inj) = self.injector.as_ref() {
            wake = min_opt(wake, inj.next_due());
        }
        wake = min_opt(wake, self.inflight.peek_at());
        let mut target = wake?.max(self.now);
        if self.cfg.livelock_window > 0 {
            target = target.min(last_progress_at + self.cfg.livelock_window);
        }
        target = target.min(self.cfg.max_cycles);
        (target > self.now).then_some(target)
    }

    /// Upper bound on cycles that can be fast-forwarded through the
    /// driver-only loop: every driver must stay in its gap-push phase
    /// (`gap_left` cannot reach zero, so no trace record is pulled and
    /// the memory controller sees no new request). Two independently
    /// safe bounds on instructions issued, taken at their max: a cycle
    /// pushes at most 64 (the fetch-credit cap), and over `k` cycles at
    /// most `64 + k*r` issue (worst-case initial credit plus accrual at
    /// the retire rate `r`). Returns 0 when any driver is already
    /// touching the memory system.
    fn quiescent_bound(&self) -> Cycle {
        let r = CoreParams::paper_default().retire_per_dram_cycle;
        let mut bound = Cycle::MAX;
        for d in &self.drivers {
            if d.gap_left <= 64 {
                return 0;
            }
            let g = u64::from(d.gap_left);
            let by_cap = (g - 1) / 64;
            let by_accrual = ((g - 65) as f64 / r) as u64;
            bound = bound.min(by_cap.max(by_accrual));
        }
        bound
    }

    /// Runs cycles `[self.now, end)` through a driver-only loop that is
    /// cycle-for-cycle identical to [`System::step`] restricted to the
    /// gap-push phase: fetch-credit accrual, ROB pushes, retirement,
    /// and the finish/livelock/cycle-cap guards in the same order the
    /// main loop applies them. The caller guarantees (via
    /// [`System::quiescent_bound`] and the external wake sources) that
    /// the skipped subsystems are no-ops across the region: the
    /// controller's next action lies at or beyond `end`
    /// ([`MemoryController::next_wake`]), no completion is due and no
    /// fault fires before `end`, and no driver pulls a trace record.
    /// The controller's per-cycle idle statistics are compensated in
    /// bulk afterwards ([`MemoryController::note_idle_cycles`]).
    fn fast_forward_gaps(
        &mut self,
        end: Cycle,
        budget: u64,
        finished: &mut usize,
    ) -> MopacResult<()> {
        let start = self.now;
        let n_cores = self.drivers.len();
        let r = CoreParams::paper_default().retire_per_dram_cycle;
        // Bulk sub-regions: when every core is either plain (ROB holds
        // only instruction runs — [`Core::run_plain`]) or head-stalled
        // on an outstanding load ([`Core::run_stalled_fetch`]), a whole
        // stretch of cycles is scalar arithmetic, one call per core.
        // The per-cycle guards collapse: a plain core retires at least
        // one instruction per cycle (`r >= 1`, non-empty gap), so with
        // any plain core present the livelock watchdog resets each
        // cycle and ends the region at `last_progress_at = now`; with
        // every core stalled nothing retires, so the region is clamped
        // to the watchdog deadline and the error is emitted at the
        // exact cycle the per-cycle check would have fired. The region
        // is also clamped so the run cannot terminate inside it — below
        // the cycle cap, and shorter than any unfinished plain core's
        // minimum cycles to finish (at most 16 instructions retire per
        // cycle, conservatively; stalled cores retire nothing).
        //
        // Eligibility changes as cores retire (a short instruction run
        // in front of an outstanding load drains within a few cycles),
        // so after an ineligible probe the per-cycle loop only runs a
        // small chunk before probing again.
        const RECHECK: u32 = 8;
        let mut chunk_left = 0u32;
        while self.now < end {
            if chunk_left == 0 {
                chunk_left = RECHECK;
                if r >= 1.0
                    && self
                        .drivers
                        .iter()
                        .all(|d| d.core.is_plain() || d.core.head_stalled())
                {
                    let bstart = self.now;
                    let any_plain = self.drivers.iter().any(|d| d.core.is_plain());
                    let mut cycles =
                        (end - bstart).min(self.cfg.max_cycles.saturating_sub(bstart));
                    if any_plain {
                        for d in &self.drivers {
                            if d.core.is_plain() {
                                let remaining = budget.saturating_sub(d.core.retired());
                                if remaining > 0 {
                                    cycles = cycles.min(remaining / 16);
                                }
                            }
                        }
                    } else if self.cfg.livelock_window > 0 {
                        let deadline = self.last_progress_at + self.cfg.livelock_window;
                        cycles = cycles.min(deadline.saturating_sub(bstart));
                    }
                    if cycles >= 16 {
                        for d in &mut self.drivers {
                            if d.core.is_plain() {
                                d.core.run_plain(
                                    cycles,
                                    &mut d.gap_left,
                                    &mut d.fetch_credit,
                                    budget,
                                    bstart,
                                );
                            } else {
                                d.core.run_stalled_fetch(
                                    cycles,
                                    &mut d.gap_left,
                                    &mut d.fetch_credit,
                                );
                            }
                        }
                        self.now = bstart + cycles;
                        *finished = self
                            .drivers
                            .iter_mut()
                            .map(|d| usize::from(d.core.check_finished(budget, self.now)))
                            .sum();
                        if self.cfg.livelock_window > 0 && any_plain {
                            self.last_retired =
                                self.drivers.iter().map(|d| d.core.retired()).sum();
                            self.last_progress_at = self.now;
                        }
                        if let Err(e) = self.check_deadlines(*finished) {
                            self.chans.note_idle_cycles(start, self.now - start);
                            return Err(e);
                        }
                        continue;
                    }
                }
            }
            chunk_left -= 1;
            for d in &mut self.drivers {
                d.fetch_credit = (d.fetch_credit + r).min(64.0);
                loop {
                    if d.fetch_credit < 1.0 {
                        break;
                    }
                    let free = d.core.rob_free() as u32;
                    let n = d.gap_left.min(d.fetch_credit as u32).min(free);
                    if n == 0 {
                        break;
                    }
                    d.core.push_instrs(n);
                    d.gap_left -= n;
                    d.fetch_credit -= f64::from(n);
                }
                d.core.retire();
            }
            self.now += 1;
            *finished = self
                .drivers
                .iter_mut()
                .map(|d| usize::from(d.core.check_finished(budget, self.now)))
                .sum();
            self.note_retirement();
            if let Err(e) = self.check_deadlines(*finished) {
                self.chans.note_idle_cycles(start, self.now - start);
                return Err(e);
            }
            if *finished >= n_cores {
                break;
            }
        }
        self.chans.note_idle_cycles(start, self.now - start);
        Ok(())
    }

    /// Jumps `now` to `target`, reproducing in bulk exactly what
    /// `target - now` zero-progress lockstep cycles would have done:
    /// per-cycle controller statistics
    /// ([`MemoryController::note_idle_cycles`]), per-core fetch-credit
    /// accumulation (the per-cycle `min(credit + r, 64)` fold, iterated
    /// until it saturates — at most `ceil(64 / r)` steps — because
    /// floating-point addition is not associative and a closed form
    /// would drift), and per-core stall accounting
    /// ([`Core::skip_idle`]).
    fn skip_to(&mut self, target: Cycle) {
        let skipped = target - self.now;
        self.chans.note_idle_cycles(self.now, skipped);
        let r = CoreParams::paper_default().retire_per_dram_cycle;
        for d in &mut self.drivers {
            for _ in 0..skipped {
                let next = (d.fetch_credit + r).min(64.0);
                if next == d.fetch_credit {
                    break;
                }
                d.fetch_credit = next;
            }
            d.core.skip_idle(skipped);
        }
        self.now = target;
    }

    /// Feeds the prefetcher with a demand line and issues any candidate
    /// prefetches whose target channel's controller can accept them.
    fn run_prefetcher(
        stats: &mut PrefetchStats,
        d: &mut CoreDriver,
        idx: usize,
        line: u64,
        mapper: &AddressMapper,
        chans: &mut ChannelSet,
        now: Cycle,
    ) {
        let Some(pf) = d.prefetcher.as_mut() else {
            return;
        };
        // Bound outstanding prefetch state per core.
        const MAX_PF_LINES: usize = 512;
        for cand in pf.observe(line) {
            if d.pf_lines.len() >= MAX_PF_LINES || d.pf_lines.contains_key(cand) {
                continue;
            }
            let addr = PhysAddr::from_line_index(cand, mapper.geometry().line_bytes);
            let decoded = mapper.decode(addr);
            if !chans.can_accept(decoded.bank.channel, decoded.bank.subchannel, AccessKind::Read)
            {
                continue;
            }
            let id = ((idx as u64) << 48) | d.seq;
            d.seq += 1;
            let ok = chans.enqueue(
                MemRequest {
                    id,
                    kind: AccessKind::Read,
                    addr: decoded,
                },
                now,
            );
            debug_assert!(ok);
            d.pf_by_id.insert(id, cand);
            d.pf_lines.insert(
                cand,
                PfEntry {
                    ready: false,
                    rob_waiter: None,
                },
            );
            stats.issued += 1;
        }
    }

    /// Fetches for one core; returns whether any fetch progress was
    /// made (instructions pushed, a request issued or absorbed, or a
    /// trace record pulled).
    fn fetch_core(&mut self, idx: usize, now: Cycle) -> bool {
        let mut progress = false;
        let d = &mut self.drivers[idx];
        d.fetch_credit =
            (d.fetch_credit + CoreParams::paper_default().retire_per_dram_cycle).min(64.0);
        loop {
            if d.fetch_credit < 1.0 {
                break;
            }
            if d.gap_left > 0 {
                let free = d.core.rob_free() as u32;
                let n = d.gap_left.min(d.fetch_credit as u32).min(free);
                if n == 0 {
                    break;
                }
                progress = true;
                d.core.push_instrs(n);
                d.gap_left -= n;
                d.fetch_credit -= f64::from(n);
                continue;
            }
            if let Some((addr, is_write)) = d.pending {
                if d.core.rob_free() == 0 {
                    break;
                }
                let line = addr.line_index(self.cfg.geometry.line_bytes);
                // Demand read absorbed by the prefetcher?
                if !is_write {
                    match d.pf_lines.get_mut(line) {
                        Some(e) if e.ready => {
                            progress = true;
                            d.pf_lines.remove(line);
                            self.pf_stats.hits += 1;
                            d.core.push_instrs(1);
                            d.fetch_credit -= 1.0;
                            d.pending = None;
                            Self::run_prefetcher(
                                &mut self.pf_stats,
                                d,
                                idx,
                                line,
                                &self.mapper,
                                &mut self.chans,
                                now,
                            );
                            continue;
                        }
                        Some(e) if e.rob_waiter.is_none() => {
                            progress = true;
                            let id = ((idx as u64) << 48) | d.seq;
                            d.seq += 1;
                            e.rob_waiter = Some(id);
                            self.pf_stats.late_hits += 1;
                            d.core.push_read(id);
                            d.fetch_credit -= 1.0;
                            d.pending = None;
                            Self::run_prefetcher(
                                &mut self.pf_stats,
                                d,
                                idx,
                                line,
                                &self.mapper,
                                &mut self.chans,
                                now,
                            );
                            continue;
                        }
                        _ => {}
                    }
                }
                let decoded = self.mapper.decode(addr);
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if !self
                    .chans
                    .can_accept(decoded.bank.channel, decoded.bank.subchannel, kind)
                {
                    break;
                }
                progress = true;
                let id = ((idx as u64) << 48) | d.seq;
                d.seq += 1;
                let ok = self.chans.enqueue(
                    MemRequest {
                        id,
                        kind,
                        addr: decoded,
                    },
                    now,
                );
                debug_assert!(ok);
                if is_write {
                    d.core.push_instrs(1);
                } else {
                    d.core.push_read(id);
                }
                d.fetch_credit -= 1.0;
                d.pending = None;
                if !is_write {
                    Self::run_prefetcher(
                        &mut self.pf_stats,
                        d,
                        idx,
                        line,
                        &self.mapper,
                        &mut self.chans,
                        now,
                    );
                }
                continue;
            }
            // Pull the next trace record (through the LLC if enabled).
            progress = true;
            let rec = d.trace.next_record();
            d.gap_left = rec.gap;
            match self.llc.as_mut() {
                None => d.pending = Some((rec.addr, rec.is_write)),
                Some(llc) => match llc.access(rec.addr, rec.is_write) {
                    CacheAccess::Hit => {
                        // Hit: the access is one ordinary instruction.
                        d.gap_left = d.gap_left.saturating_add(1);
                    }
                    CacheAccess::Miss => {
                        // Allocate on write too: the demand fill is a
                        // read; dirty data leaves later.
                        d.pending = Some((rec.addr, false));
                    }
                    CacheAccess::MissDirtyEviction(victim) => {
                        d.pending = Some((rec.addr, false));
                        // Post the writeback without ROB involvement.
                        let decoded = self.mapper.decode(victim);
                        let id = ((idx as u64) << 48) | d.seq;
                        d.seq += 1;
                        let _ = self.chans.enqueue(
                            MemRequest {
                                id,
                                kind: AccessKind::Write,
                                addr: decoded,
                            },
                            now,
                        );
                    }
                },
            }
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopac_cpu::trace::{ReplayTrace, TraceRecord};

    fn stream_trace(stride: u64, gap: u32) -> Box<dyn TraceSource> {
        let records = (0..256u64)
            .map(|i| TraceRecord {
                gap,
                addr: PhysAddr::new(i * stride),
                is_write: false,
            })
            .collect();
        Box::new(ReplayTrace::new("unit", records))
    }

    fn tiny_cfg(mit: MitigationConfig, instrs: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(mit, instrs);
        cfg.geometry = DramGeometry::tiny();
        cfg
    }

    #[test]
    fn single_core_completes() {
        let cfg = tiny_cfg(MitigationConfig::baseline(), 20_000);
        let sys = System::new(cfg, vec![stream_trace(64, 20)]).unwrap();
        let r = sys.run().unwrap();
        assert_eq!(r.cores.len(), 1);
        assert!(r.cores[0].ipc > 0.1, "ipc {}", r.cores[0].ipc);
        assert!(r.dram.reads > 0);
    }

    #[test]
    fn prac_is_slower_than_baseline() {
        // Row-conflict-heavy pattern: every access a different row in
        // the same banks.
        let mk = || {
            let records = (0..512u64)
                .map(|i| TraceRecord {
                    gap: 6,
                    addr: PhysAddr::new(i * 64 * 1024 * 8), // unique rows
                    is_write: false,
                })
                .collect();
            Box::new(ReplayTrace::new("conflict", records)) as Box<dyn TraceSource>
        };
        let base = System::new(tiny_cfg(MitigationConfig::baseline(), 30_000), vec![mk()]).unwrap().run().unwrap();
        let prac = System::new(tiny_cfg(MitigationConfig::prac(500), 30_000), vec![mk()]).unwrap().run().unwrap();
        let slow = prac.slowdown_vs(&base);
        assert!(slow > 0.02, "PRAC slowdown only {slow}");
    }

    #[test]
    fn eight_core_rate_mode_runs() {
        let cfg = tiny_cfg(MitigationConfig::baseline(), 5_000);
        let traces = (0..8).map(|_| stream_trace(64, 10)).collect();
        let r = System::new(cfg, traces).unwrap().run().unwrap();
        assert_eq!(r.cores.len(), 8);
        assert!(r.cycles > 0);
    }

    #[test]
    fn llc_filters_repeated_lines() {
        let mut cfg = tiny_cfg(MitigationConfig::baseline(), 20_000);
        cfg.use_llc = true;
        cfg.prefetch_distance = 0; // isolate the LLC path
        // A working set that fits in the LLC: after warmup, no DRAM
        // traffic.
        let records = (0..64u64)
            .map(|i| TraceRecord {
                gap: 10,
                addr: PhysAddr::new(i * 64),
                is_write: false,
            })
            .collect();
        let sys = System::new(
            cfg,
            vec![Box::new(ReplayTrace::new("resident", records)) as Box<dyn TraceSource>],
        )
        .unwrap();
        let r = sys.run().unwrap();
        assert!(r.dram.reads <= 64, "reads {}", r.dram.reads);
    }

    #[test]
    fn shard_threads_above_one_is_a_config_error() {
        for threads in [0, 1] {
            let mut cfg = tiny_cfg(MitigationConfig::baseline(), 1_000);
            cfg.shard_threads = threads;
            assert!(System::new(cfg, vec![stream_trace(64, 10)]).is_ok(), "{threads}");
        }
        let mut cfg = tiny_cfg(MitigationConfig::baseline(), 1_000);
        cfg.shard_threads = 2;
        match System::new(cfg, vec![stream_trace(64, 10)]) {
            Err(MopacError::Config { message }) => {
                assert!(message.contains("shard_threads"), "{message}");
            }
            Err(e) => panic!("expected a Config error, got {e}"),
            Ok(_) => panic!("shard_threads = 2 was accepted"),
        }
    }

    #[test]
    fn weighted_speedup_of_identical_runs_is_one() {
        let mk = || {
            let cfg = tiny_cfg(MitigationConfig::baseline(), 10_000);
            System::new(cfg, vec![stream_trace(64, 10)]).unwrap().run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert!((a.weighted_speedup_vs(&b) - 1.0).abs() < 1e-9);
        assert!(a.slowdown_vs(&b).abs() < 1e-9);
    }
}
