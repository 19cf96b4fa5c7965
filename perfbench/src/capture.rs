//! What a traced pass records for the per-layer replays: the DRAM
//! command stream from the trace ring, the trace records each core
//! consumed, attack-target counts, and the registry counters.
//!
//! Capture only observes. The wrappers forward every call (snapshot
//! state included) unchanged, so a traced pass simulates exactly what
//! an untraced one does — the benchmark checks that their digests match.

use crate::workload::{Cell, CellKind, CellResult, PatternSpec};
use mopac::config::MitigationConfig;
use mopac_cpu::trace::{TraceRecord, TraceSource};
use mopac_dram::flip::FlipPlaneConfig;
use mopac_sim::attack::{AttackConfig, AttackResult};
use mopac_sim::system::{PrefetchStats, RunResult, SystemConfig};
use mopac_types::addr::DecodedAddr;
use mopac_types::geometry::DramGeometry;
use mopac_types::obs::{Hist, MetricsSnapshot, SinkConfig, TraceEventKind};
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter};
use mopac_types::MopacResult;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The traced sink: a trace ring large enough that no event of a
/// benchmark cell is dropped (checked per cell).
pub const SINK: SinkConfig = SinkConfig {
    trace_capacity: 1 << 24,
};

/// A DRAM command the device executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// Activate `row`.
    Act,
    /// Plain precharge of `row`.
    Pre,
    /// Precharge carrying a counter update.
    PreCu,
    /// All-bank refresh.
    Ref,
    /// Refresh management (ABO recovery).
    Rfm,
}

/// One captured command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    /// Issue cycle.
    pub cycle: u64,
    /// Command.
    pub kind: CmdKind,
    /// Channel.
    pub channel: u32,
    /// Sub-channel.
    pub sc: u32,
    /// Bank (0 for REF/RFM).
    pub bank: u32,
    /// Row for ACT/PRE; first refreshed row for REF.
    pub row: u32,
}

/// Log2-bucketed histogram merged across cells: `upper bound -> count`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Buckets {
    counts: BTreeMap<u64, u64>,
    max: u64,
}

impl Buckets {
    fn add(&mut self, snap: &MetricsSnapshot, h: Hist) {
        if let Some(m) = snap.hist_merged(h) {
            for &(upper, n) in &m.buckets {
                *self.counts.entry(upper).or_default() += n;
            }
            self.max = self.max.max(m.max);
        }
    }

    /// Merges another cell's buckets.
    pub fn merge(&mut self, other: &Buckets) {
        for (&upper, &n) in &other.counts {
            *self.counts.entry(upper).or_default() += n;
        }
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The quantile with the registry's rank rule: the upper bound of
    /// the bucket holding the `ceil(q * count)`-th observation, clamped
    /// to the observed max. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (&upper, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Registry counters a traced cell reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `mc.idle_with_work`, summed over channels.
    pub idle_with_work: u64,
    /// `dram.activates`.
    pub activates: u64,
    /// `dram.refreshes`.
    pub refreshes: u64,
    /// `dram.rfms`.
    pub rfms: u64,
    /// `dram.alerts_*`, all causes.
    pub alerts: u64,
    /// `dram.blocked_bank_cycles`.
    pub blocked_bank_cycles: u64,
    /// `dram.corrupted_reads`.
    pub corrupted_reads: u64,
    /// `engine.mitigations`.
    pub engine_mitigations: u64,
    /// `kernel.sync_rounds`.
    pub sync_rounds: u64,
    /// `trace.events_dropped`.
    pub events_dropped: u64,
}

impl Counters {
    fn from_snapshot(s: &MetricsSnapshot) -> Self {
        let c = |name: &str| s.counter(name).unwrap_or(0);
        Self {
            idle_with_work: c("mc.idle_with_work"),
            activates: c("dram.activates"),
            refreshes: c("dram.refreshes"),
            rfms: c("dram.rfms"),
            alerts: c("dram.alerts_mitigation")
                + c("dram.alerts_srq_full")
                + c("dram.alerts_tardiness"),
            blocked_bank_cycles: c("dram.blocked_bank_cycles"),
            corrupted_reads: c("dram.corrupted_reads"),
            engine_mitigations: c("engine.mitigations"),
            sync_rounds: c("kernel.sync_rounds"),
            events_dropped: c("trace.events_dropped"),
        }
    }
}

/// How to rebuild a cell's input generator for the standalone replays.
#[derive(Debug, Clone)]
pub enum Source {
    /// Table-4 traces, rebuilt with `build_traces(mix, cfg)`.
    Traces {
        cfg: Box<SystemConfig>,
        mix: &'static str,
    },
    /// An attack pattern, driven with `cfg`.
    Pattern {
        spec: PatternSpec,
        cfg: Box<AttackConfig>,
    },
}

/// Everything a traced cell recorded.
#[derive(Debug, Clone)]
pub struct CellCapture {
    /// Registry key of the engine.
    pub engine: &'static str,
    /// Mitigation under test.
    pub mitigation: MitigationConfig,
    /// Per-channel device geometry.
    pub geometry: DramGeometry,
    /// Device seed of each channel.
    pub device_seeds: Vec<u64>,
    /// Whether the Rowhammer checker ran.
    pub checker: bool,
    /// Flip-plane configuration, if armed.
    pub flip: Option<FlipPlaneConfig>,
    /// The input generator.
    pub source: Source,
    /// Trace records each core consumed, in order (empty for attacks).
    pub records: Vec<Rc<RefCell<Vec<TraceRecord>>>>,
    /// Attack targets the pattern produced.
    pub targets: u64,
    /// The device command stream, per channel in issue order.
    pub commands: Vec<Cmd>,
    /// Registry counters.
    pub counters: Counters,
    /// `mc.read_latency`, merged.
    pub read_latency: Buckets,
    /// `kernel.batch_len`, merged.
    pub batch_len: Buckets,
    /// Prefetcher counters (system cells).
    pub prefetch: PrefetchStats,
    /// Sub-channel cycles simulated (cycles × sub-channels over every
    /// channel): the controller schedules each sub-channel every cycle.
    pub subchannel_cycles: u64,
    /// The cell's simulated results.
    pub result: CellResult,
    /// Whether the cell ran the event kernel (system cells).
    pub event_kernel: bool,
}

impl CellCapture {
    /// An empty capture for `cell`.
    #[must_use]
    pub fn new(cell: &Cell) -> Self {
        let (geometry, channels, checker, flip, source, event_kernel) = match &cell.kind {
            CellKind::System { cfg, mix, .. } => (
                cfg.geometry.channel_view(),
                cfg.geometry.channels,
                cfg.enable_checker,
                None,
                Source::Traces {
                    cfg: Box::new(cfg.clone()),
                    mix,
                },
                true,
            ),
            CellKind::Attack { cfg, pattern, .. } => (
                cfg.geometry.channel_view(),
                1,
                cfg.enable_checker,
                cfg.flip,
                Source::Pattern {
                    spec: *pattern,
                    cfg: Box::new(cfg.clone()),
                },
                false,
            ),
        };
        Self {
            engine: cell.engine,
            mitigation: cell.mitigation(),
            geometry,
            device_seeds: vec![0; channels as usize],
            checker,
            flip,
            source,
            records: Vec::new(),
            targets: 0,
            commands: Vec::new(),
            counters: Counters::default(),
            read_latency: Buckets::default(),
            batch_len: Buckets::default(),
            prefetch: PrefetchStats::default(),
            subchannel_cycles: 0,
            result: CellResult::default(),
            event_kernel,
        }
    }

    fn absorb_snapshot(&mut self, snap: &MetricsSnapshot) {
        self.counters = Counters::from_snapshot(snap);
        self.read_latency.add(snap, Hist::ReadLatency);
        self.batch_len.add(snap, Hist::KernelBatchLen);
        self.commands = snap
            .events
            .iter()
            .filter_map(|e| {
                let kind = match e.kind {
                    TraceEventKind::Act => CmdKind::Act,
                    TraceEventKind::Pre => CmdKind::Pre,
                    TraceEventKind::PreCu => CmdKind::PreCu,
                    TraceEventKind::Ref => CmdKind::Ref,
                    TraceEventKind::Rfm => CmdKind::Rfm,
                    _ => return None,
                };
                Some(Cmd {
                    cycle: e.cycle,
                    kind,
                    channel: e.channel,
                    sc: e.subchannel,
                    bank: e.bank,
                    row: u32::try_from(e.value).unwrap_or(u32::MAX),
                })
            })
            .collect();
    }

    /// Records a finished system cell.
    pub fn absorb_system(&mut self, cfg: &SystemConfig, r: &RunResult, snap: &MetricsSnapshot) {
        // The per-channel device seeds `System::new` derives (channel 0
        // keeps the historical stream; the others are salted). A wrong
        // derivation shows up as a diverged DRAM replay.
        for (ch, seed) in self.device_seeds.iter_mut().enumerate() {
            let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ch as u64);
            *seed = (cfg.seed ^ 0xD8A3) ^ salt;
        }
        self.absorb_snapshot(snap);
        self.prefetch = r.prefetch;
        self.subchannel_cycles =
            r.cycles * u64::from(cfg.geometry.channels * cfg.geometry.subchannels);
        self.result = CellResult::from_run(r);
    }

    /// Records a finished attack cell.
    pub fn absorb_attack(
        &mut self,
        cfg: &AttackConfig,
        device_seed: u64,
        targets: u64,
        r: &AttackResult,
        snap: &MetricsSnapshot,
    ) {
        self.device_seeds = vec![device_seed];
        self.absorb_snapshot(snap);
        self.targets = targets;
        self.subchannel_cycles =
            r.cycles * u64::from(cfg.geometry.channels * cfg.geometry.subchannels);
        self.result = CellResult::from_attack(r);
    }
}

/// A [`TraceSource`] that records every record it hands out.
pub struct CaptureTrace {
    inner: Box<dyn TraceSource>,
    out: Rc<RefCell<Vec<TraceRecord>>>,
}

impl CaptureTrace {
    /// Wraps each core's trace; a second call (a restore target)
    /// appends to the same per-core record lists.
    #[must_use]
    pub fn wrap_all(
        traces: Vec<Box<dyn TraceSource>>,
        cap: &mut CellCapture,
    ) -> Vec<Box<dyn TraceSource>> {
        if cap.records.is_empty() {
            cap.records = traces.iter().map(|_| Rc::default()).collect();
        }
        traces
            .into_iter()
            .zip(&cap.records)
            .map(|(inner, out)| {
                Box::new(CaptureTrace {
                    inner,
                    out: Rc::clone(out),
                }) as Box<dyn TraceSource>
            })
            .collect()
    }
}

impl TraceSource for CaptureTrace {
    fn next_record(&mut self) -> TraceRecord {
        let r = self.inner.next_record();
        self.out.borrow_mut().push(r);
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn corrupted_records(&self) -> u64 {
        self.inner.corrupted_records()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.inner.load_state(r)
    }
}

/// An [`mopac_workloads::AttackPattern`] that counts the targets it
/// hands out.
pub struct CountingPattern<'a> {
    inner: &'a mut dyn mopac_workloads::AttackPattern,
    count: u64,
}

impl<'a> CountingPattern<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn mopac_workloads::AttackPattern) -> Self {
        Self { inner, count: 0 }
    }

    /// Targets handed out so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl mopac_workloads::AttackPattern for CountingPattern<'_> {
    fn next_target(&mut self) -> DecodedAddr {
        self.count += 1;
        self.inner.next_target()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.inner.load_state(r)
    }
}
