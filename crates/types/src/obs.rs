//! Observability layer: a typed metrics registry plus a structured
//! event-trace ring, both designed around one invariant — **with the
//! sink disabled, instrumented code is bit-identical to uninstrumented
//! code** (no allocation, no RNG draws, no floating-point, nothing but
//! one branch per call site).
//!
//! The paper's entire evaluation (Figs. 7–13, Table 4) is a story told
//! through counters; this module gives every layer of the simulator one
//! vocabulary for them:
//!
//! * [`Counter`] / [`Gauge`] — *typed* scalar metrics. Names are enum
//!   variants, not strings, so the hot-path increment is an array index
//!   and a registry can never be polluted by a typo'd key.
//! * [`Log2Histogram`] — fixed-bucket (power-of-two) histograms for
//!   latency- and gap-shaped quantities; 65 buckets cover the full
//!   `u64` range with no allocation after construction.
//! * [`Hist`] — the typed histogram names, labeled by a small integer
//!   (sub-channel, flat bank, or engine index) at record time.
//! * [`TraceRing`] — a bounded ring of cycle-stamped
//!   [`TraceEvent`]s (ACT/PRE/REF/RFM/ALERT/mitigation); memory use is
//!   capped, old events are dropped (and counted) once full.
//! * [`MetricsSink`] — the handle threaded through the controller, the
//!   DRAM device and the system. Constructed disabled by default;
//!   every record method is an inlined no-op until
//!   [`MetricsSink::enabled`] replaces it.
//! * [`MetricsSnapshot`] — a plain-data, `Send` export of a sink
//!   (counters, gauges, histogram percentiles, trace events) that can
//!   cross campaign threads and serialize to CSV or JSONL.
//!
//! The stats structs (`McStats`, `DramStats`, `MitigationStats`,
//! `FlipStats`, `LlcStats`, `PrefetchStats`) are the only store for
//! their counters — which is what makes the disabled-mode bit-identity
//! invariant trivial. Each is declared through
//! [`counter_struct!`](crate::counter_struct), whose one
//! `field => Counter` list derives `accumulate`, the registry export
//! ([`MetricsSink::set_counters`]) and the snapshot encoding. The
//! registry holds only the counters no struct owns (blocked-bank
//! cycles, subarray-parallel updates, sync rounds, trace drops). See
//! DESIGN.md §11.

use crate::error::{MopacError, MopacResult};
use crate::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use crate::time::Cycle;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Typed scalar counters. One variant per metric; the registry stores
/// them in a fixed array indexed by discriminant, so incrementing is
/// O(1) with no hashing and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// MC: reads completed.
    McReadsDone,
    /// MC: writes accepted.
    McWritesDone,
    /// MC: sum of read latencies (cycles).
    McReadLatencySum,
    /// MC: RFMs issued in response to ALERT.
    McRfmsIssued,
    /// MC: cycles stalled for ABO.
    McAboStallCycles,
    /// MC: cycles with queued work but no command issued.
    McIdleWithWork,
    /// MC: cycles in refresh-drain mode.
    McRefreshModeCycles,
    /// DRAM: activations.
    DramActivates,
    /// DRAM: reads.
    DramReads,
    /// DRAM: writes.
    DramWrites,
    /// DRAM: normal precharges.
    DramPrecharges,
    /// DRAM: counter-update precharges (PRAC / PREcu).
    DramPrechargesCu,
    /// DRAM: REF commands.
    DramRefreshes,
    /// DRAM: RFM commands.
    DramRfms,
    /// DRAM: ALERTs caused by mitigation need.
    DramAlertsMitigation,
    /// DRAM: ALERTs caused by a full SRQ.
    DramAlertsSrqFull,
    /// DRAM: ALERTs caused by tardiness.
    DramAlertsTardiness,
    /// DRAM: aggressor-row mitigations.
    DramMitigations,
    /// DRAM: deferred counter updates.
    DramDeferredUpdates,
    /// DRAM: injected faults.
    DramInjectedFaults,
    /// DRAM: bank-cycles spent blocked by ABO/RFM recovery (the stall
    /// window times the number of banks it blocked — sub-channel-scoped
    /// recovery charges every bank, bank-scoped recovery only the
    /// alerting ones).
    DramBlockedBankCycles,
    /// DRAM: activations issued while a deferred counter update was
    /// still in flight in a *different* subarray of the same bank (the
    /// parallelism PRACtical's subarray-level update unlocks — PRAC
    /// would have serialized these behind the long tRP).
    DramSubarrayParallelUpdates,
    /// DRAM: victim-word bits flipped by disturbance (flip plane).
    DramBitFlips,
    /// DRAM: single-bit flips scrubbed by on-die SEC ECC on read/REF.
    DramEccCorrections,
    /// DRAM: reads that returned corrupted (uncorrectable) victim data.
    DramCorruptedReads,
    /// Engines: activations observed.
    EngineActivations,
    /// Engines: counter updates performed.
    EngineCounterUpdates,
    /// Engines: SRQ insertions.
    EngineSrqInsertions,
    /// Engines: SRQ overflows.
    EngineSrqOverflows,
    /// Engines: mitigations performed.
    EngineMitigations,
    /// Engines: update precharges.
    EngineUpdatePrecharges,
    /// Engines: ABO-forced mitigations.
    EngineAboMitigations,
    /// Engines: proactive (REF-piggybacked) mitigations.
    EngineProactiveMitigations,
    /// Engines: deferred updates drained at REF.
    EngineRefDrainedUpdates,
    /// LLC: accesses.
    LlcAccesses,
    /// LLC: misses.
    LlcMisses,
    /// LLC: writebacks.
    LlcWritebacks,
    /// Prefetcher: requests issued.
    PrefetchIssued,
    /// Prefetcher: demand reads fully absorbed.
    PrefetchHits,
    /// Prefetcher: demand reads that piggybacked on an in-flight line.
    PrefetchLateHits,
    /// Trace ring: events dropped because the ring was full.
    TraceEventsDropped,
    /// Event kernel: channel-tick rounds (one per simulated `step`).
    KernelSyncRounds,
}

impl Counter {
    /// Every counter, in declaration order (export order).
    pub const ALL: [Counter; 42] = [
        Counter::McReadsDone,
        Counter::McWritesDone,
        Counter::McReadLatencySum,
        Counter::McRfmsIssued,
        Counter::McAboStallCycles,
        Counter::McIdleWithWork,
        Counter::McRefreshModeCycles,
        Counter::DramActivates,
        Counter::DramReads,
        Counter::DramWrites,
        Counter::DramPrecharges,
        Counter::DramPrechargesCu,
        Counter::DramRefreshes,
        Counter::DramRfms,
        Counter::DramAlertsMitigation,
        Counter::DramAlertsSrqFull,
        Counter::DramAlertsTardiness,
        Counter::DramMitigations,
        Counter::DramDeferredUpdates,
        Counter::DramInjectedFaults,
        Counter::DramBlockedBankCycles,
        Counter::DramSubarrayParallelUpdates,
        Counter::DramBitFlips,
        Counter::DramEccCorrections,
        Counter::DramCorruptedReads,
        Counter::EngineActivations,
        Counter::EngineCounterUpdates,
        Counter::EngineSrqInsertions,
        Counter::EngineSrqOverflows,
        Counter::EngineMitigations,
        Counter::EngineUpdatePrecharges,
        Counter::EngineAboMitigations,
        Counter::EngineProactiveMitigations,
        Counter::EngineRefDrainedUpdates,
        Counter::LlcAccesses,
        Counter::LlcMisses,
        Counter::LlcWritebacks,
        Counter::PrefetchIssued,
        Counter::PrefetchHits,
        Counter::PrefetchLateHits,
        Counter::TraceEventsDropped,
        Counter::KernelSyncRounds,
    ];

    /// Stable export name (`layer.metric`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::McReadsDone => "mc.reads_done",
            Counter::McWritesDone => "mc.writes_done",
            Counter::McReadLatencySum => "mc.read_latency_sum",
            Counter::McRfmsIssued => "mc.rfms_issued",
            Counter::McAboStallCycles => "mc.abo_stall_cycles",
            Counter::McIdleWithWork => "mc.idle_with_work",
            Counter::McRefreshModeCycles => "mc.refresh_mode_cycles",
            Counter::DramActivates => "dram.activates",
            Counter::DramReads => "dram.reads",
            Counter::DramWrites => "dram.writes",
            Counter::DramPrecharges => "dram.precharges",
            Counter::DramPrechargesCu => "dram.precharges_cu",
            Counter::DramRefreshes => "dram.refreshes",
            Counter::DramRfms => "dram.rfms",
            Counter::DramAlertsMitigation => "dram.alerts_mitigation",
            Counter::DramAlertsSrqFull => "dram.alerts_srq_full",
            Counter::DramAlertsTardiness => "dram.alerts_tardiness",
            Counter::DramMitigations => "dram.mitigations",
            Counter::DramDeferredUpdates => "dram.deferred_updates",
            Counter::DramInjectedFaults => "dram.injected_faults",
            Counter::DramBlockedBankCycles => "dram.blocked_bank_cycles",
            Counter::DramSubarrayParallelUpdates => "dram.subarray_parallel_updates",
            Counter::DramBitFlips => "dram.bit_flips",
            Counter::DramEccCorrections => "dram.ecc_corrections",
            Counter::DramCorruptedReads => "dram.corrupted_reads",
            Counter::EngineActivations => "engine.activations",
            Counter::EngineCounterUpdates => "engine.counter_updates",
            Counter::EngineSrqInsertions => "engine.srq_insertions",
            Counter::EngineSrqOverflows => "engine.srq_overflows",
            Counter::EngineMitigations => "engine.mitigations",
            Counter::EngineUpdatePrecharges => "engine.update_precharges",
            Counter::EngineAboMitigations => "engine.abo_mitigations",
            Counter::EngineProactiveMitigations => "engine.proactive_mitigations",
            Counter::EngineRefDrainedUpdates => "engine.ref_drained_updates",
            Counter::LlcAccesses => "llc.accesses",
            Counter::LlcMisses => "llc.misses",
            Counter::LlcWritebacks => "llc.writebacks",
            Counter::PrefetchIssued => "prefetch.issued",
            Counter::PrefetchHits => "prefetch.hits",
            Counter::PrefetchLateHits => "prefetch.late_hits",
            Counter::TraceEventsDropped => "trace.events_dropped",
            Counter::KernelSyncRounds => "kernel.sync_rounds",
        }
    }
}

/// Declares a stats struct whose fields are all `u64` [`Counter`]s.
///
/// Each field is written `pub name: u64 => CounterVariant,` — the one
/// place that pairs it with its registry counter. From that list the
/// macro derives the struct, an inherent `accumulate` (field-wise sum),
/// an inherent `counters` (every `(Counter, value)` pair in declaration
/// order, for [`MetricsSink::set_counters`]) and a
/// [`Snapshottable`](crate::snapshot::Snapshottable) impl that encodes
/// the fields as `u64`s in declaration order.
///
/// ```
/// mopac_types::counter_struct! {
///     /// Two LLC counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Demo {
///         /// Accesses.
///         pub accesses: u64 => LlcAccesses,
///         /// Misses.
///         pub misses: u64 => LlcMisses,
///     }
/// }
/// let mut a = Demo { accesses: 3, misses: 1 };
/// a.accumulate(&Demo { accesses: 2, misses: 2 });
/// let pairs: Vec<_> = a.counters().map(|(c, v)| (c.name(), v)).collect();
/// assert_eq!(pairs, [("llc.accesses", 5), ("llc.misses", 3)]);
/// ```
#[macro_export]
macro_rules! counter_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: u64 => $counter:ident,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                pub $field: u64,
            )*
        }

        impl $name {
            /// Field-wise accumulation: folds another instance's
            /// counters into this one (per-bank or per-channel totals).
            pub fn accumulate(&mut self, o: &Self) {
                $(self.$field += o.$field;)*
            }

            /// Every field paired with its registry counter, in
            /// declaration order.
            pub fn counters(&self) -> impl Iterator<Item = ($crate::obs::Counter, u64)> {
                [$(($crate::obs::Counter::$counter, self.$field)),*].into_iter()
            }
        }

        impl $crate::snapshot::Snapshottable for $name {
            fn save_state(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $(w.put_u64(self.$field);)*
            }

            fn load_state(
                &mut self,
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> $crate::error::MopacResult<()> {
                $(self.$field = r.take_u64()?;)*
                Ok(())
            }
        }
    };
}

/// Typed gauges (point-in-time values, overwritten on set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Gauge {
    /// Total cycles simulated at snapshot time.
    Cycles,
    /// Requests queued in the MC at snapshot time.
    McQueued,
    /// SRQ occupancy of one engine instance (labeled use goes through
    /// [`Hist::SrqOccupancy`]; this gauge holds the max across banks).
    EngineSrqOccupancyMax,
    /// Rowhammer-oracle violations at snapshot time.
    OracleViolations,
}

impl Gauge {
    /// Every gauge, in declaration order.
    pub const ALL: [Gauge; 4] = [
        Gauge::Cycles,
        Gauge::McQueued,
        Gauge::EngineSrqOccupancyMax,
        Gauge::OracleViolations,
    ];

    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Cycles => "sim.cycles",
            Gauge::McQueued => "mc.queued",
            Gauge::EngineSrqOccupancyMax => "engine.srq_occupancy_max",
            Gauge::OracleViolations => "sim.oracle_violations",
        }
    }
}

/// Typed histogram names. Each recording carries a small integer label
/// (sub-channel, flat bank, or engine index), so distributions stay
/// per-bank / per-engine without string keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Hist {
    /// Read latency, enqueue to data completion (cycles); labeled by
    /// sub-channel.
    ReadLatency,
    /// Gap between consecutive ACTs on a sub-channel (cycles).
    InterActGap,
    /// ALERT assertion to RFM service (cycles); labeled by sub-channel.
    AboServiceTime,
    /// SRQ occupancy sampled at engine export; labeled by flat bank.
    SrqOccupancy,
    /// Open time of a row at precharge (cycles); labeled by
    /// sub-channel.
    RowOpenTime,
    /// Cycles covered per macro batch of the removed batched channel
    /// handoff. Kept so existing readers still resolve the name;
    /// nothing records into it.
    KernelBatchLen,
}

impl Hist {
    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::ReadLatency => "mc.read_latency",
            Hist::InterActGap => "dram.inter_act_gap",
            Hist::AboServiceTime => "dram.abo_service_time",
            Hist::SrqOccupancy => "engine.srq_occupancy",
            Hist::RowOpenTime => "dram.row_open_time",
            Hist::KernelBatchLen => "kernel.batch_len",
        }
    }

    /// Stable on-disk tag for snapshots (the `#[repr(u8)]`
    /// discriminant).
    #[must_use]
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Hist::tag`].
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Hist::ReadLatency),
            1 => Some(Hist::InterActGap),
            2 => Some(Hist::AboServiceTime),
            3 => Some(Hist::SrqOccupancy),
            4 => Some(Hist::RowOpenTime),
            5 => Some(Hist::KernelBatchLen),
            _ => None,
        }
    }
}

/// A log2-bucketed histogram over `u64` values: bucket 0 holds the
/// value 0, bucket `k` (1..=64) holds values in `[2^(k-1), 2^k)`. The
/// bucket count is fixed, so recording never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Bucket index for `value` (0 for 0, else `64 - leading_zeros`).
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `idx` (`2^idx - 1`, saturating).
    #[must_use]
    pub fn bucket_upper(idx: usize) -> u64 {
        if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index = [`Log2Histogram::bucket_of`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Approximate quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket containing the `ceil(q * count)`-th observation
    /// (clamped to the observed max). Exact to within one power of two
    /// — the resolution the fixed buckets buy.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }
}

/// What kind of DRAM-protocol event a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Row activation (`value` = row).
    Act,
    /// Normal precharge (`value` = row).
    Pre,
    /// Counter-update precharge (`value` = row).
    PreCu,
    /// All-bank refresh (`value` = first refreshed row).
    Ref,
    /// RFM / ABO service (`value` = ALERT-to-service cycles, 0 if no
    /// ALERT was pending).
    Rfm,
    /// ALERT assertion (`value` = cause: 0 mitigation, 1 SRQ-full,
    /// 2 tardiness).
    Alert,
    /// Aggressor-row mitigation batch (`value` = rows mitigated).
    Mitigation,
    /// Victim-word bit flips injected by the flip plane (`value` =
    /// bits flipped by this activation's disturbance).
    BitFlip,
}

impl TraceEventKind {
    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Act => "ACT",
            TraceEventKind::Pre => "PRE",
            TraceEventKind::PreCu => "PRECU",
            TraceEventKind::Ref => "REF",
            TraceEventKind::Rfm => "RFM",
            TraceEventKind::Alert => "ALERT",
            TraceEventKind::Mitigation => "MITIGATION",
            TraceEventKind::BitFlip => "BITFLIP",
        }
    }

    /// Stable on-disk tag for snapshots.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            TraceEventKind::Act => 0,
            TraceEventKind::Pre => 1,
            TraceEventKind::PreCu => 2,
            TraceEventKind::Ref => 3,
            TraceEventKind::Rfm => 4,
            TraceEventKind::Alert => 5,
            TraceEventKind::Mitigation => 6,
            TraceEventKind::BitFlip => 7,
        }
    }

    /// Inverse of [`TraceEventKind::tag`].
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(TraceEventKind::Act),
            1 => Some(TraceEventKind::Pre),
            2 => Some(TraceEventKind::PreCu),
            3 => Some(TraceEventKind::Ref),
            4 => Some(TraceEventKind::Rfm),
            5 => Some(TraceEventKind::Alert),
            6 => Some(TraceEventKind::Mitigation),
            7 => Some(TraceEventKind::BitFlip),
            _ => None,
        }
    }
}

/// One cycle-stamped protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened at.
    pub cycle: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
    /// Channel.
    pub channel: u32,
    /// Sub-channel.
    pub subchannel: u32,
    /// Bank (0 for sub-channel-wide events: REF, RFM, ALERT).
    pub bank: u32,
    /// Kind-specific payload (see [`TraceEventKind`]).
    pub value: u64,
    /// Subarray within the bank (schema v2). Populated for row-level
    /// events (ACT, PRE, PREcu) on subarray-aware geometries; `0` for
    /// bank- and sub-channel-wide events and on flat-bank geometries.
    pub subarray: u32,
}

impl TraceEvent {
    /// CSV row matching [`TraceRing::CSV_HEADER`].
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.cycle,
            self.kind.name(),
            self.channel,
            self.subchannel,
            self.bank,
            self.value,
            self.subarray
        )
    }

    /// One JSONL line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"cycle\":{},\"kind\":\"{}\",\"ch\":{},\"sc\":{},\"bank\":{},\"value\":{},\"subarray\":{}}}",
            self.cycle,
            self.kind.name(),
            self.channel,
            self.subchannel,
            self.bank,
            self.value,
            self.subarray
        )
    }
}

/// A bounded ring of [`TraceEvent`]s. Pushing past the capacity drops
/// the *oldest* event (the recent tail is what post-mortems need) and
/// counts the drop, so memory stays bounded no matter how long the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRing {
    buf: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// Trace export schema version. Version 2 appended the `subarray`
    /// column; all version-1 columns kept their name and position, so
    /// v1 consumers that index columns by name keep working.
    pub const SCHEMA_VERSION: u32 = 2;

    /// CSV header for [`TraceEvent::to_csv_row`].
    pub const CSV_HEADER: &'static str = "cycle,kind,channel,subchannel,bank,value,subarray";

    /// A ring holding at most `capacity` events (0 disables recording).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: std::collections::VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Events held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted or refused because of the bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the ring as CSV (header + one row per event).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for e in &self.buf {
            out.push_str(&e.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// Renders the ring as JSONL (one object per line).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.buf {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }
}

/// The registry: typed counters, gauges, and labeled histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    counters: [u64; Counter::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
    /// Labeled histograms, keyed `(histogram, label)`. A `BTreeMap`
    /// keeps export order deterministic.
    hists: BTreeMap<(Hist, u32), Log2Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            gauges: [0; Gauge::ALL.len()],
            hists: BTreeMap::new(),
        }
    }
}

impl MetricsRegistry {
    /// Adds `v` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, v: u64) {
        self.counters[c as usize] += v;
    }

    /// Overwrites a counter (used when exporting an externally
    /// maintained stats struct onto the registry).
    #[inline]
    pub fn set_counter(&mut self, c: Counter, v: u64) {
        self.counters[c as usize] = v;
    }

    /// Reads a counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, g: Gauge, v: u64) {
        self.gauges[g as usize] = v;
    }

    /// Reads a gauge.
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Records one observation into histogram `h` under `label`.
    #[inline]
    pub fn record(&mut self, h: Hist, label: u32, value: u64) {
        self.hists.entry((h, label)).or_default().record(value);
    }

    /// The histogram for `(h, label)`, if anything was recorded.
    #[must_use]
    pub fn hist(&self, h: Hist, label: u32) -> Option<&Log2Histogram> {
        self.hists.get(&(h, label))
    }

    /// All histograms, in deterministic key order.
    pub fn hists(&self) -> impl Iterator<Item = (&(Hist, u32), &Log2Histogram)> {
        self.hists.iter()
    }

    /// A merged view of one histogram across all labels (e.g. the
    /// device-wide read-latency distribution).
    #[must_use]
    pub fn hist_merged(&self, h: Hist) -> Log2Histogram {
        let mut merged = Log2Histogram::default();
        for ((hh, _), src) in &self.hists {
            if *hh != h {
                continue;
            }
            for (idx, &n) in src.buckets.iter().enumerate() {
                merged.buckets[idx] += n;
            }
            merged.count += src.count;
            merged.sum = merged.sum.saturating_add(src.sum);
            if src.count > 0 {
                merged.min = merged.min.min(src.min);
                merged.max = merged.max.max(src.max);
            }
        }
        merged
    }
}

/// Sink configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkConfig {
    /// Trace-ring bound (events). 0 disables event tracing while
    /// keeping counters and histograms live.
    pub trace_capacity: usize,
}

impl Default for SinkConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 65_536,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SinkInner {
    registry: MetricsRegistry,
    ring: TraceRing,
}

/// The recording handle threaded through the simulator layers.
///
/// Disabled (the default), every record method reduces to a branch on
/// a `None` — no allocation, no hashing, no floating point — which is
/// what keeps instrumented runs bit-identical and within noise of
/// uninstrumented ones. [`MetricsSink::enabled`] swaps in a live
/// [`MetricsRegistry`] + [`TraceRing`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSink(Option<Box<SinkInner>>);

impl MetricsSink {
    /// A disabled sink (all record calls are no-ops).
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A live sink.
    #[must_use]
    pub fn enabled(cfg: SinkConfig) -> Self {
        Self(Some(Box::new(SinkInner {
            registry: MetricsRegistry::default(),
            ring: TraceRing::new(cfg.trace_capacity),
        })))
    }

    /// Whether this sink records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `v` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, v: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.registry.add(c, v);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, g: Gauge, v: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.registry.set_gauge(g, v);
        }
    }

    /// Records a histogram observation under `label`.
    #[inline]
    pub fn record(&mut self, h: Hist, label: u32, value: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.registry.record(h, label, value);
        }
    }

    /// Appends a trace event.
    #[inline]
    pub fn event(&mut self, event: TraceEvent) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.ring.push(event);
        }
    }

    /// The live registry, if enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref().map(|i| &i.registry)
    }

    /// Overwrites counters with the given values: the export of a
    /// [`counter_struct!`](crate::counter_struct) (its `counters()`)
    /// onto the registry.
    pub fn set_counters(&mut self, counters: impl IntoIterator<Item = (Counter, u64)>) {
        if let Some(inner) = self.0.as_deref_mut() {
            for (c, v) in counters {
                inner.registry.set_counter(c, v);
            }
        }
    }

    /// The live trace ring, if enabled.
    #[must_use]
    pub fn ring(&self) -> Option<&TraceRing> {
        self.0.as_deref().map(|i| &i.ring)
    }

    /// Exports the sink as plain data (`None` if disabled). The dropped
    /// trace-event count is folded in as
    /// [`Counter::TraceEventsDropped`].
    #[must_use]
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let inner = self.0.as_deref()?;
        let mut registry = inner.registry.clone();
        registry.set_counter(Counter::TraceEventsDropped, inner.ring.dropped());
        Some(MetricsSnapshot::from_parts(
            &registry,
            inner.ring.events().copied().collect(),
        ))
    }

    /// Merges another sink's registry and ring into this one (used to
    /// combine the controller's and device's sinks into one export).
    pub fn absorb(&mut self, other: &MetricsSink) {
        let Some(inner) = self.0.as_deref_mut() else {
            return;
        };
        let Some(src) = other.0.as_deref() else {
            return;
        };
        for c in Counter::ALL {
            inner.registry.add(c, src.registry.counter(c));
        }
        for g in Gauge::ALL {
            let v = src.registry.gauge(g);
            if v != 0 {
                inner.registry.set_gauge(g, v);
            }
        }
        for (&(h, label), hist) in src.registry.hists() {
            let dst = inner.registry.hists.entry((h, label)).or_default();
            for (idx, &n) in hist.buckets.iter().enumerate() {
                dst.buckets[idx] += n;
            }
            dst.count += hist.count;
            dst.sum = dst.sum.saturating_add(hist.sum);
            if hist.count > 0 {
                dst.min = dst.min.min(hist.min);
                dst.max = dst.max.max(hist.max);
            }
        }
        for e in src.ring.events() {
            inner.ring.push(*e);
        }
        inner.ring.dropped += src.ring.dropped();
    }
}

impl Snapshottable for Log2Histogram {
    fn save_state(&self, w: &mut SnapshotWriter) {
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        for b in &mut self.buckets {
            *b = r.take_u64()?;
        }
        self.count = r.take_u64()?;
        self.sum = r.take_u64()?;
        self.min = r.take_u64()?;
        self.max = r.take_u64()?;
        Ok(())
    }
}

impl Snapshottable for MetricsRegistry {
    fn save_state(&self, w: &mut SnapshotWriter) {
        for &c in &self.counters {
            w.put_u64(c);
        }
        for &g in &self.gauges {
            w.put_u64(g);
        }
        w.put_usize(self.hists.len());
        for (&(h, label), hist) in &self.hists {
            w.put_u8(h.tag());
            w.put_u32(label);
            hist.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        for c in &mut self.counters {
            *c = r.take_u64()?;
        }
        for g in &mut self.gauges {
            *g = r.take_u64()?;
        }
        let n = r.take_usize()?;
        self.hists.clear();
        for _ in 0..n {
            let tag = r.take_u8()?;
            let h = Hist::from_tag(tag)
                .ok_or_else(|| MopacError::snapshot(format!("unknown histogram tag {tag}")))?;
            let label = r.take_u32()?;
            let mut hist = Log2Histogram::default();
            hist.load_state(r)?;
            self.hists.insert((h, label), hist);
        }
        Ok(())
    }
}

impl Snapshottable for TraceRing {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.capacity);
        w.put_u64(self.dropped);
        w.put_usize(self.buf.len());
        for e in &self.buf {
            w.put_u64(e.cycle);
            w.put_u8(e.kind.tag());
            w.put_u32(e.channel);
            w.put_u32(e.subchannel);
            w.put_u32(e.bank);
            w.put_u64(e.value);
            w.put_u32(e.subarray);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let capacity = r.take_usize()?;
        if capacity != self.capacity {
            return Err(MopacError::snapshot(format!(
                "trace-ring capacity mismatch: snapshot {capacity}, configured {}",
                self.capacity
            )));
        }
        self.dropped = r.take_u64()?;
        let n = r.take_usize()?;
        if n > capacity {
            return Err(MopacError::snapshot(format!(
                "trace ring holds {n} events but capacity is {capacity}"
            )));
        }
        self.buf.clear();
        for _ in 0..n {
            let cycle = r.take_u64()?;
            let tag = r.take_u8()?;
            let kind = TraceEventKind::from_tag(tag)
                .ok_or_else(|| MopacError::snapshot(format!("unknown trace-event tag {tag}")))?;
            let channel = r.take_u32()?;
            let subchannel = r.take_u32()?;
            let bank = r.take_u32()?;
            let value = r.take_u64()?;
            let subarray = r.take_u32()?;
            self.buf.push_back(TraceEvent {
                cycle,
                kind,
                channel,
                subchannel,
                bank,
                value,
                subarray,
            });
        }
        Ok(())
    }
}

impl Snapshottable for MetricsSink {
    fn save_state(&self, w: &mut SnapshotWriter) {
        match self.0.as_deref() {
            None => w.put_bool(false),
            Some(inner) => {
                w.put_bool(true);
                inner.registry.save_state(w);
                inner.ring.save_state(w);
            }
        }
    }

    /// Restores a sink saved by [`Snapshottable::save_state`]. The sink
    /// must already be in the same enabled/disabled mode (that is
    /// configuration, not runtime state).
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let was_enabled = r.take_bool()?;
        match (was_enabled, self.0.as_deref_mut()) {
            (false, None) => Ok(()),
            (true, Some(inner)) => {
                inner.registry.load_state(r)?;
                inner.ring.load_state(r)
            }
            (snap, _) => Err(MopacError::snapshot(format!(
                "metrics-sink mode mismatch: snapshot enabled={snap}, configured enabled={}",
                self.is_enabled()
            ))),
        }
    }
}

/// Percentile summary of one labeled histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Histogram name ([`Hist::name`]).
    pub name: &'static str,
    /// Label (sub-channel / flat bank / engine index).
    pub label: u32,
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median (bucket-resolution upper bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(bucket_upper_bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    fn from_hist(name: &'static str, label: u32, h: &Log2Histogram) -> Self {
        Self {
            name,
            label,
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(idx, &n)| (Log2Histogram::bucket_upper(idx), n))
                .collect(),
        }
    }

    /// One JSONL line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut buckets = String::new();
        for (i, (upper, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            let _ = write!(buckets, "[{upper},{n}]");
        }
        format!(
            "{{\"hist\":\"{}\",\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.name,
            self.label,
            self.count,
            self.sum,
            self.min,
            self.max,
            self.mean,
            self.p50,
            self.p95,
            self.p99,
            buckets
        )
    }
}

/// Plain-data export of a sink: safe to move across campaign threads
/// and to serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram summaries, in deterministic key order.
    pub hists: Vec<HistSnapshot>,
    /// The trace-ring contents, oldest first.
    pub events: Vec<TraceEvent>,
}

impl MetricsSnapshot {
    /// CSV header for [`MetricsSnapshot::hists_to_csv`].
    pub const HIST_CSV_HEADER: &'static str =
        "hist,label,count,sum,min,max,mean,p50,p95,p99";

    fn from_parts(registry: &MetricsRegistry, events: Vec<TraceEvent>) -> Self {
        Self {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), registry.counter(c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), registry.gauge(g)))
                .collect(),
            hists: registry
                .hists()
                .map(|(&(h, label), hist)| HistSnapshot::from_hist(h.name(), label, hist))
                .collect(),
            events,
        }
    }

    /// Looks a counter up by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The snapshot for one histogram + label.
    #[must_use]
    pub fn hist(&self, h: Hist, label: u32) -> Option<&HistSnapshot> {
        self.hists
            .iter()
            .find(|s| s.name == h.name() && s.label == label)
    }

    /// Merges every label of `h` into one summary (label `u32::MAX`),
    /// or `None` if no label recorded anything. Buckets add exactly;
    /// the percentiles keep the same power-of-two resolution as a
    /// single histogram.
    #[must_use]
    pub fn hist_merged(&self, h: Hist) -> Option<HistSnapshot> {
        let mut merged = Log2Histogram::default();
        for s in self.hists.iter().filter(|s| s.name == h.name() && s.count > 0) {
            merged.count += s.count;
            merged.sum = merged.sum.saturating_add(s.sum);
            merged.min = merged.min.min(s.min);
            merged.max = merged.max.max(s.max);
            for &(upper, n) in &s.buckets {
                merged.buckets[Log2Histogram::bucket_of(upper)] += n;
            }
        }
        (merged.count > 0).then(|| HistSnapshot::from_hist(h.name(), u32::MAX, &merged))
    }

    /// Histogram summaries as CSV (header + one row per labeled
    /// histogram).
    #[must_use]
    pub fn hists_to_csv(&self) -> String {
        let mut out = String::from(Self::HIST_CSV_HEADER);
        out.push('\n');
        for h in &self.hists {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.3},{},{},{}",
                h.name, h.label, h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p95, h.p99
            );
        }
        out
    }

    /// Full JSONL export: one line per counter, gauge, histogram and
    /// trace event.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{{\"counter\":\"{name}\",\"value\":{v}}}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{{\"gauge\":\"{name}\",\"value\":{v}}}");
        }
        for h in &self.hists {
            out.push_str(&h.to_jsonl());
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        // Each bucket's values fall at or below its upper bound and
        // above the previous bucket's.
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            assert_eq!(Log2Histogram::bucket_of(lo), k);
            assert!(lo > Log2Histogram::bucket_upper(k - 1));
            assert!(Log2Histogram::bucket_upper(k) >= (1u64 << k) - 1);
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_resolution() {
        let mut h = Log2Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1110);
        // p50: 3rd of 6 observations lives in bucket_of(3) = 2
        // (upper 3).
        assert_eq!(h.quantile(0.5), 3);
        // p99 -> last observation's bucket, clamped to max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Log2Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn trace_ring_bounds_memory_and_counts_drops() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent {
                cycle: i,
                channel: 0,
                kind: TraceEventKind::Act,
                subchannel: 0,
                bank: 0,
                value: i,
                subarray: 0,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<Cycle> = ring.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest events evicted first");
        let csv = ring.to_csv();
        assert!(csv.starts_with(TraceRing::CSV_HEADER));
        assert_eq!(csv.lines().count(), 4);
        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"kind\":\"ACT\""));
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut sink = MetricsSink::disabled();
        sink.add(Counter::DramActivates, 5);
        sink.record(Hist::ReadLatency, 0, 92);
        sink.event(TraceEvent {
            cycle: 1,
            channel: 0,
            kind: TraceEventKind::Pre,
            subchannel: 0,
            bank: 1,
            value: 7,
            subarray: 0,
        });
        assert!(!sink.is_enabled());
        assert!(sink.snapshot().is_none());
        assert!(sink.registry().is_none());
    }

    #[test]
    fn enabled_sink_snapshots_counters_hists_and_events() {
        let mut sink = MetricsSink::enabled(SinkConfig { trace_capacity: 8 });
        sink.add(Counter::DramActivates, 3);
        sink.add(Counter::DramActivates, 2);
        sink.set_gauge(Gauge::Cycles, 1234);
        for v in [10u64, 20, 400] {
            sink.record(Hist::ReadLatency, 1, v);
        }
        sink.event(TraceEvent {
            cycle: 9,
            channel: 0,
            kind: TraceEventKind::Alert,
            subchannel: 1,
            bank: 0,
            value: 0,
            subarray: 0,
        });
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("dram.activates"), Some(5));
        assert_eq!(snap.counter("mc.reads_done"), Some(0));
        let h = snap.hist(Hist::ReadLatency, 1).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.max, 400);
        assert_eq!(snap.events.len(), 1);
        let jsonl = snap.to_jsonl();
        assert!(jsonl.contains("\"counter\":\"dram.activates\",\"value\":5"));
        assert!(jsonl.contains("\"hist\":\"mc.read_latency\""));
        assert!(jsonl.contains("\"kind\":\"ALERT\""));
        let csv = snap.hists_to_csv();
        assert!(csv.starts_with(MetricsSnapshot::HIST_CSV_HEADER));
        assert!(csv.contains("mc.read_latency,1,3,"));
    }

    #[test]
    fn absorb_merges_registries_and_rings() {
        let cfg = SinkConfig { trace_capacity: 8 };
        let mut a = MetricsSink::enabled(cfg);
        let mut b = MetricsSink::enabled(cfg);
        a.add(Counter::DramReads, 1);
        b.add(Counter::DramReads, 2);
        a.record(Hist::InterActGap, 0, 8);
        b.record(Hist::InterActGap, 0, 16);
        b.event(TraceEvent {
            cycle: 3,
            channel: 0,
            kind: TraceEventKind::Rfm,
            subchannel: 0,
            bank: 0,
            value: 100,
            subarray: 0,
        });
        a.absorb(&b);
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.counter("dram.reads"), Some(3));
        let h = snap.hist(Hist::InterActGap, 0).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 16);
        assert_eq!(snap.events.len(), 1);
        // Absorbing into a disabled sink stays a no-op.
        let mut d = MetricsSink::disabled();
        d.absorb(&a);
        assert!(d.snapshot().is_none());
    }

    #[test]
    fn sink_snapshot_round_trip_is_exact() {
        let cfg = SinkConfig { trace_capacity: 4 };
        let mut sink = MetricsSink::enabled(cfg);
        sink.add(Counter::DramActivates, 7);
        sink.set_gauge(Gauge::Cycles, 99);
        sink.record(Hist::ReadLatency, 2, 300);
        for i in 0..6u64 {
            sink.event(TraceEvent {
                cycle: i,
                channel: 0,
                kind: TraceEventKind::Alert,
                subchannel: 0,
                bank: 0,
                value: i,
                subarray: 0,
            });
        }
        let mut w = crate::snapshot::SnapshotWriter::new();
        sink.save_state(&mut w);
        let bytes = w.finish();

        let mut restored = MetricsSink::enabled(cfg);
        let mut r = crate::snapshot::SnapshotReader::new(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        assert_eq!(restored, sink);
        assert_eq!(restored.ring().unwrap().dropped(), 2);

        // Mode mismatch is a loud error, not silent divergence.
        let mut disabled = MetricsSink::disabled();
        let mut r = crate::snapshot::SnapshotReader::new(&bytes).unwrap();
        assert!(disabled.load_state(&mut r).is_err());
    }

    #[test]
    fn merged_hist_folds_labels() {
        let mut reg = MetricsRegistry::default();
        reg.record(Hist::ReadLatency, 0, 10);
        reg.record(Hist::ReadLatency, 1, 1000);
        reg.record(Hist::AboServiceTime, 0, 5);
        let merged = reg.hist_merged(Hist::ReadLatency);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 1000);
    }
}
