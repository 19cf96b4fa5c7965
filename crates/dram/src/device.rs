//! The DRAM device: sub-channels of banks, shared-resource constraints
//! (command/data bus, tRRD, tFAW), refresh, and the ALERT/RFM (ABO)
//! protocol.
//!
//! The device is passive with respect to time: the memory controller
//! owns the clock and calls `can_*` / command methods with the current
//! cycle. The device enforces JEDEC legality (debug assertions plus
//! `can_*` predicates), executes the mitigation engines, and raises
//! ALERT when a bank needs ABO.

use crate::bank::{Bank, OpenRow, PrechargeKind};
use crate::flip::{FlipPlane, FlipPlaneConfig, FlipStats, ReadOutcome};
use crate::timing::{AboTiming, TimingSet};
use mopac::bank::AlertCause;
use mopac::checker::Violation;
use mopac::config::MitigationConfig;
use mopac::engine::{RecoveryScope, TimingDemands};
use mopac_types::bankmask::BankMask;
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::geometry::DramGeometry;
use mopac_types::obs::{Counter, Hist, MetricsSink, SinkConfig, TraceEvent, TraceEventKind};
use mopac_types::rng::DetRng;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::time::{Cycle, MemClock};

/// Number of refresh groups per bank (tREFW / tREFI).
const REFRESH_GROUPS: u32 = 8192;

/// Sentinel ("SUBR") opening the device snapshot's subarray/bank-scope
/// extension section, present only for configurations that use it.
const SUBARRAY_SECTION_MAGIC: u32 = 0x5355_4252;

/// Sentinel ("FLPD") opening the device snapshot's flip-plane marker,
/// present only when [`DramConfig::flip`] is set (the per-bank plane
/// sections carry the actual state and shape tags).
const FLIP_SECTION_MAGIC: u32 = 0x464C_5044;

/// Device-level configuration.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Physical organization. A device instance simulates **one
    /// channel**; multi-channel topologies construct one device per
    /// channel from [`DramGeometry::channel_view`].
    pub geometry: DramGeometry,
    /// Mitigation design and parameters.
    pub mitigation: MitigationConfig,
    /// Whether to run the Rowhammer security oracle alongside (costs
    /// memory and a little time; on by default).
    pub enable_checker: bool,
    /// Master RNG seed (per-bank streams are forked from it).
    pub seed: u64,
    /// Which channel this device instance is (stamps trace events; 0
    /// for single-channel systems).
    pub channel: u32,
    /// Victim-data bit-flip plane ([`crate::flip`]). `None` (the
    /// default everywhere) disables it: zero state, zero snapshot
    /// bytes, bit-identical to the pre-flip-plane simulator.
    pub flip: Option<FlipPlaneConfig>,
}

impl DramConfig {
    /// The paper's Table 3 system with the given mitigation.
    #[must_use]
    pub fn paper_default(mitigation: MitigationConfig) -> Self {
        Self {
            geometry: DramGeometry::ddr5_32gb(),
            mitigation,
            enable_checker: true,
            seed: 0xD0_5E_ED,
            channel: 0,
            flip: None,
        }
    }

    /// A small geometry for unit tests.
    #[must_use]
    pub fn tiny(mitigation: MitigationConfig) -> Self {
        Self {
            geometry: DramGeometry::tiny(),
            mitigation,
            enable_checker: true,
            seed: 0xD0_5E_ED,
            channel: 0,
            flip: None,
        }
    }
}

mopac_types::counter_struct! {
    /// Aggregate device statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DramStats {
        /// Activations issued.
        pub activates: u64 => DramActivates,
        /// Reads issued.
        pub reads: u64 => DramReads,
        /// Writes issued.
        pub writes: u64 => DramWrites,
        /// Normal precharges.
        pub precharges: u64 => DramPrecharges,
        /// Counter-update precharges (PRAC / PREcu).
        pub precharges_cu: u64 => DramPrechargesCu,
        /// REF commands executed.
        pub refreshes: u64 => DramRefreshes,
        /// RFM (ABO service) commands executed.
        pub rfms: u64 => DramRfms,
        /// ALERT assertions caused by mitigation need.
        pub alerts_mitigation: u64 => DramAlertsMitigation,
        /// ALERT assertions caused by a full SRQ.
        pub alerts_srq_full: u64 => DramAlertsSrqFull,
        /// ALERT assertions caused by tardiness.
        pub alerts_tardiness: u64 => DramAlertsTardiness,
        /// Aggressor-row mitigations performed.
        pub mitigations: u64 => DramMitigations,
        /// Deferred counter updates performed under ABO / REF.
        pub deferred_updates: u64 => DramDeferredUpdates,
        /// Faults applied through the injection hooks.
        pub injected_faults: u64 => DramInjectedFaults,
    }
}

impl DramStats {
    /// Total ALERT assertions.
    #[must_use]
    pub fn alerts(&self) -> u64 {
        self.alerts_mitigation + self.alerts_srq_full + self.alerts_tardiness
    }
}

/// Per-sub-channel shared state.
#[derive(Debug, Clone)]
struct SubChannel {
    banks: Vec<Bank>,
    /// Last ACT cycle in this sub-channel (tRRD), if any.
    last_act: Option<Cycle>,
    /// Ring of the last four ACT cycles (tFAW).
    faw: [Cycle; 4],
    faw_idx: usize,
    /// How many ACTs have been recorded in `faw` (constraint only
    /// applies once four have happened).
    faw_filled: usize,
    /// Data bus busy until this cycle.
    bus_busy_until: Cycle,
    /// No commands may issue before this cycle (REF / RFM execution).
    blocked_until: Cycle,
    /// Next refresh group to be refreshed.
    ref_group: u32,
    /// When ALERT was asserted, if pending.
    alert_since: Option<Cycle>,
    /// Activations since the last ALERT completed (ABO requires a
    /// non-zero count before re-asserting).
    acts_since_alert: u64,
    /// Bit `b` set iff bank `b` has an open row. Maintained on
    /// ACT/PRE so the controller's scheduler index can sweep open banks
    /// without polling every bank's row state.
    open_mask: BankMask,
}

/// The simulated DRAM device.
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    /// What the mitigation engines require of the memory controller
    /// (timing set, PREcu coin, row-open cap). Cached at construction;
    /// uniform across banks by design.
    demands: TimingDemands,
    base: TimingSet,
    prac: TimingSet,
    abo: AboTiming,
    clock: MemClock,
    subchannels: Vec<SubChannel>,
    stats: DramStats,
    /// Fault hook: the next N RFM commands pay their stall but skip ABO
    /// service (a dropped mitigation opportunity).
    drop_rfms: u32,
    /// Fault hook: extra stall cycles added to every RFM.
    rfm_extra_stall: Cycle,
    /// Bumped whenever a bank engine's [`TimingDemands`] change is
    /// observed (see [`Self::demands_generation`]).
    demands_generation: u64,
    /// Last [`mopac::engine::MitigationEngine::demands_epoch`] observed
    /// per flat bank.
    demands_seen: Vec<u64>,
    /// Observability sink: protocol trace events and device-side
    /// histograms (inter-ACT gap, row-open time, ABO service time).
    /// Disabled by default — every record call is then an inlined
    /// no-op, keeping uninstrumented runs bit-identical.
    sink: MetricsSink,
}

impl DramDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no banks or rows.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        let geom = cfg.geometry;
        assert!(geom.subchannels > 0 && geom.banks_per_subchannel > 0);
        assert!(
            geom.subarrays_per_bank.is_power_of_two()
                && geom.subarrays_per_bank <= geom.rows_per_bank,
            "subarrays_per_bank must be a power of two dividing rows_per_bank"
        );
        assert!(
            geom.channels == 1 && geom.ranks == 1,
            "a DramDevice simulates one channel; build per-channel \
             instances from DramGeometry::channel_view"
        );
        // The open-banks mask (and the controller's scheduler-index
        // masks layered on it) pack one bit per bank into a BankMask.
        assert!(
            geom.banks_per_subchannel <= BankMask::CAPACITY,
            "bank masks hold at most {} banks per sub-channel",
            BankMask::CAPACITY
        );
        let rng = DetRng::from_seed(cfg.seed);
        let demands = TimingDemands::for_config(&cfg.mitigation);
        // Subarray deferred-update slots exist only when the engine
        // demands them; every other design keeps the slot-less (and
        // snapshot-byte-identical) flat-bank shape.
        let cu_slots = if demands.subarray_parallel_updates {
            geom.subarrays_per_bank
        } else {
            0
        };
        let subchannels = (0..geom.subchannels)
            .map(|sc| {
                let banks = (0..geom.banks_per_subchannel)
                    .map(|b| {
                        let flat = geom.flat_bank(sc, b);
                        let bank_rng = rng.fork(u64::from(flat));
                        let mitigation = mopac::bank::BankMitigation::new(
                            &cfg.mitigation,
                            geom.rows_per_bank,
                            bank_rng,
                        );
                        let checker = (cfg.enable_checker && cfg.mitigation.tracks())
                            .then(|| {
                                // The min() clamp guarantees the cast fits.
                                let t_rh = cfg.mitigation.t_rh.min(u64::from(u32::MAX)) as u32;
                                mopac::checker::RowhammerChecker::new(geom.rows_per_bank, t_rh)
                            });
                        // Per-bank salts are pure hashes of (seed,
                        // flat bank) — independent of thread count and
                        // construction order.
                        let flip = cfg.flip.map(|fc| {
                            FlipPlane::new(
                                fc,
                                geom.rows_per_bank,
                                FlipPlane::bank_salt(cfg.seed, flat),
                            )
                        });
                        Bank::new(mitigation, checker, cu_slots, flip)
                    })
                    .collect();
                SubChannel {
                    banks,
                    last_act: None,
                    faw: [0; 4],
                    faw_idx: 0,
                    faw_filled: 0,
                    bus_busy_until: 0,
                    blocked_until: 0,
                    ref_group: 0,
                    alert_since: None,
                    acts_since_alert: 1,
                    open_mask: BankMask::empty(),
                }
            })
            .collect();
        let subchannels: Vec<SubChannel> = subchannels;
        let demands_seen = subchannels
            .iter()
            .flat_map(|s: &SubChannel| &s.banks)
            .map(|b| b.mitigation().demands_epoch())
            .collect();
        Self {
            demands,
            base: TimingSet::ddr5_base(),
            prac: TimingSet::ddr5_prac(),
            abo: AboTiming::paper_default(),
            clock: MemClock::ddr5_6000(),
            cfg,
            subchannels,
            stats: DramStats::default(),
            drop_rfms: 0,
            rfm_extra_stall: 0,
            demands_generation: 0,
            demands_seen,
            sink: MetricsSink::disabled(),
        }
    }

    /// Enables the observability sink: subsequent commands record trace
    /// events and device-side histograms. Enabling mid-run is legal
    /// (the sink simply starts empty).
    pub fn enable_metrics(&mut self, cfg: SinkConfig) {
        self.sink = MetricsSink::enabled(cfg);
    }

    /// The device's metrics sink (disabled unless
    /// [`DramDevice::enable_metrics`] was called).
    #[must_use]
    pub fn metrics(&self) -> &MetricsSink {
        &self.sink
    }

    /// Gives every bank engine its
    /// [`mopac::engine::MitigationEngine::record_metrics`] hook,
    /// recording into `sink` (the caller's merged export). The device's
    /// counters are not exported here: they live in
    /// [`DramDevice::stats`], [`DramDevice::mitigation_stats`] and
    /// [`DramDevice::flip_stats`].
    pub fn record_metrics(&self, sink: &mut MetricsSink) {
        for (sc, sub) in self.subchannels.iter().enumerate() {
            for (bank, b) in sub.banks.iter().enumerate() {
                let flat = self.cfg.geometry.flat_bank(sc as u32, bank as u32);
                b.mitigation().record_metrics(flat, sink);
            }
        }
    }

    /// Validates a (sub-channel, bank) pair, so command methods return a
    /// typed error instead of an out-of-bounds panic.
    fn check_bank(&self, sc: u32, bank: u32) -> MopacResult<()> {
        let geom = &self.cfg.geometry;
        if sc >= geom.subchannels || bank >= geom.banks_per_subchannel {
            return Err(MopacError::config(format!(
                "bank reference sc{sc}/bank{bank} outside geometry \
                 ({} sub-channels x {} banks)",
                geom.subchannels, geom.banks_per_subchannel
            )));
        }
        Ok(())
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The base timing set.
    #[must_use]
    pub fn timing_base(&self) -> &TimingSet {
        &self.base
    }

    /// The PRAC timing set.
    #[must_use]
    pub fn timing_prac(&self) -> &TimingSet {
        &self.prac
    }

    /// The timing set governing ACT/column commands for this mitigation
    /// (engines demanding PRAC timings pay them everywhere; everything
    /// else uses base timings, with MoPAC-C switching per command).
    #[must_use]
    pub fn timing_default(&self) -> &TimingSet {
        if self.demands.always_prac_timings {
            &self.prac
        } else {
            &self.base
        }
    }

    /// What the banks' mitigation engines demand of the memory
    /// controller (timing regime, PREcu sampling probability, row-open
    /// time cap). The controller configures itself from this rather
    /// than inspecting the mitigation kind.
    #[must_use]
    pub fn timing_demands(&self) -> TimingDemands {
        self.demands
    }

    /// ABO timing constants.
    #[must_use]
    pub fn abo_timing(&self) -> &AboTiming {
        &self.abo
    }

    /// The command clock (for nanosecond/cycle conversions).
    #[must_use]
    pub fn clock(&self) -> MemClock {
        self.clock
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The open row in a bank.
    #[must_use]
    pub fn open_row(&self, sc: u32, bank: u32) -> Option<OpenRow> {
        self.sub(sc).banks[bank as usize].open_row()
    }

    /// Whether the MC marked the open row for a PREcu close (MoPAC-C).
    #[must_use]
    pub fn pending_update(&self, sc: u32, bank: u32) -> bool {
        self.sub(sc).banks[bank as usize].pending_update()
    }

    /// When ALERT was asserted on a sub-channel, if it is pending.
    #[must_use]
    pub fn alert_since(&self, sc: u32) -> Option<Cycle> {
        self.sub(sc).alert_since
    }

    /// Bitmask of banks with an open row on `sc` (bit `b` set iff bank
    /// `b` is open). Maintained incrementally on ACT/PRE.
    #[must_use]
    pub fn open_banks_mask(&self, sc: u32) -> BankMask {
        self.sub(sc).open_mask
    }

    /// Generation counter of the cached [`TimingDemands`]: bumped every
    /// time a bank engine reports a new
    /// [`mopac::engine::MitigationEngine::demands_epoch`] after a
    /// lifecycle call, at which point the cached demands are re-queried
    /// from that engine. The memory controller compares this against its
    /// own snapshot to refresh demand-derived knobs (PREcu coin,
    /// row-open cap) and invalidate its scheduler index.
    #[must_use]
    pub fn demands_generation(&self) -> u64 {
        self.demands_generation
    }

    /// Re-polls one bank's engine for a [`TimingDemands`] change after a
    /// lifecycle event routed to it.
    fn poll_demands(&mut self, sc: u32, bank: u32) {
        let flat = self.cfg.geometry.flat_bank(sc, bank) as usize;
        let epoch = self.sub(sc).banks[bank as usize].mitigation().demands_epoch();
        if self.demands_seen[flat] != epoch {
            self.demands_seen[flat] = epoch;
            self.demands = self.sub(sc).banks[bank as usize].mitigation().timing_demands();
            self.demands_generation += 1;
        }
    }

    /// Re-polls every bank of `sc` (REF / RFM fan lifecycle calls out to
    /// all engines).
    fn poll_demands_all(&mut self, sc: u32) {
        for bank in 0..self.cfg.geometry.banks_per_subchannel {
            self.poll_demands(sc, bank);
        }
    }

    /// Earliest cycle an ACT to (sc, bank) may issue, or `None` if the
    /// bank is open.
    #[must_use]
    pub fn earliest_activate(&self, sc: u32, bank: u32) -> Option<Cycle> {
        let s = self.sub(sc);
        let t = self.timing_default();
        let bank_ok = s.banks[bank as usize].earliest_activate()?;
        let rrd_ok = s.last_act.map_or(0, |a| a + t.t_rrd);
        let faw_ok = if s.faw_filled >= 4 {
            s.faw[s.faw_idx] + t.t_faw
        } else {
            0
        };
        Some(bank_ok.max(rrd_ok).max(faw_ok).max(s.blocked_until))
    }

    /// Earliest cycle an ACT to `row` specifically may issue: the
    /// bank-level gate ([`Self::earliest_activate`]) plus the row's
    /// subarray deferred-update gate. Identical to the bank-level gate
    /// for designs without subarray-deferred updates.
    #[must_use]
    pub fn earliest_activate_row(&self, sc: u32, bank: u32, row: u32) -> Option<Cycle> {
        let bank_ok = self.earliest_activate(sc, bank)?;
        let sa = self.cfg.geometry.subarray_of(row);
        Some(bank_ok.max(self.sub(sc).banks[bank as usize].cu_gate(sa)))
    }

    /// Issues an ACT. `update_selected` is MoPAC-C's coin flip; ignored
    /// (forced) for other designs.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if the bank is open or the
    /// ACT is issued before its timing gate (including the target row's
    /// subarray deferred-update gate), [`MopacError::Config`] for an
    /// out-of-range bank reference.
    pub fn activate(
        &mut self,
        sc: u32,
        bank: u32,
        row: u32,
        now: Cycle,
        update_selected: bool,
    ) -> MopacResult<()> {
        self.check_bank(sc, bank)?;
        let earliest = self.earliest_activate_row(sc, bank, row);
        if earliest.is_none_or(|e| now < e) {
            return Err(MopacError::TimingProtocol {
                command: "ACT",
                subchannel: sc,
                bank: Some(bank),
                at: now,
                earliest,
            });
        }
        // Engines on full PRAC timings update on every close; a PREcu
        // coin engine (MoPAC-C) honors the controller's per-ACT draw.
        let selected = self.demands.always_prac_timings
            || (self.demands.precu_probability.is_some() && update_selected);
        // This ACT overlapping an in-flight counter update (necessarily
        // in another subarray, or the gate above would have held it) is
        // exactly the parallelism subarray-level updates unlock — PRAC
        // would have serialized it behind the full tRP.
        if self.demands.subarray_parallel_updates
            && self.sub(sc).banks[bank as usize].cu_pending(now).next().is_some()
        {
            self.sink.add(Counter::DramSubarrayParallelUpdates, 1);
        }
        if self.sink.is_enabled() {
            if let Some(last) = self.sub(sc).last_act {
                self.sink
                    .record(Hist::InterActGap, sc, now.saturating_sub(last));
            }
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Act,
                subchannel: sc,
                bank,
                value: u64::from(row),
                subarray: self.cfg.geometry.subarray_of(row),
            });
        }
        let (base, prac) = (self.base, self.prac);
        let s = self.sub_mut(sc);
        let flips = s.banks[bank as usize].activate(row, now, selected, &base, &prac);
        s.open_mask.set(bank);
        s.last_act = Some(now);
        s.faw[s.faw_idx] = now;
        s.faw_idx = (s.faw_idx + 1) % 4;
        s.faw_filled = (s.faw_filled + 1).min(4);
        s.acts_since_alert += 1;
        self.stats.activates += 1;
        if flips > 0 && self.sink.is_enabled() {
            // `value` is the number of fresh victim bits this ACT set;
            // the flipped rows themselves are row ± 1 of the aggressor.
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::BitFlip,
                subchannel: sc,
                bank,
                value: u64::from(flips),
                subarray: self.cfg.geometry.subarray_of(row),
            });
        }
        self.poll_demands(sc, bank);
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// Earliest cycle a read/write to `row` may issue (bank + bus).
    #[must_use]
    pub fn earliest_column(&self, sc: u32, bank: u32, row: u32) -> Option<Cycle> {
        let s = self.sub(sc);
        let t = self.timing_default();
        let bank_ok = s.banks[bank as usize].earliest_column(row)?;
        // The data burst must not overlap the previous one.
        let bus_ok = s.bus_busy_until.saturating_sub(t.cl);
        Some(bank_ok.max(bus_ok).max(s.blocked_until))
    }

    /// Checks a column command's timing gate against the open row.
    fn check_column(
        &self,
        command: &'static str,
        sc: u32,
        bank: u32,
        now: Cycle,
    ) -> MopacResult<()> {
        self.check_bank(sc, bank)?;
        let earliest = self
            .open_row(sc, bank)
            .and_then(|o| self.earliest_column(sc, bank, o.row));
        if earliest.is_none_or(|e| now < e) {
            return Err(MopacError::TimingProtocol {
                command,
                subchannel: sc,
                bank: Some(bank),
                at: now,
                earliest,
            });
        }
        Ok(())
    }

    /// Issues a read; returns the data-completion cycle.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if no row is open or the
    /// column gate is violated.
    pub fn read(&mut self, sc: u32, bank: u32, now: Cycle) -> MopacResult<Cycle> {
        self.check_column("RD", sc, bank, now)?;
        let t = *self.timing_default();
        // check_column guarantees an open row; its data is what the
        // read returns, so route it through the flip plane's ECC path.
        let open = self.open_row(sc, bank).map(|o| o.row);
        let s = self.sub_mut(sc);
        let done = s.banks[bank as usize].read(now, &t);
        s.bus_busy_until = done;
        if let (Some(row), Some(f)) = (open, s.banks[bank as usize].flip_mut()) {
            let _outcome: ReadOutcome = f.on_read(row);
        }
        self.stats.reads += 1;
        Ok(done)
    }

    /// Issues a write; returns the data-completion cycle.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if no row is open or the
    /// column gate is violated.
    pub fn write(&mut self, sc: u32, bank: u32, now: Cycle) -> MopacResult<Cycle> {
        self.check_column("WR", sc, bank, now)?;
        let t = *self.timing_default();
        let s = self.sub_mut(sc);
        let done = s.banks[bank as usize].write(now, &t);
        s.bus_busy_until = done;
        self.stats.writes += 1;
        Ok(done)
    }

    /// Earliest cycle a PRE may issue.
    #[must_use]
    pub fn earliest_precharge(&self, sc: u32, bank: u32) -> Option<Cycle> {
        let s = self.sub(sc);
        Some(
            s.banks[bank as usize]
                .earliest_precharge()?
                .max(s.blocked_until),
        )
    }

    /// Issues a precharge. The kind is derived from the mitigation design
    /// and the bank's pending-update bit (PRAC always updates; MoPAC-C
    /// updates when the MC armed the bit at ACT).
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if the bank is closed or
    /// the PRE is issued before its timing gate.
    pub fn precharge(&mut self, sc: u32, bank: u32, now: Cycle) -> MopacResult<()> {
        self.check_bank(sc, bank)?;
        let earliest = self.earliest_precharge(sc, bank);
        if earliest.is_none_or(|e| now < e) {
            return Err(MopacError::TimingProtocol {
                command: "PRE",
                subchannel: sc,
                bank: Some(bank),
                at: now,
                earliest,
            });
        }
        let kind = if self.demands.always_prac_timings || self.pending_update(sc, bank) {
            PrechargeKind::CounterUpdate
        } else if self.demands.subarray_parallel_updates {
            PrechargeKind::DeferredUpdate
        } else {
            PrechargeKind::Normal
        };
        let closed_row = self.open_row(sc, bank).map(|o| o.row);
        if self.sink.is_enabled() {
            if let Some(open) = self.open_row(sc, bank) {
                self.sink
                    .record(Hist::RowOpenTime, sc, now.saturating_sub(open.opened_at));
                self.sink.event(TraceEvent {
                    cycle: now,
                    channel: self.cfg.channel,
                    kind: match kind {
                        PrechargeKind::Normal => TraceEventKind::Pre,
                        PrechargeKind::CounterUpdate | PrechargeKind::DeferredUpdate => {
                            TraceEventKind::PreCu
                        }
                    },
                    subchannel: sc,
                    bank,
                    value: u64::from(open.row),
                    subarray: self.cfg.geometry.subarray_of(open.row),
                });
            }
        }
        let (base, prac) = (self.base, self.prac);
        let ns_per_cycle = 1.0 / self.clock.freq_ghz();
        let s = self.sub_mut(sc);
        if s.banks[bank as usize]
            .precharge(kind, now, &base, &prac, ns_per_cycle)
            .is_none()
        {
            // The earliest_precharge gate above already rejects a closed
            // bank, so this arm is unreachable; keep it typed anyway.
            return Err(MopacError::internal(format!(
                "PRE accepted on closed bank sc{sc}/bank{bank}"
            )));
        }
        s.open_mask.clear(bank);
        match kind {
            PrechargeKind::Normal => self.stats.precharges += 1,
            PrechargeKind::CounterUpdate | PrechargeKind::DeferredUpdate => {
                self.stats.precharges_cu += 1;
            }
        }
        if kind == PrechargeKind::DeferredUpdate {
            if let Some(row) = closed_row {
                // The read-modify-write continues inside the closed
                // row's subarray for the PRAC-vs-base tRP difference;
                // the bank itself is already free.
                let sa = self.cfg.geometry.subarray_of(row);
                // The full update takes PRAC's tRP; only the subarray
                // pays the tail beyond the bank's base tRP.
                let cu_done = now + self.prac.t_rp.max(self.base.t_rp);
                self.sub_mut(sc).banks[bank as usize].post_cu(sa, cu_done, now);
                self.sub_mut(sc).banks[bank as usize]
                    .mitigation_mut()
                    .on_subarray_update(sa);
            }
        }
        self.poll_demands(sc, bank);
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// Earliest cycle a REF may issue (all banks must be precharged; the
    /// caller closes open rows first).
    #[must_use]
    pub fn earliest_refresh(&self, sc: u32) -> Option<Cycle> {
        let s = self.sub(sc);
        let mut latest = s.blocked_until;
        for b in &s.banks {
            // REF quiesces the whole bank: closed rows AND any
            // in-flight subarray counter updates.
            latest = latest.max(b.earliest_activate()?).max(b.cu_busy_until());
        }
        Some(latest)
    }

    /// Issues an all-bank REF: refreshes the next group of rows in every
    /// bank, performs MoPAC-D drain-on-REF, and blocks the sub-channel
    /// for tRFC.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if any bank still has an
    /// open row or a bank's tRP has not elapsed.
    pub fn refresh(&mut self, sc: u32, now: Cycle) -> MopacResult<()> {
        self.check_bank(sc, 0)?;
        let earliest = self.earliest_refresh(sc);
        if earliest.is_none_or(|e| now < e) {
            return Err(MopacError::TimingProtocol {
                command: "REF",
                subchannel: sc,
                bank: None,
                at: now,
                earliest,
            });
        }
        let t_rfc = self.timing_default().t_rfc;
        let rows_per_group = self.cfg.geometry.rows_per_bank.div_ceil(REFRESH_GROUPS).max(1);
        let rows_per_bank = self.cfg.geometry.rows_per_bank;
        let blast = self.cfg.mitigation.blast_radius;
        let s = self.sub_mut(sc);
        let start = (s.ref_group * rows_per_group).min(rows_per_bank);
        let end = (start + rows_per_group).min(rows_per_bank);
        s.ref_group = (s.ref_group + 1) % REFRESH_GROUPS;
        s.blocked_until = now + t_rfc;
        let mut deferred = 0u64;
        let mut mitigations = 0u64;
        for b in &mut s.banks {
            b.block_until(now + t_rfc);
            let svc = b.mitigation_mut().on_ref(start..end);
            deferred += u64::from(svc.counter_updates);
            mitigations += svc.mitigated_rows.len() as u64;
            if let Some(ck) = b.checker_mut() {
                // Proactive (REF-piggybacked) mitigations, e.g. QPRAC
                // draining its priority queue, cure victims just like
                // ABO-forced ones.
                for &row in &svc.mitigated_rows {
                    ck.on_mitigate(row, blast);
                }
                ck.on_refresh_range(start..end);
            }
            if let Some(f) = b.flip_mut() {
                for &row in &svc.mitigated_rows {
                    f.on_mitigate(row, blast);
                }
                f.on_refresh_range(start..end);
            }
        }
        self.stats.refreshes += 1;
        self.stats.deferred_updates += deferred;
        self.stats.mitigations += mitigations;
        if self.sink.is_enabled() {
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Ref,
                subchannel: sc,
                bank: 0,
                value: u64::from(start),
                subarray: 0,
            });
            if mitigations > 0 {
                self.sink.event(TraceEvent {
                    cycle: now,
                    channel: self.cfg.channel,
                    kind: TraceEventKind::Mitigation,
                    subchannel: sc,
                    bank: 0,
                    value: mitigations,
                    subarray: 0,
                });
            }
        }
        self.poll_demands_all(sc);
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// Issues an RFM, servicing the pending ABO on every bank of the
    /// sub-channel; blocks the sub-channel for the ABO stall time.
    ///
    /// Under an active `inject_rfm_drop` fault the command pays its full
    /// stall but performs no ABO service and leaves ALERT asserted; under
    /// `inject_rfm_delay` the stall is lengthened.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if any bank has an open
    /// row.
    pub fn rfm(&mut self, sc: u32, now: Cycle) -> MopacResult<()> {
        self.check_bank(sc, 0)?;
        let earliest = self.earliest_refresh(sc);
        if earliest.is_none_or(|e| now < e) {
            return Err(MopacError::TimingProtocol {
                command: "RFM",
                subchannel: sc,
                bank: None,
                at: now,
                earliest,
            });
        }
        let stall = self.abo.stall + self.rfm_extra_stall;
        // Sub-channel-scope recovery stalls every bank, alerting or not.
        let blocked_bank_cycles = stall * self.sub(sc).banks.len() as u64;
        // ALERT-to-service latency: how long the pending ABO waited for
        // this RFM (0 when no ALERT was asserted, e.g. a speculative or
        // dropped-fault retry).
        let service_time = self
            .sub(sc)
            .alert_since
            .map_or(0, |a| now.saturating_sub(a));
        if self.sink.is_enabled() {
            self.sink.record(Hist::AboServiceTime, sc, service_time);
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Rfm,
                subchannel: sc,
                bank: 0,
                value: service_time,
                subarray: 0,
            });
        }
        if self.drop_rfms > 0 {
            // Dropped-RFM fault: the command occupies the bus and stalls
            // the sub-channel but never reaches the mitigation engines.
            self.drop_rfms -= 1;
            self.stats.injected_faults += 1;
            self.stats.rfms += 1;
            let s = self.sub_mut(sc);
            for b in &mut s.banks {
                b.block_until(now + stall);
            }
            s.blocked_until = now + stall;
            // ALERT stays asserted: the device never serviced the ABO.
            // Allow a later RFM to retry without requiring a new ACT.
            s.alert_since = None;
            s.acts_since_alert = 1;
            self.sink.add(Counter::DramBlockedBankCycles, blocked_bank_cycles);
            self.refresh_alert_line(sc, now);
            return Ok(());
        }
        let blast = self.cfg.mitigation.blast_radius;
        let s = self.sub_mut(sc);
        let mut mitigations = 0u64;
        let mut updates = 0u64;
        for b in &mut s.banks {
            b.block_until(now + stall);
            let svc = b.mitigation_mut().service_abo();
            updates += u64::from(svc.counter_updates);
            mitigations += svc.mitigated_rows.len() as u64;
            if let Some(ck) = b.checker_mut() {
                for &row in &svc.mitigated_rows {
                    ck.on_mitigate(row, blast);
                }
            }
            if let Some(f) = b.flip_mut() {
                for &row in &svc.mitigated_rows {
                    f.on_mitigate(row, blast);
                }
            }
        }
        s.blocked_until = now + stall;
        s.alert_since = None;
        s.acts_since_alert = 0;
        self.sink.add(Counter::DramBlockedBankCycles, blocked_bank_cycles);
        self.stats.rfms += 1;
        self.stats.mitigations += mitigations;
        self.stats.deferred_updates += updates;
        if mitigations > 0 {
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Mitigation,
                subchannel: sc,
                bank: 0,
                value: mitigations,
                subarray: 0,
            });
        }
        self.poll_demands_all(sc);
        // A bank may *still* need service (e.g. more SRQ entries than one
        // ABO drains); it may re-assert after the next activation.
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// Banks of `sc` whose mitigation engine currently demands ABO
    /// service — the targets of a bank-scoped RFM under
    /// [`RecoveryScope::Bank`].
    #[must_use]
    pub fn alerting_banks(&self, sc: u32) -> BankMask {
        let mut m = BankMask::empty();
        for (i, b) in self.sub(sc).banks.iter().enumerate() {
            if b.mitigation().alert_cause().is_some() {
                m.set(i as u32);
            }
        }
        m
    }

    /// Earliest cycle a bank-scoped RFM over `mask` may issue: every
    /// masked bank must be precharged (returns `None` while one still
    /// has an open row) and past its ACT gate, block deadline, and any
    /// in-flight subarray counter update. Unmasked banks are *not*
    /// consulted — they keep issuing while the masked ones recover.
    #[must_use]
    pub fn earliest_rfm_banks(&self, sc: u32, mask: BankMask) -> Option<Cycle> {
        let s = self.sub(sc);
        let mut latest: Cycle = 0;
        for bit in mask.ones() {
            let b = s.banks.get(bit as usize)?;
            latest = latest.max(b.earliest_activate()?).max(b.cu_busy_until());
        }
        Some(latest)
    }

    /// Issues a bank-scoped RFM, servicing the pending ABO on exactly
    /// the banks in `mask` and blocking only them for the ABO stall
    /// time; the sub-channel's other banks (and its shared
    /// `blocked_until`) are untouched. This is PRACtical's
    /// bank-isolated recovery ([`RecoveryScope::Bank`]).
    ///
    /// Injected RFM faults apply as for [`Self::rfm`]: a dropped RFM
    /// pays the full stall on the masked banks without service; an RFM
    /// delay lengthens the stall.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::TimingProtocol`] if any masked bank has an
    /// open row or an unexpired gate, and [`MopacError::Config`] for an
    /// out-of-range sub-channel or an empty mask.
    pub fn rfm_banks(&mut self, sc: u32, mask: BankMask, now: Cycle) -> MopacResult<()> {
        self.check_bank(sc, 0)?;
        if mask.is_empty() {
            return Err(MopacError::config("rfm_banks: empty bank mask"));
        }
        if mask.ones().any(|bit| bit as usize >= self.sub(sc).banks.len()) {
            return Err(MopacError::config(format!(
                "rfm_banks: mask exceeds {} banks",
                self.sub(sc).banks.len()
            )));
        }
        let earliest = self.earliest_rfm_banks(sc, mask);
        if earliest.is_none_or(|e| now < e) {
            return Err(MopacError::TimingProtocol {
                command: "RFMpb",
                subchannel: sc,
                bank: mask.first_set(),
                at: now,
                earliest,
            });
        }
        let stall = self.abo.stall + self.rfm_extra_stall;
        let blocked_bank_cycles = stall * u64::from(mask.count());
        let service_time = self
            .sub(sc)
            .alert_since
            .map_or(0, |a| now.saturating_sub(a));
        if self.sink.is_enabled() {
            self.sink.record(Hist::AboServiceTime, sc, service_time);
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Rfm,
                subchannel: sc,
                bank: mask.first_set().unwrap_or(0),
                value: service_time,
                subarray: 0,
            });
        }
        if self.drop_rfms > 0 {
            // Dropped-RFM fault: the masked banks pay the stall but the
            // ABO is never serviced (fault parity with `rfm`).
            self.drop_rfms -= 1;
            self.stats.injected_faults += 1;
            self.stats.rfms += 1;
            let s = self.sub_mut(sc);
            for bit in mask.ones() {
                s.banks[bit as usize].block_until(now + stall);
            }
            s.alert_since = None;
            s.acts_since_alert = 1;
            self.sink.add(Counter::DramBlockedBankCycles, blocked_bank_cycles);
            self.refresh_alert_line(sc, now);
            return Ok(());
        }
        let blast = self.cfg.mitigation.blast_radius;
        let s = self.sub_mut(sc);
        let mut mitigations = 0u64;
        let mut updates = 0u64;
        for bit in mask.ones() {
            let b = &mut s.banks[bit as usize];
            b.block_until(now + stall);
            let svc = b.mitigation_mut().service_abo();
            updates += u64::from(svc.counter_updates);
            mitigations += svc.mitigated_rows.len() as u64;
            if let Some(ck) = b.checker_mut() {
                for &row in &svc.mitigated_rows {
                    ck.on_mitigate(row, blast);
                }
            }
            if let Some(f) = b.flip_mut() {
                for &row in &svc.mitigated_rows {
                    f.on_mitigate(row, blast);
                }
            }
        }
        s.alert_since = None;
        s.acts_since_alert = 0;
        self.sink.add(Counter::DramBlockedBankCycles, blocked_bank_cycles);
        self.stats.rfms += 1;
        self.stats.mitigations += mitigations;
        self.stats.deferred_updates += updates;
        if mitigations > 0 {
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Mitigation,
                subchannel: sc,
                bank: mask.first_set().unwrap_or(0),
                value: mitigations,
                subarray: 0,
            });
        }
        self.poll_demands_all(sc);
        // An unmasked bank (or a masked one with more pending service)
        // may still demand ABO; let ALERT re-assert.
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// Fault hook: asserts ALERT on a sub-channel as if a bank demanded
    /// service (an adversarial or glitching device).
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Config`] for an out-of-range sub-channel.
    pub fn inject_alert(&mut self, sc: u32, now: Cycle) -> MopacResult<()> {
        self.check_bank(sc, 0)?;
        let s = self.sub_mut(sc);
        if s.alert_since.is_none() {
            s.alert_since = Some(now);
            self.stats.alerts_mitigation += 1;
            self.stats.injected_faults += 1;
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Alert,
                subchannel: sc,
                bank: 0,
                value: 0,
                subarray: 0,
            });
        }
        Ok(())
    }

    /// Fault hook: the next `n` RFM commands are dropped (stall without
    /// service).
    pub fn inject_rfm_drop(&mut self, n: u32) {
        self.drop_rfms = self.drop_rfms.saturating_add(n);
    }

    /// Fault hook: every subsequent RFM stalls `extra` cycles longer.
    pub fn inject_rfm_delay(&mut self, extra: Cycle) {
        self.rfm_extra_stall = extra;
        if extra > 0 {
            self.stats.injected_faults += 1;
        }
    }

    /// Fault hook: wedges a bank until `until` (stuck-open row if the
    /// bank is open, stuck-closed otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Config`] for an out-of-range bank.
    pub fn inject_stuck_bank(&mut self, sc: u32, bank: u32, until: Cycle) -> MopacResult<()> {
        self.check_bank(sc, bank)?;
        self.sub_mut(sc).banks[bank as usize].stick_until(until);
        self.stats.injected_faults += 1;
        Ok(())
    }

    /// Fault hook: flips `bit` of the PRAC counter for `row` in one chip
    /// of the bank's mitigation engine (a counter-table soft error). The
    /// security oracle is deliberately *not* told, so any resulting
    /// undercount surfaces as an oracle violation.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Config`] for an out-of-range bank or row.
    pub fn inject_counter_flip(
        &mut self,
        sc: u32,
        bank: u32,
        row: u32,
        bit: u32,
    ) -> MopacResult<()> {
        self.check_bank(sc, bank)?;
        if row >= self.cfg.geometry.rows_per_bank {
            return Err(MopacError::config(format!(
                "row {row} outside bank ({} rows)",
                self.cfg.geometry.rows_per_bank
            )));
        }
        self.sub_mut(sc).banks[bank as usize]
            .mitigation_mut()
            .corrupt_counter(row, bit);
        self.stats.injected_faults += 1;
        Ok(())
    }

    /// Total Rowhammer violations recorded by the oracle across all
    /// banks.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.subchannels
            .iter()
            .flat_map(|s| &s.banks)
            .filter_map(|b| b.checker().map(|c| c.violations()))
            .sum()
    }

    /// First recorded violations for diagnostics.
    #[must_use]
    pub fn violation_records(&self) -> Vec<Violation> {
        self.subchannels
            .iter()
            .flat_map(|s| &s.banks)
            .filter_map(|b| b.checker())
            .flat_map(|c| c.violation_records().iter().copied())
            .collect()
    }

    /// Sums a per-bank mitigation statistic over all banks.
    #[must_use]
    pub fn mitigation_stats(&self) -> mopac::bank::MitigationStats {
        let mut total = mopac::bank::MitigationStats::default();
        for b in self.subchannels.iter().flat_map(|s| &s.banks) {
            total.accumulate(&b.mitigation().stats());
        }
        total
    }

    /// Sums the victim-data flip-plane statistics over all banks
    /// (all-zero when [`DramConfig::flip`] is `None`).
    #[must_use]
    pub fn flip_stats(&self) -> FlipStats {
        let mut total = FlipStats::default();
        for b in self.subchannels.iter().flat_map(|s| &s.banks) {
            if let Some(f) = b.flip() {
                total.accumulate(&f.stats());
            }
        }
        total
    }

    /// Reads back every row holding flipped victim bits in every bank,
    /// through the ECC path — the post-attack verification pass an
    /// attacker (or a memory test) would perform. Hammer kernels only
    /// read their aggressor rows, so without this sweep victim
    /// corruption exists but is never *observed*. No-op without a flip
    /// plane.
    pub fn flip_readback_sweep(&mut self) {
        for b in self.subchannels.iter_mut().flat_map(|s| &mut s.banks) {
            if let Some(f) = b.flip_mut() {
                f.readback_sweep();
            }
        }
    }

    /// The flip plane of one bank (testing / diagnostics).
    #[must_use]
    pub fn flip_plane(&self, sc: u32, bank: u32) -> Option<&FlipPlane> {
        self.sub(sc).banks[bank as usize].flip()
    }

    /// Whether this configuration serializes the subarray/bank-scope
    /// snapshot extension. Derived from the *config* (not the live
    /// `demands`) so the writer and reader agree even if an adaptive
    /// engine has shifted its demands since construction.
    fn extended_snapshot(cfg: &DramConfig) -> bool {
        let d = TimingDemands::for_config(&cfg.mitigation);
        cfg.geometry.subarrays_per_bank > 1
            || d.recovery_scope == RecoveryScope::Bank
            || d.subarray_parallel_updates
    }

    fn sub(&self, sc: u32) -> &SubChannel {
        &self.subchannels[sc as usize]
    }

    fn sub_mut(&mut self, sc: u32) -> &mut SubChannel {
        &mut self.subchannels[sc as usize]
    }

    /// Serializes one sub-channel's shared state (banks delegate to
    /// their own [`Snapshottable`] impls).
    fn save_sub(s: &SubChannel, w: &mut SnapshotWriter) {
        w.put_usize(s.banks.len());
        for b in &s.banks {
            b.save_state(w);
        }
        w.put_opt_u64(s.last_act);
        for &c in &s.faw {
            w.put_u64(c);
        }
        w.put_usize(s.faw_idx);
        w.put_usize(s.faw_filled);
        w.put_u64(s.bus_busy_until);
        w.put_u64(s.blocked_until);
        w.put_u32(s.ref_group);
        w.put_opt_u64(s.alert_since);
        w.put_u64(s.acts_since_alert);
        s.open_mask.save_state(w);
    }

    fn load_sub(s: &mut SubChannel, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let n = r.take_usize()?;
        if n != s.banks.len() {
            return Err(MopacError::snapshot(format!(
                "bank count mismatch: snapshot {n}, configured {}",
                s.banks.len()
            )));
        }
        for b in &mut s.banks {
            b.load_state(r)?;
        }
        s.last_act = r.take_opt_u64()?;
        for c in &mut s.faw {
            *c = r.take_u64()?;
        }
        s.faw_idx = r.take_usize()?;
        if s.faw_idx >= 4 {
            return Err(MopacError::snapshot(format!("faw index {} out of range", s.faw_idx)));
        }
        s.faw_filled = r.take_usize()?;
        s.bus_busy_until = r.take_u64()?;
        s.blocked_until = r.take_u64()?;
        s.ref_group = r.take_u32()?;
        s.alert_since = r.take_opt_u64()?;
        s.acts_since_alert = r.take_u64()?;
        s.open_mask.load_state(r)?;
        Ok(())
    }

    /// Re-evaluates the ALERT pin for a sub-channel. ALERT asserts when
    /// any bank wants service, provided at least one activation happened
    /// since the previous ALERT completed (ABO's anti-livelock rule).
    fn refresh_alert_line(&mut self, sc: u32, now: Cycle) {
        let cause = {
            let s = self.sub(sc);
            if s.alert_since.is_some() || s.acts_since_alert == 0 {
                None
            } else {
                s.banks.iter().find_map(|b| b.mitigation().alert_cause())
            }
        };
        if let Some(cause) = cause {
            self.sub_mut(sc).alert_since = Some(now);
            match cause {
                AlertCause::Mitigation => self.stats.alerts_mitigation += 1,
                AlertCause::SrqFull => self.stats.alerts_srq_full += 1,
                AlertCause::Tardiness => self.stats.alerts_tardiness += 1,
            }
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Alert,
                subchannel: sc,
                bank: 0,
                value: match cause {
                    AlertCause::Mitigation => 0,
                    AlertCause::SrqFull => 1,
                    AlertCause::Tardiness => 2,
                },
                subarray: 0,
            });
        }
    }
}

impl Snapshottable for DramDevice {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.subchannels.len());
        for s in &self.subchannels {
            Self::save_sub(s, w);
        }
        self.stats.save_state(w);
        w.put_u32(self.drop_rfms);
        w.put_u64(self.rfm_extra_stall);
        w.put_u64(self.demands_generation);
        w.put_usize(self.demands_seen.len());
        for &e in &self.demands_seen {
            w.put_u64(e);
        }
        // The cached demands themselves: for all shipped engines these
        // equal the config-derived defaults, but an adaptive engine may
        // have switched them before the snapshot.
        w.put_bool(self.demands.always_prac_timings);
        w.put_opt_f64(self.demands.precu_probability);
        w.put_opt_f64(self.demands.row_open_cap_ns);
        // Subarray/bank-scope extension: only shapes that use it pay
        // for it, so legacy configurations keep byte-identical streams.
        if Self::extended_snapshot(&self.cfg) {
            w.put_u32(SUBARRAY_SECTION_MAGIC);
            w.put_u32(self.cfg.geometry.subarrays_per_bank);
            w.put_u32(match self.demands.recovery_scope {
                RecoveryScope::SubChannel => 0,
                RecoveryScope::Bank => 1,
            });
            w.put_bool(self.demands.subarray_parallel_updates);
        }
        // Flip-plane marker: present only when the plane is configured
        // (the per-bank sections above carry the actual state and the
        // distribution/ECC shape tags). Disabled configurations write
        // nothing, keeping legacy streams byte-identical.
        if self.cfg.flip.is_some() {
            w.put_u32(FLIP_SECTION_MAGIC);
        }
        self.sink.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let n = r.take_usize()?;
        if n != self.subchannels.len() {
            return Err(MopacError::snapshot(format!(
                "sub-channel count mismatch: snapshot {n}, configured {}",
                self.subchannels.len()
            )));
        }
        for s in &mut self.subchannels {
            Self::load_sub(s, r)?;
        }
        self.stats.load_state(r)?;
        self.drop_rfms = r.take_u32()?;
        self.rfm_extra_stall = r.take_u64()?;
        self.demands_generation = r.take_u64()?;
        let n = r.take_usize()?;
        if n != self.demands_seen.len() {
            return Err(MopacError::snapshot(format!(
                "demands-epoch table mismatch: snapshot {n}, configured {}",
                self.demands_seen.len()
            )));
        }
        for e in &mut self.demands_seen {
            *e = r.take_u64()?;
        }
        self.demands = TimingDemands {
            always_prac_timings: r.take_bool()?,
            precu_probability: r.take_opt_f64()?,
            row_open_cap_ns: r.take_opt_f64()?,
            ..TimingDemands::for_config(&self.cfg.mitigation)
        };
        if Self::extended_snapshot(&self.cfg) {
            let magic = r.take_u32()?;
            if magic != SUBARRAY_SECTION_MAGIC {
                return Err(MopacError::snapshot(
                    "missing subarray section: snapshot was taken on a flat-bank, \
                     sub-channel-scope configuration",
                ));
            }
            let sab = r.take_u32()?;
            if sab != self.cfg.geometry.subarrays_per_bank {
                return Err(MopacError::snapshot(format!(
                    "subarrays-per-bank mismatch: snapshot {sab}, configured {}",
                    self.cfg.geometry.subarrays_per_bank
                )));
            }
            self.demands.recovery_scope = match r.take_u32()? {
                0 => RecoveryScope::SubChannel,
                1 => RecoveryScope::Bank,
                v => {
                    return Err(MopacError::snapshot(format!(
                        "unknown recovery-scope tag {v} in snapshot"
                    )));
                }
            };
            self.demands.subarray_parallel_updates = r.take_bool()?;
        }
        if self.cfg.flip.is_some() {
            let magic = r.take_u32()?;
            if magic != FLIP_SECTION_MAGIC {
                return Err(MopacError::snapshot(
                    "missing flip-plane device section: snapshot was taken \
                     on a flip-plane-disabled configuration",
                ));
            }
        }
        self.sink.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(mit: MitigationConfig) -> DramDevice {
        DramDevice::new(DramConfig::tiny(mit))
    }

    /// Figure 4: a row-buffer-conflict read costs tRP + tRCD + CL; PRAC
    /// stretches it ~1.55x.
    #[test]
    fn fig4_conflict_latency() {
        let mut base_dev = device(MitigationConfig::baseline());
        let mut prac_dev = device(MitigationConfig::prac(500));
        let latency = |d: &mut DramDevice| {
            // Open row 0, then service a conflicting read to row 1.
            d.activate(0, 0, 0, 0, false).unwrap();
            let pre_at = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, pre_at).unwrap();
            let act_at = d.earliest_activate(0, 0).unwrap();
            d.activate(0, 0, 1, act_at, false).unwrap();
            let rd_at = d.earliest_column(0, 0, 1).unwrap();
            let done = d.read(0, 0, rd_at).unwrap();
            done - pre_at
        };
        let base_lat = latency(&mut base_dev);
        let prac_lat = latency(&mut prac_dev);
        // Base: tRP(42) + tRCD(42) + CL(42) + burst(8) = 134 cycles.
        assert_eq!(base_lat, 134);
        // PRAC: tRP(108) + tRCD(48) + CL(42) + burst(8) = 206 cycles.
        assert_eq!(prac_lat, 206);
        let ratio = prac_lat as f64 / base_lat as f64;
        assert!((1.45..1.65).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn faw_limits_burst_of_activations() {
        let mut cfg = DramConfig::tiny(MitigationConfig::baseline());
        cfg.geometry.banks_per_subchannel = 8;
        let mut d = DramDevice::new(cfg);
        let t_faw = d.timing_default().t_faw;
        let mut now = 0;
        for b in 0..4 {
            now = d.earliest_activate(0, b).unwrap().max(now);
            d.activate(0, b, 0, now, false).unwrap();
            now += 1;
        }
        // Fifth ACT must wait for the FAW window.
        let fifth = d.earliest_activate(0, 4).unwrap();
        assert!(fifth >= t_faw, "fifth ACT at {fifth}, tFAW {t_faw}");
    }

    #[test]
    fn prac_alerts_and_rfm_mitigates() {
        let mut d = device(MitigationConfig::prac(500)); // ATH 472
        let mut now = 0;
        let mut acts = 0u64;
        while d.alert_since(0).is_none() {
            now = d.earliest_activate(0, 0).unwrap();
            d.activate(0, 0, 10, now, false).unwrap();
            now = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, now).unwrap();
            acts += 1;
            assert!(acts <= 473, "no alert after {acts} ACTs");
        }
        assert_eq!(acts, 472);
        // Service it.
        let rfm_at = now + 540;
        d.rfm(0, rfm_at).unwrap();
        assert_eq!(d.stats().mitigations, 1);
        assert_eq!(d.alert_since(0), None);
        assert_eq!(d.violations(), 0);
        // Bank is blocked during the stall.
        assert!(d.earliest_activate(0, 0).unwrap() >= rfm_at + 1050);
    }

    #[test]
    fn refresh_blocks_subchannel_and_advances_group() {
        let mut d = device(MitigationConfig::prac(500));
        let now = d.earliest_refresh(0).unwrap();
        d.refresh(0, now).unwrap();
        assert_eq!(d.stats().refreshes, 1);
        let next = d.earliest_activate(0, 0).unwrap();
        assert_eq!(next, now + d.timing_default().t_rfc);
        // Other sub-channel unaffected.
        assert_eq!(d.earliest_activate(1, 0), Some(0));
    }

    #[test]
    fn mopac_d_srq_full_alert_drained_by_rfm() {
        let mit = MitigationConfig::mopac_d(500)
            .with_chips(1)
            .with_drain_on_ref(0);
        let mut d = device(mit);
        let mut now = 0;
        let mut row = 0u32;
        while d.alert_since(0).is_none() {
            now = d.earliest_activate(0, 0).unwrap();
            d.activate(0, 0, row, now, false).unwrap();
            now = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, now).unwrap();
            row = (row + 1) % 1024;
            assert!(row < 1000, "SRQ never filled");
        }
        assert_eq!(d.stats().alerts_srq_full, 1);
        d.rfm(0, now + 540).unwrap();
        assert_eq!(d.stats().deferred_updates, 5);
        assert_eq!(d.alert_since(0), None);
    }

    #[test]
    fn violations_detected_without_mitigation() {
        // Failure injection: a deliberately broken PRAC config (alert
        // threshold far above T_RH) must let the oracle catch overflows.
        let broken = MitigationConfig::prac(500).with_alert_threshold(100_000);
        let mut d = DramDevice::new(DramConfig::tiny(broken));
        let mut now;
        for _ in 0..600 {
            now = d.earliest_activate(0, 0).unwrap();
            d.activate(0, 0, 10, now, false).unwrap();
            now = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, now).unwrap();
        }
        assert!(d.violations() > 0, "oracle missed an obvious overflow");
        let rec = d.violation_records();
        assert_eq!(rec[0].row, 10);
    }

    /// PRACtical: a deferred-update precharge returns the bank to base
    /// timings; only a back-to-back ACT into the *same* subarray waits
    /// for the in-flight counter update, and overlapping updates across
    /// subarrays are counted on the sink.
    #[test]
    fn practical_subarray_gate_and_parallel_updates() {
        let mut cfg = DramConfig::tiny(MitigationConfig::practical(500));
        cfg.geometry.subarrays_per_bank = 4;
        let mut d = DramDevice::new(cfg);
        d.enable_metrics(SinkConfig::default());
        let rows_per_sa = d.config().geometry.rows_per_subarray();
        d.activate(0, 0, 0, 0, false).unwrap();
        let pre_at = d.earliest_precharge(0, 0).unwrap();
        d.precharge(0, 0, pre_at).unwrap();
        // Bank-level gate uses *base* tRP (the update continues inside
        // the subarray), so a different subarray proceeds immediately...
        let bank_free = d.earliest_activate(0, 0).unwrap();
        let other = d.earliest_activate_row(0, 0, rows_per_sa).unwrap();
        assert_eq!(other, bank_free);
        // ...while the closed row's subarray pays the PRAC-length tail.
        let same = d.earliest_activate_row(0, 0, 1).unwrap();
        assert!(same > other, "same-subarray ACT not gated ({same} vs {other})");
        // That ACT proceeds while subarray 0's update is still in
        // flight — the parallelism PRACtical unlocks (PRAC would have
        // held the whole bank for the long tRP).
        d.activate(0, 0, rows_per_sa, other, false).unwrap();
        let pre2 = d.earliest_precharge(0, 0).unwrap();
        d.precharge(0, 0, pre2).unwrap();
        let overlaps = d
            .metrics()
            .registry()
            .map(|r| r.counter(Counter::DramSubarrayParallelUpdates))
            .unwrap_or(0);
        assert_eq!(overlaps, 1, "overlapping subarray updates not counted");
    }

    /// PRACtical's bank-isolated recovery: a bank-scoped RFM services
    /// and stalls only the masked bank; its siblings keep issuing.
    #[test]
    fn rfm_banks_blocks_only_masked_banks() {
        let mut d = device(MitigationConfig::practical(500)); // ATH 472
        let mut now = 0;
        while d.alert_since(0).is_none() {
            now = d.earliest_activate_row(0, 0, 10).unwrap();
            d.activate(0, 0, 10, now, false).unwrap();
            now = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, now).unwrap();
        }
        let mask = d.alerting_banks(0);
        assert_eq!(mask.first_set(), Some(0));
        assert_eq!(mask.count(), 1);
        let rfm_at = d.earliest_rfm_banks(0, mask).unwrap().max(now);
        d.rfm_banks(0, mask, rfm_at).unwrap();
        assert_eq!(d.stats().mitigations, 1);
        assert_eq!(d.stats().rfms, 1);
        assert_eq!(d.alert_since(0), None);
        assert_eq!(d.violations(), 0);
        // The masked bank pays the ABO stall...
        assert!(d.earliest_activate(0, 0).unwrap() >= rfm_at + 1050);
        // ...while its sibling stays free (only shared-bus constraints,
        // far below the stall, may apply) and can actually activate.
        let sibling = d.earliest_activate(0, 1).unwrap();
        assert!(
            sibling < rfm_at + 100,
            "sibling bank blocked until {sibling} (RFM at {rfm_at})"
        );
        d.activate(0, 1, 0, sibling.max(rfm_at), false).unwrap();
    }

    /// A deliberately broken mitigation with the flip plane enabled
    /// corrupts victim data; the corruption is deterministic per seed
    /// and observable through the post-run readback sweep.
    #[test]
    fn broken_config_flips_victim_bits_deterministically() {
        use crate::flip::{FlipPlaneConfig, TrhDistribution};
        let run = || {
            let broken = MitigationConfig::prac(500).with_alert_threshold(100_000);
            let mut cfg = DramConfig::tiny(broken);
            cfg.flip = Some(
                FlipPlaneConfig::new(TrhDistribution::Constant(500)).with_flip_probability(0.5),
            );
            let mut d = DramDevice::new(cfg);
            let mut now;
            for _ in 0..700 {
                now = d.earliest_activate(0, 0).unwrap();
                d.activate(0, 0, 10, now, false).unwrap();
                now = d.earliest_precharge(0, 0).unwrap();
                d.precharge(0, 0, now).unwrap();
            }
            d.flip_readback_sweep();
            d.flip_stats()
        };
        let a = run();
        let b = run();
        assert!(a.bit_flips > 0, "no victim bits flipped past T_RH");
        assert!(a.corrupted_reads > 0, "flips never observed by readback");
        assert_eq!(a, b, "flip plane not deterministic per seed");
    }

    /// A protected engine (working PRAC) keeps victim words clean even
    /// with the flip plane armed at the oracle's T_RH.
    #[test]
    fn protected_engine_keeps_victims_clean() {
        use crate::flip::{FlipPlaneConfig, TrhDistribution};
        let mut cfg = DramConfig::tiny(MitigationConfig::prac(500));
        cfg.flip =
            Some(FlipPlaneConfig::new(TrhDistribution::Constant(500)).with_flip_probability(1.0));
        let mut d = DramDevice::new(cfg);
        let mut now = 0;
        for _ in 0..700 {
            if d.alert_since(0).is_some() {
                let at = d.earliest_refresh(0).unwrap().max(now + 540);
                d.rfm(0, at).unwrap();
            }
            now = d.earliest_activate(0, 0).unwrap();
            d.activate(0, 0, 10, now, false).unwrap();
            now = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, now).unwrap();
        }
        d.flip_readback_sweep();
        let s = d.flip_stats();
        assert_eq!(d.violations(), 0);
        assert_eq!(s.bit_flips, 0, "protected run still flipped bits");
        assert!(!s.attack_success());
    }

    /// A flip-plane-disabled snapshot must refuse to restore into a
    /// flip-enabled configuration with a typed snapshot error.
    #[test]
    fn snapshot_rejects_cross_flip_shape() {
        use crate::flip::{FlipPlaneConfig, TrhDistribution};
        let plain = device(MitigationConfig::prac(500));
        let mut w = SnapshotWriter::new();
        plain.save_state(&mut w);
        let bytes = w.finish();
        let mut cfg = DramConfig::tiny(MitigationConfig::prac(500));
        cfg.flip = Some(FlipPlaneConfig::new(TrhDistribution::Constant(500)));
        let mut flipped = DramDevice::new(cfg);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = flipped.load_state(&mut r).unwrap_err();
        assert!(
            matches!(err, MopacError::Snapshot { .. }),
            "wrong error kind: {err}"
        );
    }

    /// Round trip: a flip-enabled device snapshot restores its flip
    /// state (accumulators, masks, stats) exactly.
    #[test]
    fn snapshot_roundtrips_flip_state() {
        use crate::flip::{FlipPlaneConfig, TrhDistribution};
        let broken = MitigationConfig::prac(500).with_alert_threshold(100_000);
        let mut cfg = DramConfig::tiny(broken);
        cfg.flip =
            Some(FlipPlaneConfig::new(TrhDistribution::Constant(400)).with_flip_probability(1.0));
        let mut d = DramDevice::new(cfg.clone());
        let mut now;
        for _ in 0..600 {
            now = d.earliest_activate(0, 0).unwrap();
            d.activate(0, 0, 10, now, false).unwrap();
            now = d.earliest_precharge(0, 0).unwrap();
            d.precharge(0, 0, now).unwrap();
        }
        assert!(d.flip_stats().bit_flips > 0);
        let mut w = SnapshotWriter::new();
        d.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = DramDevice::new(cfg);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        assert_eq!(restored.flip_stats(), d.flip_stats());
        restored.flip_readback_sweep();
        d.flip_readback_sweep();
        assert_eq!(restored.flip_stats(), d.flip_stats());
    }

    /// A flat-bank snapshot must refuse to restore into a subarray
    /// configuration (and vice versa) with a typed snapshot error.
    #[test]
    fn snapshot_rejects_cross_subarray_shape() {
        let flat = device(MitigationConfig::prac(500));
        let mut w = SnapshotWriter::new();
        flat.save_state(&mut w);
        let bytes = w.finish();
        let mut cfg = DramConfig::tiny(MitigationConfig::practical(500));
        cfg.geometry.subarrays_per_bank = 4;
        let mut sub = DramDevice::new(cfg);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = sub.load_state(&mut r).unwrap_err();
        assert!(
            matches!(err, MopacError::Snapshot { .. }),
            "wrong error kind: {err}"
        );
    }
}
