//! The DRAM device: sub-channels of banks, shared-resource constraints
//! (command/data bus, tRRD, tFAW), refresh, and the ALERT/RFM (ABO)
//! protocol.
//!
//! The device is passive with respect to time: the memory controller
//! owns the clock and calls `can_*` / command methods with the current
//! cycle. The device enforces JEDEC legality (debug assertions plus
//! `can_*` predicates), executes the mitigation engines, and raises
//! ALERT when a bank needs ABO.

use crate::bank::{Bank, BankTable, GateKind, OpenRow, PrechargeKind};
use crate::flip::{FlipPlane, FlipPlaneConfig, FlipStats, ReadOutcome, VictimWords};
use crate::timing::{AboTiming, TimingSet};
use mopac::bank::AlertCause;
use mopac::checker::{Oracle, Violation};
use mopac::config::MitigationConfig;
use mopac::engine::TimingDemands;
use mopac_types::bankmask::BankMask;
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::geometry::DramGeometry;
use mopac_types::obs::{Counter, Hist, MetricsSink, SinkConfig, TraceEvent, TraceEventKind};
use mopac_types::rng::DetRng;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::time::{Cycle, MemClock};

/// Number of refresh groups per bank (tREFW / tREFI).
const REFRESH_GROUPS: u32 = 8192;

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
    /// default everywhere) disables it: zero state, no snapshot state,
    /// bit-identical to the pre-flip-plane simulator.
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
    /// Every bank's open row and ACT/PRE/column gates: the only copy.
    table: BankTable,
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
    /// The ALERT set: bit `b` set iff bank `b`'s engine reports an
    /// `alert_cause()`, re-read only for the banks a command reached
    /// (DESIGN.md §9). Derived: never serialized, rebuilt on restore.
    alerting: BankMask,
}

impl SubChannel {
    /// Re-reads bank `bank`'s engine into the ALERT set.
    fn reassess_alert(&mut self, bank: u32) {
        let on = self.banks[bank as usize].mitigation().alert_cause().is_some();
        self.alerting.assign(bank, on);
    }

    /// The ALERT set recomputed from the banks' engines.
    fn scan_alerting(&self) -> BankMask {
        let mut alerting = BankMask::empty();
        for (i, b) in self.banks.iter().enumerate() {
            alerting.assign(i as u32, b.mitigation().alert_cause().is_some());
        }
        alerting
    }

    /// The cause ALERT would assert with now: the lowest alerting bank's.
    fn pending_cause(&self) -> Option<AlertCause> {
        let bank = self.alerting.first_set()?;
        self.banks[bank as usize].mitigation().alert_cause()
    }
}

/// The simulated DRAM device.
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    /// What the mitigation design requires of the memory controller
    /// (timing set, PREcu coin, row-open cap). A static property of the
    /// configured design, read once at construction.
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
            geom.channels == 1,
            "a DramDevice simulates one channel; build per-channel \
             instances from DramGeometry::channel_view"
        );
        // The open-banks and ALERT sets (and the controller's
        // scheduler-index masks layered on them) pack one bit per bank
        // into a one-word BankMask.
        assert!(
            geom.banks_per_subchannel <= BankMask::CAPACITY,
            "bank masks hold at most {} banks per sub-channel",
            BankMask::CAPACITY
        );
        let rng = DetRng::from_seed(cfg.seed);
        let demands = TimingDemands::for_config(&cfg.mitigation);
        // Subarray deferred-update slots exist only when the engine
        // demands them; every other design keeps the slot-less
        // flat-bank shape.
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
                        let mitigation = mopac::engine::build_engine(
                            &cfg.mitigation,
                            geom.rows_per_bank,
                            bank_rng,
                        );
                        let checker = (cfg.enable_checker && cfg.mitigation.tracks())
                            .then(|| {
                                // The min() clamp guarantees the cast fits.
                                Oracle::new(cfg.mitigation.t_rh.min(u64::from(u32::MAX)) as u32)
                            });
                        // Per-bank salts are pure hashes of (seed,
                        // flat bank) — independent of thread count and
                        // construction order.
                        let flip = cfg.flip.map(|fc| {
                            VictimWords::new(fc, FlipPlane::bank_salt(cfg.seed, flat))
                        });
                        Bank::new(mitigation, geom.rows_per_bank, checker, cu_slots, flip)
                    })
                    .collect();
                SubChannel {
                    banks,
                    table: BankTable::new(geom.banks_per_subchannel),
                    last_act: None,
                    faw: [0; 4],
                    faw_idx: 0,
                    faw_filled: 0,
                    bus_busy_until: 0,
                    blocked_until: 0,
                    ref_group: 0,
                    alert_since: None,
                    acts_since_alert: 1,
                    alerting: BankMask::empty(),
                }
            })
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
        self.sub(sc).table.open_row(bank)
    }

    /// Whether the MC marked the open row for a PREcu close (MoPAC-C).
    #[must_use]
    pub fn pending_update(&self, sc: u32, bank: u32) -> bool {
        self.sub(sc).table.pending_update(bank)
    }

    /// When ALERT was asserted on a sub-channel, if it is pending.
    #[must_use]
    pub fn alert_since(&self, sc: u32) -> Option<Cycle> {
        self.sub(sc).alert_since
    }

    /// Bitmask of banks with an open row on `sc` (bit `b` set iff bank
    /// `b` is open).
    #[must_use]
    pub fn open_banks_mask(&self, sc: u32) -> BankMask {
        self.sub(sc).table.open_mask()
    }

    /// The least `kind` gate among `banks` on `sc`, leaving out banks
    /// on which no such gate exists (open banks for ACT, closed ones
    /// otherwise); `None` when none is left. It is the least bank part
    /// raised to the sub-channel floor once, which equals the minimum
    /// of the banks' `earliest_*` gates. A column gate is the open
    /// row's, so `banks` should name banks with work on their open rows.
    #[must_use]
    pub fn min_gate(&self, sc: u32, kind: GateKind, banks: BankMask) -> Option<Cycle> {
        let part = self.sub(sc).table.min_gate(kind, banks)?;
        let floor = match kind {
            GateKind::Activate => self.activate_floor(sc),
            GateKind::Precharge => self.precharge_floor(sc),
            GateKind::Column => self.column_floor(sc),
        };
        Some(part.max(floor))
    }

    /// The banks of `banks` on `sc` whose `kind` bank part has released
    /// at `now` (banks without such a gate are left out). The
    /// sub-channel floor is not looked at.
    #[must_use]
    pub fn bank_gates_ready(
        &self,
        sc: u32,
        kind: GateKind,
        banks: BankMask,
        now: Cycle,
    ) -> BankMask {
        self.sub(sc).table.ready(kind, banks, now)
    }

    /// The sub-channel floor of every ACT gate on `sc`: tRRD after the
    /// last ACT, tFAW after the fourth-last, and the REF/RFM block.
    /// Each ACT gate is its bank's part `max` this floor, so a caller
    /// scanning many banks takes the floor once (DESIGN.md §10).
    #[must_use]
    pub fn activate_floor(&self, sc: u32) -> Cycle {
        let s = self.sub(sc);
        let t = self.timing_default();
        let rrd_ok = s.last_act.map_or(0, |a| a + t.t_rrd);
        let faw_ok = if s.faw_filled >= 4 {
            s.faw[s.faw_idx] + t.t_faw
        } else {
            0
        };
        rrd_ok.max(faw_ok).max(s.blocked_until)
    }

    /// The bank part of the ACT gate on (sc, bank): tRP / tRFC / the
    /// bank's own block, or `None` if the bank is open.
    #[must_use]
    pub fn bank_activate_gate(&self, sc: u32, bank: u32) -> Option<Cycle> {
        self.sub(sc).table.earliest_activate(bank)
    }

    /// The bank part of the ACT gate for `row` specifically: the bank's
    /// part plus the row's subarray deferred-update gate (equal to
    /// [`Self::bank_activate_gate`] for designs without
    /// subarray-deferred updates).
    #[must_use]
    pub fn bank_activate_row_gate(&self, sc: u32, bank: u32, row: u32) -> Option<Cycle> {
        let s = self.sub(sc);
        let sa = self.cfg.geometry.subarray_of(row);
        Some(s.table.earliest_activate(bank)?.max(s.banks[bank as usize].cu_gate(sa)))
    }

    /// Earliest cycle an ACT to (sc, bank) may issue, or `None` if the
    /// bank is open.
    #[must_use]
    pub fn earliest_activate(&self, sc: u32, bank: u32) -> Option<Cycle> {
        Some(self.bank_activate_gate(sc, bank)?.max(self.activate_floor(sc)))
    }

    /// Earliest cycle an ACT to `row` specifically may issue: the
    /// bank-level gate ([`Self::earliest_activate`]) plus the row's
    /// subarray deferred-update gate. Identical to the bank-level gate
    /// for designs without subarray-deferred updates.
    #[must_use]
    pub fn earliest_activate_row(&self, sc: u32, bank: u32, row: u32) -> Option<Cycle> {
        Some(self.bank_activate_row_gate(sc, bank, row)?.max(self.activate_floor(sc)))
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
        gate("ACT", sc, Some(bank), now, self.earliest_activate_row(sc, bank, row))?;
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
        s.table.activate(bank, row, now, selected, &base, &prac);
        let flips = s.banks[bank as usize].on_activate(row);
        s.reassess_alert(bank);
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
                value: flips,
                subarray: self.cfg.geometry.subarray_of(row),
            });
        }
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// The sub-channel floor of every column gate on `sc`: the data bus
    /// (a burst must not overlap the previous one) and the REF/RFM
    /// block.
    #[must_use]
    pub fn column_floor(&self, sc: u32) -> Cycle {
        let s = self.sub(sc);
        let bus_ok = s.bus_busy_until.saturating_sub(self.timing_default().cl);
        bus_ok.max(s.blocked_until)
    }

    /// The bank part of the column gate for `row` (tRCD / tCCD), or
    /// `None` unless `row` is the bank's open row.
    #[must_use]
    pub fn bank_column_gate(&self, sc: u32, bank: u32, row: u32) -> Option<Cycle> {
        self.sub(sc).table.earliest_column(bank, row)
    }

    /// Earliest cycle a read/write to `row` may issue (bank + bus).
    #[must_use]
    pub fn earliest_column(&self, sc: u32, bank: u32, row: u32) -> Option<Cycle> {
        Some(self.bank_column_gate(sc, bank, row)?.max(self.column_floor(sc)))
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
        gate(command, sc, Some(bank), now, earliest)
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
        let done = s.table.read(bank, now, &t);
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
        let done = s.table.write(bank, now, &t);
        s.bus_busy_until = done;
        self.stats.writes += 1;
        Ok(done)
    }

    /// The sub-channel floor of every PRE gate on `sc`: the REF/RFM
    /// block.
    #[must_use]
    pub fn precharge_floor(&self, sc: u32) -> Cycle {
        self.sub(sc).blocked_until
    }

    /// The bank part of the PRE gate (tRAS / tRTP / tWR), or `None` if
    /// the bank is closed.
    #[must_use]
    pub fn bank_precharge_gate(&self, sc: u32, bank: u32) -> Option<Cycle> {
        self.sub(sc).table.earliest_precharge(bank)
    }

    /// Earliest cycle a PRE may issue.
    #[must_use]
    pub fn earliest_precharge(&self, sc: u32, bank: u32) -> Option<Cycle> {
        Some(self.bank_precharge_gate(sc, bank)?.max(self.precharge_floor(sc)))
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
        gate("PRE", sc, Some(bank), now, self.earliest_precharge(sc, bank))?;
        let kind = if self.demands.always_prac_timings || self.pending_update(sc, bank) {
            PrechargeKind::CounterUpdate
        } else if self.demands.subarray_parallel_updates {
            PrechargeKind::DeferredUpdate
        } else {
            PrechargeKind::Normal
        };
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
        let Some(open) = s.table.precharge(bank, kind, now, &base, &prac) else {
            // The earliest_precharge gate above already rejects a closed
            // bank, so this arm is unreachable; keep it typed anyway.
            return Err(MopacError::internal(format!(
                "PRE accepted on closed bank sc{sc}/bank{bank}"
            )));
        };
        let open_ns = (now - open.opened_at) as f64 * ns_per_cycle;
        s.banks[bank as usize].on_precharge(open.row, kind, open_ns);
        match kind {
            PrechargeKind::Normal => self.stats.precharges += 1,
            PrechargeKind::CounterUpdate | PrechargeKind::DeferredUpdate => {
                self.stats.precharges_cu += 1;
            }
        }
        if kind == PrechargeKind::DeferredUpdate {
            // The read-modify-write continues inside the closed row's
            // subarray for the PRAC-vs-base tRP difference; the bank
            // itself is already free.
            let sa = self.cfg.geometry.subarray_of(open.row);
            // The full update takes PRAC's tRP; only the subarray pays
            // the tail beyond the bank's base tRP.
            let cu_done = now + self.prac.t_rp.max(self.base.t_rp);
            let b = &mut self.sub_mut(sc).banks[bank as usize];
            b.post_cu(sa, cu_done, now);
            b.mitigation_mut().on_subarray_update(sa);
        }
        self.sub_mut(sc).reassess_alert(bank);
        self.refresh_alert_line(sc, now);
        Ok(())
    }

    /// Earliest cycle a REF may issue (all banks must be precharged; the
    /// caller closes open rows first).
    #[must_use]
    pub fn earliest_refresh(&self, sc: u32) -> Option<Cycle> {
        let s = self.sub(sc);
        let mut latest = s.blocked_until;
        for (i, b) in s.banks.iter().enumerate() {
            // REF quiesces the whole bank: closed rows AND any
            // in-flight subarray counter updates.
            latest = latest
                .max(s.table.earliest_activate(i as u32)?)
                .max(b.cu_busy_until());
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
        gate("REF", sc, None, now, self.earliest_refresh(sc))?;
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
        for (i, b) in s.banks.iter_mut().enumerate() {
            s.table.block_until(i as u32, now + t_rfc);
            let svc = b.mitigation_mut().on_ref(start..end);
            deferred += u64::from(svc.counter_updates);
            mitigations += svc.mitigated_rows.len() as u64;
            // Proactive (REF-piggybacked) mitigations, e.g. QPRAC
            // draining its priority queue, cure victims just like
            // ABO-forced ones.
            b.cure(&svc.mitigated_rows, blast, start..end);
        }
        s.alerting = s.scan_alerting();
        self.stats.refreshes += 1;
        self.stats.deferred_updates += deferred;
        self.stats.mitigations += mitigations;
        self.sink.event(TraceEvent {
            cycle: now,
            channel: self.cfg.channel,
            kind: TraceEventKind::Ref,
            subchannel: sc,
            bank: 0,
            value: u64::from(start),
            subarray: 0,
        });
        self.mitigation_event(now, sc, 0, mitigations);
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
        gate("RFM", sc, None, now, self.earliest_refresh(sc))?;
        // Sub-channel-scope recovery stalls every bank, alerting or not.
        let all = BankMask::from_u64(u64::MAX >> (64 - self.sub(sc).banks.len()));
        self.service_rfm(sc, all, true, now);
        Ok(())
    }

    /// Traces the `mitigations` a REF or RFM performed, if any.
    fn mitigation_event(&mut self, cycle: Cycle, sc: u32, bank: u32, mitigations: u64) {
        if mitigations > 0 {
            self.sink.event(TraceEvent {
                cycle,
                channel: self.cfg.channel,
                kind: TraceEventKind::Mitigation,
                subchannel: sc,
                bank,
                value: mitigations,
                subarray: 0,
            });
        }
    }

    /// Banks of `sc` whose mitigation engine currently demands ABO
    /// service — the targets of a bank-scoped RFM under
    /// [`RecoveryScope::Bank`](mopac::engine::RecoveryScope::Bank).
    #[must_use]
    pub fn alerting_banks(&self, sc: u32) -> BankMask {
        self.sub(sc).alerting
    }

    /// Parity check for the derived ALERT set (property tests): it
    /// must equal a fresh per-bank scan, and the cause ALERT would
    /// assert must be the lowest alerting bank's.
    #[doc(hidden)]
    pub fn debug_verify_masks(&self) -> Result<(), String> {
        for (sc, s) in self.subchannels.iter().enumerate() {
            let scan = (
                s.scan_alerting(),
                s.banks.iter().find_map(|b| b.mitigation().alert_cause()),
            );
            let kept = (s.alerting, s.pending_cause());
            if scan != kept {
                return Err(format!(
                    "sc{sc}: (ALERT set, ALERT cause) kept {kept:?} vs scan {scan:?}"
                ));
            }
        }
        Ok(())
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
            latest = latest
                .max(s.table.earliest_activate(bit)?)
                .max(b.cu_busy_until());
        }
        Some(latest)
    }

    /// Issues a bank-scoped RFM, servicing the pending ABO on exactly
    /// the banks in `mask` and blocking only them for the ABO stall
    /// time; the sub-channel's other banks (and its shared
    /// `blocked_until`) are untouched. This is PRACtical's
    /// bank-isolated recovery
    /// ([`RecoveryScope::Bank`](mopac::engine::RecoveryScope::Bank)).
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
        gate("RFMpb", sc, mask.first_set(), now, self.earliest_rfm_banks(sc, mask))?;
        self.service_rfm(sc, mask, false, now);
        Ok(())
    }

    /// The RFM both scopes share, past its timing gate: services the
    /// pending ABO on the banks in `mask` and blocks them for the ABO
    /// stall (the whole sub-channel too when `whole`). Under an active
    /// `inject_rfm_drop` fault the masked banks pay the stall but the ABO
    /// is never serviced; `inject_rfm_delay` lengthens the stall.
    fn service_rfm(&mut self, sc: u32, mask: BankMask, whole: bool, now: Cycle) {
        let stall = self.abo.stall + self.rfm_extra_stall;
        let blocked_bank_cycles = stall * u64::from(mask.count());
        // ALERT-to-service latency: how long the pending ABO waited for
        // this RFM (0 when no ALERT was asserted, e.g. a speculative or
        // dropped-fault retry).
        let service_time = self
            .sub(sc)
            .alert_since
            .map_or(0, |a| now.saturating_sub(a));
        let bank = mask.first_set().unwrap_or(0);
        if self.sink.is_enabled() {
            self.sink.record(Hist::AboServiceTime, sc, service_time);
            self.sink.event(TraceEvent {
                cycle: now,
                channel: self.cfg.channel,
                kind: TraceEventKind::Rfm,
                subchannel: sc,
                bank,
                value: service_time,
                subarray: 0,
            });
        }
        let blast = self.cfg.mitigation.blast_radius;
        let dropped = self.drop_rfms > 0;
        let s = self.sub_mut(sc);
        let mut mitigations = 0u64;
        let mut updates = 0u64;
        for bit in mask.ones() {
            s.table.block_until(bit, now + stall);
            let b = &mut s.banks[bit as usize];
            if !dropped {
                let svc = b.mitigation_mut().service_abo();
                updates += u64::from(svc.counter_updates);
                mitigations += svc.mitigated_rows.len() as u64;
                b.cure(&svc.mitigated_rows, blast, 0..0);
                s.alerting.assign(bit, b.mitigation().alert_cause().is_some());
            }
        }
        if whole {
            s.blocked_until = now + stall;
        }
        s.alert_since = None;
        // A dropped RFM never reaches the engines and ALERT stays
        // asserted; this lets a later RFM retry without a new ACT.
        s.acts_since_alert = u64::from(dropped);
        self.sink.add(Counter::DramBlockedBankCycles, blocked_bank_cycles);
        self.stats.rfms += 1;
        if dropped {
            self.drop_rfms -= 1;
            self.stats.injected_faults += 1;
            self.refresh_alert_line(sc, now);
            return;
        }
        self.stats.mitigations += mitigations;
        self.stats.deferred_updates += updates;
        self.mitigation_event(now, sc, bank, mitigations);
        // A bank may *still* need service (e.g. more SRQ entries than one
        // ABO drains, or an unmasked bank); let ALERT re-assert.
        self.refresh_alert_line(sc, now);
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
        self.sub_mut(sc).table.stick_until(bank, until);
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
        let s = self.sub_mut(sc);
        s.banks[bank as usize].mitigation_mut().corrupt_counter(row, bit);
        s.reassess_alert(bank);
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

    fn sub(&self, sc: u32) -> &SubChannel {
        &self.subchannels[sc as usize]
    }

    fn sub_mut(&mut self, sc: u32) -> &mut SubChannel {
        &mut self.subchannels[sc as usize]
    }

    /// Serializes one sub-channel's state: per bank its table record,
    /// then its own [`Snapshottable`] section, then the shared state.
    fn save_sub(s: &SubChannel, w: &mut SnapshotWriter) {
        for (i, b) in s.banks.iter().enumerate() {
            s.table.save_bank(i as u32, w);
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
    }

    fn load_sub(s: &mut SubChannel, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        for (i, b) in s.banks.iter_mut().enumerate() {
            s.table.load_bank(i as u32, r)?;
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
        s.alerting = s.scan_alerting();
        Ok(())
    }

    /// Re-evaluates the ALERT pin for a sub-channel. ALERT asserts when
    /// any bank wants service, provided at least one activation happened
    /// since the previous ALERT completed (ABO's anti-livelock rule).
    /// The cause is the lowest alerting bank's.
    fn refresh_alert_line(&mut self, sc: u32, now: Cycle) {
        let cause = {
            let s = self.sub(sc);
            if s.alert_since.is_some() || s.acts_since_alert == 0 {
                None
            } else {
                s.pending_cause()
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

/// The device section opens with the device's identity, the `Debug`
/// form of its [`DramConfig`]: engine and every mitigation parameter,
/// geometry, checker, flip plane, seed and channel. Restore compares it
/// before reading anything else, so no section below echoes
/// configuration. Snapshots are restored only in-process by the same
/// build, which keeps the `Debug` form stable.
impl Snapshottable for DramDevice {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_str(&format!("{:?}", self.cfg));
        for s in &self.subchannels {
            Self::save_sub(s, w);
        }
        self.stats.save_state(w);
        w.put_u32(self.drop_rfms);
        w.put_u64(self.rfm_extra_stall);
        self.sink.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        let saved = r.take_str()?;
        let configured = format!("{:?}", self.cfg);
        if saved != configured {
            return Err(MopacError::snapshot(format!(
                "snapshot of another device configuration: snapshot {saved}, \
                 configured {configured}"
            )));
        }
        for s in &mut self.subchannels {
            Self::load_sub(s, r)?;
        }
        self.stats.load_state(r)?;
        self.drop_rfms = r.take_u32()?;
        self.rfm_extra_stall = r.take_u64()?;
        self.sink.load_state(r)
    }
}

/// Refuses `command` at `now` unless its gate `earliest` is open
/// (`None`: the command is not legal in the current state at all).
fn gate(
    command: &'static str,
    subchannel: u32,
    bank: Option<u32>,
    at: Cycle,
    earliest: Option<Cycle>,
) -> MopacResult<()> {
    if earliest.is_none_or(|e| at < e) {
        return Err(MopacError::TimingProtocol { command, subchannel, bank, at, earliest });
    }
    Ok(())
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
