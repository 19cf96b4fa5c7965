//! The memory controller: request queues, FR-FCFS scheduling, page
//! policies, refresh, ALERT/RFM handling, and MoPAC-C's per-activation
//! coin flip.
//!
//! The controller owns the [`DramDevice`] and the clock convention: the
//! caller ticks it once per DRAM cycle, and at most one command issues
//! per sub-channel per cycle (the command bus).

use crate::mapping::AddressMapper;
use crate::sched_index::{QueueCounts, SubIndex};
use mopac::engine::RecoveryScope;
use mopac_dram::bank::GateKind;
use mopac_dram::device::DramDevice;
use mopac_types::addr::{DecodedAddr, PhysAddr};
use mopac_types::bankmask::BankMask;
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::obs::{Hist, MetricsSink, SinkConfig};
use mopac_types::rng::DetRng;
use mopac_types::snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
use mopac_types::time::Cycle;
use std::collections::VecDeque;

/// Row-closure policy (Appendix C, Table 15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PagePolicy {
    /// Keep rows open until a conflicting request needs the bank
    /// (the paper's default).
    Open,
    /// Auto-precharge semantics: exactly one column command per
    /// activation (the strictest close-page; what an attacker picks).
    Closed,
    /// Close-page for benign operation: close a row once no queued
    /// request hits it (spatially adjacent requests still coalesce).
    ClosedIdle,
    /// Close a row once it has been idle past its last access for the
    /// given time.
    TimeoutNs(f64),
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read; the requester blocks until data returns.
    Read,
    /// A posted write (writeback); completes on enqueue.
    Write,
}

/// A memory request entering the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned in the completion.
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Target in DRAM coordinates.
    pub addr: DecodedAddr,
}

/// A finished read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's identifier.
    pub id: u64,
    /// Cycle at which the data burst completes.
    pub at: Cycle,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Row-closure policy.
    pub page_policy: PagePolicy,
    /// Per-sub-channel read-queue capacity.
    pub read_queue_capacity: usize,
    /// Per-sub-channel write-queue capacity.
    pub write_queue_capacity: usize,
    /// Anti-starvation: a request older than this (cycles) preempts
    /// row-hit-first scheduling.
    pub starvation_cycles: Cycle,
    /// RNG seed for the MoPAC-C selection coin.
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            page_policy: PagePolicy::Open,
            read_queue_capacity: 64,
            write_queue_capacity: 128,
            starvation_cycles: 3000,
            seed: 0x4D43_5EED, // "MC" seed
        }
    }
}

mopac_types::counter_struct! {
    /// Controller statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct McStats {
        /// Reads completed.
        pub reads_done: u64 => McReadsDone,
        /// Writes accepted.
        pub writes_done: u64 => McWritesDone,
        /// Sum of read latencies (enqueue to data completion), in cycles.
        pub read_latency_sum: u64 => McReadLatencySum,
        /// RFMs issued in response to ALERT.
        pub rfms_issued: u64 => McRfmsIssued,
        /// Cycles spent with a sub-channel stalled for ABO (across
        /// sub-channels).
        pub abo_stall_cycles: u64 => McAboStallCycles,
        /// Cycles a sub-channel had queued work but issued no command.
        pub idle_with_work: u64 => McIdleWithWork,
        /// Cycles spent in refresh-drain mode (closing banks / waiting).
        pub refresh_mode_cycles: u64 => McRefreshModeCycles,
    }
}

impl McStats {
    /// Mean read latency in cycles.
    #[must_use]
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_done == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_done as f64
        }
    }
}

/// Minimum of two optional cycles, treating `None` as "no constraint".
fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    addr: DecodedAddr,
    arrival: Cycle,
}

#[derive(Debug, Clone)]
struct SubState {
    reads: VecDeque<Pending>,
    writes: VecDeque<Pending>,
    draining_writes: bool,
    next_ref: Cycle,
    last_use: Vec<Cycle>,
    /// Column commands issued to the currently open row, per bank
    /// (strict close-page issues exactly one per activation).
    cols_since_act: Vec<u32>,
}

impl SubState {
    /// Write-drain hysteresis: whether a scheduling pass over the
    /// current queues drains writes. Start at 7/8 full (or when reads
    /// are empty and writes exist), drain down to 1/8. Wide hysteresis
    /// amortizes the expensive read/write turnaround. The stop
    /// condition yields to an active start condition so the transition
    /// is idempotent under repeated passes with unchanged queues — the
    /// event-driven kernel's licence to skip them.
    fn drains_writes(&self, write_capacity: usize) -> bool {
        let start = self.writes.len() >= write_capacity * 7 / 8
            || (self.reads.is_empty() && !self.writes.is_empty());
        if self.draining_writes {
            self.writes.len() > write_capacity / 8 || start
        } else {
            start
        }
    }

    /// Banks whose current (or last) row served a column command: the
    /// scheduler index's `used` set, from scratch.
    fn used_banks(&self) -> BankMask {
        let mut used = BankMask::empty();
        for (b, &c) in self.cols_since_act.iter().enumerate() {
            used.assign(b as u32, c >= 1);
        }
        used
    }
}

/// The memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    dram: DramDevice,
    cfg: McConfig,
    subs: Vec<SubState>,
    rng: DetRng,
    stats: McStats,
    /// When `Some(p)`, each ACT flips a Bernoulli(`p`) coin to arm a
    /// `PREcu` (MoPAC-C). `None` keeps the RNG stream untouched.
    precu_p: Option<f64>,
    row_press_cap: Option<Cycle>,
    /// ABO recovery scope the engine demands: `SubChannel` stalls the
    /// whole sub-channel for RFM (the classic ladder); `Bank` drains
    /// and services only the alerting banks while their siblings keep
    /// scheduling (PRACtical). Copied from
    /// [`DramDevice::timing_demands`] at construction; never serialized.
    recovery_scope: RecoveryScope,
    /// Per-sub-channel scheduler index: incrementally maintained
    /// per-bank queue counts plus the cached next-wake (see
    /// `sched_index` and DESIGN.md §10).
    idx: Vec<SubIndex>,
    /// Observability sink: the read-latency histogram records here.
    /// Counters live in `stats` only. Disabled by default, which keeps
    /// uninstrumented runs bit-identical.
    sink: MetricsSink,
}

impl MemoryController {
    /// Creates a controller owning `dram`.
    #[must_use]
    pub fn new(dram: DramDevice, cfg: McConfig) -> Self {
        let t_refi = dram.timing_default().t_refi;
        let banks = dram.config().geometry.banks_per_subchannel as usize;
        let subs = (0..dram.config().geometry.subchannels)
            .map(|_| SubState {
                reads: VecDeque::with_capacity(cfg.read_queue_capacity),
                writes: VecDeque::with_capacity(cfg.write_queue_capacity),
                draining_writes: false,
                next_ref: t_refi,
                last_use: vec![0; banks],
                cols_since_act: vec![0; banks],
            })
            .collect();
        // The controller configures itself from what the mitigation
        // engines demand, not from the mitigation kind: the coin
        // probability for PREcu sampling and the row-open-time cap
        // (Appendix A: Row-Press hardening closes rows at 180 ns).
        let demands = dram.timing_demands();
        let clock = dram.clock();
        let row_press_cap = demands.row_open_cap_ns.map(|ns| clock.ns_to_cycles(ns));
        let idx = (0..dram.config().geometry.subchannels)
            .map(|_| SubIndex::new(banks))
            .collect();
        Self {
            rng: DetRng::from_seed(cfg.seed),
            precu_p: demands.precu_probability,
            row_press_cap,
            recovery_scope: demands.recovery_scope,
            idx,
            dram,
            cfg,
            subs,
            stats: McStats::default(),
            sink: MetricsSink::disabled(),
        }
    }

    /// Enables observability on the controller *and* its DRAM device:
    /// command latencies record into histograms and the device traces
    /// protocol events. Enabling changes no simulated behaviour — only
    /// what gets recorded alongside it.
    pub fn enable_metrics(&mut self, cfg: SinkConfig) {
        self.sink = MetricsSink::enabled(cfg);
        self.dram.enable_metrics(cfg);
    }

    /// The controller's metrics sink (disabled unless
    /// [`MemoryController::enable_metrics`] was called). The device has
    /// its own, reachable through [`MemoryController::dram`].
    #[must_use]
    pub fn metrics(&self) -> &MetricsSink {
        &self.sink
    }

    /// The DRAM device (for stats and oracle queries).
    #[must_use]
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// Mutable access to the DRAM device (fault-injection hooks).
    ///
    /// Any external mutation can move timing gates or assert ALERT, so
    /// every sub-channel's cached wake is invalidated up front. (The
    /// per-bank queue counts stay valid: no external hook opens or
    /// closes a row, and the counts depend only on queue contents and
    /// open rows.)
    pub fn dram_mut(&mut self) -> &mut DramDevice {
        for idx in &mut self.idx {
            idx.invalidate();
        }
        &mut self.dram
    }

    /// Controller statistics.
    #[must_use]
    pub fn stats(&self) -> McStats {
        self.stats
    }

    /// Whether a request of `kind` for sub-channel `sc` can be accepted.
    #[must_use]
    pub fn can_accept(&self, sc: u32, kind: AccessKind) -> bool {
        let s = &self.subs[sc as usize];
        match kind {
            AccessKind::Read => s.reads.len() < self.cfg.read_queue_capacity,
            AccessKind::Write => s.writes.len() < self.cfg.write_queue_capacity,
        }
    }

    /// Enqueues a request. Returns `false` (rejecting it) if the queue
    /// is full.
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        if !self.can_accept(req.addr.bank.subchannel, req.kind) {
            return false;
        }
        let sc = req.addr.bank.subchannel;
        let bank = req.addr.bank.bank;
        let hit = self
            .dram
            .open_row(sc, bank)
            .is_some_and(|o| o.row == req.addr.row);
        let s = &mut self.subs[sc as usize];
        let idx = &mut self.idx[sc as usize];
        let p = Pending {
            id: req.id,
            addr: req.addr,
            arrival: now,
        };
        match req.kind {
            AccessKind::Read => {
                s.reads.push_back(p);
                idx.reads.on_enqueue(bank, hit);
            }
            AccessKind::Write => {
                s.writes.push_back(p);
                idx.writes.on_enqueue(bank, hit);
                self.stats.writes_done += 1;
            }
        }
        idx.invalidate();
        true
    }

    /// Convenience: decode `addr` with `mapper` and enqueue.
    pub fn enqueue_phys(
        &mut self,
        id: u64,
        kind: AccessKind,
        addr: PhysAddr,
        mapper: &AddressMapper,
        now: Cycle,
    ) -> bool {
        self.enqueue(
            MemRequest {
                id,
                kind,
                addr: mapper.decode(addr),
            },
            now,
        )
    }

    /// Total queued requests (reads + writes) across sub-channels.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.subs
            .iter()
            .map(|s| s.reads.len() + s.writes.len())
            .sum()
    }

    /// Advances one DRAM cycle: issues at most one command per
    /// sub-channel and appends finished reads to `completions` (the
    /// buffer is reused by the caller; it is not cleared here). Returns
    /// the number of commands issued this cycle, which the event-driven
    /// kernel uses as its progress signal.
    ///
    /// # Errors
    ///
    /// Propagates [`MopacError::TimingProtocol`] from the device; in a
    /// healthy run this never fires (the controller checks `earliest_*`
    /// gates before issuing), so an error indicates a scheduler bug or
    /// an injected fault surfacing.
    pub fn tick(&mut self, now: Cycle, completions: &mut Vec<Completion>) -> MopacResult<u32> {
        let mut issued = 0;
        for sc in 0..self.subs.len() as u32 {
            issued += u32::from(self.tick_subchannel(sc, now, completions)?);
        }
        Ok(issued)
    }

    fn tick_subchannel(
        &mut self,
        sc: u32,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> MopacResult<bool> {
        // Fast path: a valid cached wake strictly after `now` proves
        // this tick is a no-op — the wake enumeration covers every
        // command opportunity and mode boundary, and every change since
        // it was computed would have dropped it. Replicate exactly the
        // per-cycle stats a full no-op tick would have recorded (the
        // same accounting `note_idle_cycles` uses for skipped regions)
        // and return without scanning anything.
        if self.idx[sc as usize].valid_wake().is_some_and(|w| now < w) {
            let s = &self.subs[sc as usize];
            let abo_stalled = self.abo_stalled(sc, now);
            let in_refresh = !abo_stalled && now >= s.next_ref;
            let has_work = !s.reads.is_empty() || !s.writes.is_empty();
            if abo_stalled {
                self.stats.abo_stall_cycles += 1;
            } else if in_refresh {
                self.stats.refresh_mode_cycles += 1;
            }
            if has_work {
                self.stats.idle_with_work += 1;
            }
            return Ok(false);
        }
        let had_work = {
            let s = &self.subs[sc as usize];
            !s.reads.is_empty() || !s.writes.is_empty()
        };
        let issued = self.tick_subchannel_inner(sc, now, completions)?;
        if had_work && !issued {
            self.stats.idle_with_work += 1;
        }
        // Cache when something could next happen, so the following
        // cycles take the O(1) path above (and `next_wake` answers from
        // the cache). After an issuing tick this is exact only while
        // the write-drain hysteresis is settled: the cycles the cache
        // skips would each have run it, and an enqueue landing before
        // the wake must find the state those ticks would have left.
        if !issued || !self.drain_flip_pending(sc, now + 1) {
            let wake = self.compute_wake(sc, now);
            self.idx[sc as usize].store_wake(wake, now);
        }
        Ok(issued)
    }

    /// Whether a tick at `at` that issues nothing would flip
    /// `draining_writes`: it reaches the hysteresis in
    /// `schedule_queue` (outside refresh drain and the sub-channel ABO
    /// stall) and the queues call for the other mode.
    fn drain_flip_pending(&self, sc: u32, at: Cycle) -> bool {
        let s = &self.subs[sc as usize];
        at < s.next_ref
            && !self.abo_stalled(sc, at)
            && s.drains_writes(self.cfg.write_queue_capacity) != s.draining_writes
    }

    /// Whether `sc` sits in the sub-channel-wide ABO stall at `now`:
    /// the ALERT has outlived its normal window *and* recovery stalls
    /// the whole sub-channel — by demand ([`RecoveryScope::SubChannel`])
    /// or as the fallback for an ALERT naming no bank (an injected
    /// fault). Under [`RecoveryScope::Bank`] with live targets the
    /// sub-channel keeps scheduling, so the stall counter must not
    /// tick.
    fn abo_stalled(&self, sc: u32, now: Cycle) -> bool {
        let Some(asserted) = self.dram.alert_since(sc) else {
            return false;
        };
        now >= asserted + self.dram.abo_timing().normal_window
            && (self.recovery_scope == RecoveryScope::SubChannel
                || self.dram.alerting_banks(sc).is_empty())
    }

    /// Earliest cycle *strictly after* `now` at which a tick could
    /// issue a command or change scheduling mode, assuming no new
    /// requests arrive in between (arrivals are the caller's wake
    /// sources: completion deliveries and core fetches). This is the
    /// controller's half of the event-driven kernel contract; the
    /// enumeration mirrors [`MemoryController::tick`]'s decision tree
    /// over both queues plus the refresh/ALERT deadlines, taking each
    /// candidate from the device gate the matching issue path checks.
    ///
    /// The returned cycle may be *early* (a wake at which the tick
    /// still does nothing is merely a wasted cycle); it is never late:
    /// the mode deadlines (`next_ref`, the ALERT normal window) are
    /// always candidates, so a caller skipping to the wake never jumps
    /// over a scheduling-mode boundary — the invariant
    /// [`MemoryController::note_idle_cycles`] relies on.
    #[must_use]
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        (0..self.subs.len() as u32)
            .filter_map(|sc| {
                // Serve from the scheduler-index cache when it is still
                // valid and strictly ahead; otherwise recompute purely
                // (`next_wake` takes `&self`, so only the tick path
                // stores caches).
                match self.idx[sc as usize].valid_wake() {
                    Some(w) if w > now => Some(w),
                    _ => self.compute_wake(sc, now),
                }
            })
            .min()
    }

    /// Full wake enumeration for one sub-channel (the reference the
    /// cache stores). Structure mirrors `tick_subchannel_inner`'s
    /// decision tree; every command candidate is the gate its issue
    /// path checks. Queue and close-page candidates are bank masks, one
    /// per command kind, built from the scheduler index; each kind's
    /// minimum is one masked query of the device's bank table, raised
    /// to its sub-channel floor once.
    fn compute_wake(&self, sc: u32, now: Cycle) -> Option<Cycle> {
        let s = &self.subs[sc as usize];
        let dram = &self.dram;
        // A candidate at or before `now` means the model thinks the
        // controller could already act; clamp to the very next cycle so
        // a stale candidate degrades to lockstep instead of stalling.
        let clamp = |c: Cycle| c.max(now + 1);
        // ALERT. Inside the normal window the deadline itself is the
        // candidate: it is the only device mode boundary no command
        // gate carries. Past it, recovery mode. Sub-channel scope: only
        // bank closes and the final RFM can happen. Bank scope: the
        // targeted banks' close gates and the bank-scoped RFM's
        // legality are extra candidates on top of normal scheduling
        // (the untargeted banks keep working below). The tick holds the
        // targets out of normal scheduling until the RFM, so they are
        // `held` out of its candidates too: their only commands are the
        // recovery PREs and the RFM.
        let mut recovery: Option<Cycle> = None;
        let mut held = BankMask::empty();
        if let Some(asserted) = dram.alert_since(sc) {
            let deadline = asserted + dram.abo_timing().normal_window;
            if now < deadline {
                recovery = Some(deadline);
            } else {
                let targets = if self.recovery_scope == RecoveryScope::Bank {
                    dram.alerting_banks(sc)
                } else {
                    BankMask::empty()
                };
                if targets.is_empty() {
                    return self.drain_wake(sc).map(clamp);
                }
                let open_targets = targets.and(dram.open_banks_mask(sc));
                recovery = dram.min_gate(sc, GateKind::Precharge, open_targets);
                if open_targets.is_empty() {
                    recovery = min_opt(recovery, dram.earliest_rfm_banks(sc, targets));
                }
                recovery = recovery.map(clamp);
                held = targets;
            }
        }
        // Refresh drain mode.
        if now >= s.next_ref {
            return min_opt(self.drain_wake(sc).map(clamp), recovery);
        }
        // Normal mode: the refresh deadline is always pending, plus the
        // ALERT deadline or bank-scoped recovery candidates.
        let mut wake = min_opt(Some(clamp(s.next_ref)), recovery);
        let all_open = dram.open_banks_mask(sc);
        let open = all_open.and_not(held);
        // Row-Press force close.
        if let Some(cap) = self.row_press_cap {
            let overdue = |b| dram.open_row(sc, b).map(|o| o.opened_at + cap);
            wake = min_opt(wake, self.precharge_wake(sc, open, overdue).map(clamp));
        }
        // Queue candidates, mirroring schedule_queue's hysteresis: the
        // preferred queue issues anything, the off queue hits only.
        // Column: queued hits in either queue (strict close-page serves
        // one column per activation, so not on used banks). PRE: the
        // preferred queue's all-conflict banks (conflicts behind queued
        // hits wait for the hits), plus the close-page closes — used
        // banks under strict close-page, banks no queued request hits
        // under both close-page policies. ACT: the preferred queue's
        // closed banks.
        let idx = &self.idx[sc as usize];
        let (pref, pref_q) = if s.drains_writes(self.cfg.write_queue_capacity) {
            (&idx.writes, &s.writes)
        } else {
            (&idx.reads, &s.reads)
        };
        let hits = idx.reads.hits_mask().or(idx.writes.hits_mask());
        let mut pre = pref.occ_mask().and_not(pref.hits_mask());
        let mut column = hits;
        match self.cfg.page_policy {
            PagePolicy::Closed => {
                pre = pre.or(idx.used).or(all_open.and_not(hits));
                column = column.and_not(idx.used);
            }
            PagePolicy::ClosedIdle => pre = pre.or(all_open.and_not(hits)),
            PagePolicy::Open | PagePolicy::TimeoutNs(_) => {}
        }
        let column = dram.min_gate(sc, GateKind::Column, column.and_not(held));
        let pre = dram.min_gate(sc, GateKind::Precharge, pre.and(open));
        let closed = pref.occ_mask().and_not(all_open).and_not(held);
        // Only subarray-parallel updates make a row's ACT gate differ
        // from its bank's: then each closed-bank request's candidate is
        // its own row gate, the one `issue_from` checks. The per-request
        // pass gives the same wakes for every other engine, but costs
        // them 7-10% of perfbench `sim_cycles_per_s` on paper_sweep and
        // attack_battery.
        let act = if closed.is_empty() || !dram.timing_demands().subarray_parallel_updates {
            dram.min_gate(sc, GateKind::Activate, closed)
        } else {
            pref_q
                .iter()
                .filter(|p| closed.test(p.addr.bank.bank))
                .filter_map(|p| dram.bank_activate_row_gate(sc, p.addr.bank.bank, p.addr.row))
                .min()
                .map(|c| c.max(dram.activate_floor(sc)))
        };
        for kind in [column, pre, act] {
            wake = min_opt(wake, kind.map(clamp));
        }
        // Anti-starvation: once the preferred queue's front crosses the
        // starvation age, `issue_from` acts on it where normal
        // scheduling would not (a conflict PRE despite queued hits, a
        // close-page column past its quota). Before the crossing, the
        // onset is the candidate; after it, the gate of the front's
        // own command. A held front never acts.
        if let Some(p) = pref_q.front().filter(|p| !held.test(p.addr.bank.bank)) {
            let onset = p.arrival + self.cfg.starvation_cycles + 1;
            let bank = p.addr.bank.bank;
            let gate = if onset > now {
                Some(onset)
            } else {
                match dram.open_row(sc, bank) {
                    Some(open) if open.row == p.addr.row => {
                        dram.earliest_column(sc, bank, p.addr.row)
                    }
                    Some(_) => dram.earliest_precharge(sc, bank),
                    None => dram.earliest_activate_row(sc, bank, p.addr.row),
                }
            };
            wake = min_opt(wake, gate.map(clamp));
        }
        // Idle-timeout close.
        if let PagePolicy::TimeoutNs(ns) = self.cfg.page_policy {
            let cap = (ns * 3.0) as Cycle;
            let idle = |b: u32| {
                let open = dram.open_row(sc, b)?;
                Some(s.last_use[b as usize].max(open.opened_at) + cap)
            };
            wake = min_opt(wake, self.precharge_wake(sc, open, idle).map(clamp));
        }
        wake
    }

    /// The earliest PRE wake among `banks`: each bank's PRE gate,
    /// raised to `not_before(b)` (`None` leaves the bank out), and the
    /// minimum raised to the sub-channel floor once —
    /// `max(min_b max(bank_b, not_before_b), floor)`, which equals the
    /// minimum of the per-bank `earliest_precharge` gates.
    fn precharge_wake(
        &self,
        sc: u32,
        banks: BankMask,
        not_before: impl Fn(u32) -> Option<Cycle>,
    ) -> Option<Cycle> {
        let mut min: Option<Cycle> = None;
        for b in banks.ones() {
            let gate = self.dram.bank_precharge_gate(sc, b);
            if let (Some(gate), Some(after)) = (gate, not_before(b)) {
                min = min_opt(min, Some(gate.max(after)));
            }
        }
        Some(min?.max(self.dram.precharge_floor(sc)))
    }

    /// The banks of `banks` whose PRE gate is open at `now`. While the
    /// sub-channel floor is past `now`, no bank can be, and none is
    /// looked at.
    fn precharge_ready(&self, sc: u32, banks: BankMask, now: Cycle) -> BankMask {
        if self.dram.precharge_floor(sc) > now {
            return BankMask::empty();
        }
        self.dram.bank_gates_ready(sc, GateKind::Precharge, banks, now)
    }

    /// Wake candidates while draining for REF/RFM: the next legal PRE
    /// on an open bank, or — once every bank is closed — the cycle the
    /// REF/RFM itself becomes legal.
    fn drain_wake(&self, sc: u32) -> Option<Cycle> {
        let m = self.dram.open_banks_mask(sc);
        if m.is_empty() {
            return self.dram.earliest_refresh(sc);
        }
        self.dram.min_gate(sc, GateKind::Precharge, m)
    }

    /// Bulk stat compensation for cycles an event-driven kernel skipped:
    /// accounts the per-cycle counters (`abo_stall_cycles`,
    /// `refresh_mode_cycles`, `idle_with_work`) exactly as `cycles`
    /// consecutive no-op ticks starting at `from` would have.
    ///
    /// The caller guarantees no tick in `[from, from + cycles)` would
    /// have issued a command or crossed a mode deadline (which
    /// [`MemoryController::next_wake`] enforces by always including the
    /// deadlines as candidates), so each sub-channel's mode — and hence
    /// which counter ticks — is constant across the region.
    pub fn note_idle_cycles(&mut self, from: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        for sc in 0..self.subs.len() {
            let s = &self.subs[sc];
            let had_work = !s.reads.is_empty() || !s.writes.is_empty();
            let abo_stalled = self.abo_stalled(sc as u32, from);
            if abo_stalled {
                self.stats.abo_stall_cycles += cycles;
            } else if from >= s.next_ref {
                self.stats.refresh_mode_cycles += cycles;
            }
            if had_work {
                self.stats.idle_with_work += cycles;
            }
        }
    }

    fn tick_subchannel_inner(
        &mut self,
        sc: u32,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> MopacResult<bool> {
        // 1. ABO: past the 180 ns window recovery must proceed. Under
        //    sub-channel scope we stall, close all open rows and issue
        //    the RFM; under bank scope only the alerting banks drain
        //    and service, while their siblings keep scheduling below
        //    (with the targets excluded from new work).
        let mut exclude = BankMask::empty();
        if let Some(asserted) = self.dram.alert_since(sc) {
            if now >= asserted + self.dram.abo_timing().normal_window {
                let targets = if self.recovery_scope == RecoveryScope::Bank {
                    self.dram.alerting_banks(sc)
                } else {
                    BankMask::empty()
                };
                if targets.is_empty() {
                    // Sub-channel scope — or an injected ALERT naming
                    // no bank, which only a full-width RFM can clear.
                    self.stats.abo_stall_cycles += 1;
                    if self.close_one_open_bank(sc, now)? {
                        return Ok(true);
                    }
                    // `earliest_refresh` is `None` while any bank is
                    // open (e.g. a stuck-open fault): keep stalling
                    // until the close above succeeds, rather than
                    // unwrap-panicking.
                    if self.all_banks_closed(sc)
                        && self.dram.earliest_refresh(sc).is_some_and(|e| e <= now)
                    {
                        self.dram.rfm(sc, now)?;
                        self.idx[sc as usize].invalidate();
                        self.stats.rfms_issued += 1;
                        return Ok(true);
                    }
                    return Ok(false);
                }
                let open_targets = targets.and(self.dram.open_banks_mask(sc));
                let ready = self.precharge_ready(sc, open_targets, now);
                if self.close(sc, ready.first_set(), now)? {
                    return Ok(true);
                }
                if open_targets.is_empty()
                    && self
                        .dram
                        .earliest_rfm_banks(sc, targets)
                        .is_some_and(|e| e <= now)
                {
                    self.dram.rfm_banks(sc, targets, now)?;
                    self.idx[sc as usize].invalidate();
                    self.stats.rfms_issued += 1;
                    return Ok(true);
                }
                // Recovery is waiting on a timing gate: keep the
                // targets out of normal scheduling so they drain.
                exclude = targets;
            }
        }
        // 2. Refresh, when due.
        if now >= self.subs[sc as usize].next_ref {
            self.stats.refresh_mode_cycles += 1;
            if self.close_one_open_bank(sc, now)? {
                return Ok(true);
            }
            // As above: no refresh slot exists while a bank is open.
            if self.all_banks_closed(sc)
                && self.dram.earliest_refresh(sc).is_some_and(|e| e <= now)
            {
                let t_refi = self.dram.timing_default().t_refi;
                self.dram.refresh(sc, now)?;
                self.idx[sc as usize].invalidate();
                self.subs[sc as usize].next_ref += t_refi;
                return Ok(true);
            }
            return Ok(false);
        }
        // 3. Row-Press cap (MoPAC-C hardening): force-close rows open
        //    longer than 180 ns, ahead of any pending hits.
        if let Some(cap) = self.row_press_cap {
            if self.close_overdue_bank(sc, now, cap, true)? {
                return Ok(true);
            }
        }
        // 4. Strict close-page: a bank that has serviced its column
        //    command closes before anything else (auto-precharge
        //    semantics).
        if self.cfg.page_policy == PagePolicy::Closed {
            let used = self.dram.open_banks_mask(sc).and(self.idx[sc as usize].used);
            let ready = self.precharge_ready(sc, used, now);
            if self.close(sc, ready.first_set(), now)? {
                return Ok(true);
            }
        }
        // 5. FR-FCFS over the active queue (minus any banks held for
        //    bank-scoped recovery).
        if self.schedule_queue(sc, now, exclude, completions)? {
            return Ok(true);
        }
        // 6. Idle housekeeping per page policy.
        match self.cfg.page_policy {
            PagePolicy::Open => Ok(false),
            PagePolicy::Closed | PagePolicy::ClosedIdle => {
                // Close one open bank no queued request hits.
                let idx = &self.idx[sc as usize];
                let hits = idx.reads.hits_mask().or(idx.writes.hits_mask());
                let unreferenced = self.dram.open_banks_mask(sc).and_not(hits);
                let ready = self.precharge_ready(sc, unreferenced, now);
                self.close(sc, ready.first_set(), now)
            }
            PagePolicy::TimeoutNs(ns) => {
                let cap = (ns * 3.0) as Cycle;
                self.close_overdue_bank(sc, now, cap, false)
            }
        }
    }

    /// Closes `bank`, if one was picked; returns whether a PRE issued.
    fn close(&mut self, sc: u32, bank: Option<u32>, now: Cycle) -> MopacResult<bool> {
        let Some(b) = bank else {
            return Ok(false);
        };
        self.issue_pre(sc, b, now)?;
        Ok(true)
    }

    /// Picks the active queue (reads unless draining writes) and issues
    /// one command for it. Returns whether a command was issued.
    fn schedule_queue(
        &mut self,
        sc: u32,
        now: Cycle,
        exclude: BankMask,
        completions: &mut Vec<Completion>,
    ) -> MopacResult<bool> {
        let s = &mut self.subs[sc as usize];
        s.draining_writes = s.drains_writes(self.cfg.write_queue_capacity);
        // Work-conserving: if the preferred queue cannot issue this
        // cycle, serve a row hit from the other one rather than idling
        // the command bus (hits only — opening rows for the off-queue
        // would add conflicts).
        let use_writes = s.draining_writes;
        Ok(self.issue_from(sc, now, use_writes, false, exclude, completions)?
            || self.issue_from(sc, now, !use_writes, true, exclude, completions)?)
    }

    fn issue_from(
        &mut self,
        sc: u32,
        now: Cycle,
        writes: bool,
        hits_only: bool,
        exclude: BankMask,
        completions: &mut Vec<Completion>,
    ) -> MopacResult<bool> {
        // Anti-starvation: if the oldest request is too old, act on it
        // first when possible (without serializing the rest: if its
        // needed command cannot issue this cycle, normal scheduling
        // proceeds below). A starved front on a bank held for recovery
        // cannot act; normal scheduling below serves the rest of the
        // queue.
        let starved_front = if hits_only {
            None
        } else {
            let s = &self.subs[sc as usize];
            let q = if writes { &s.writes } else { &s.reads };
            q.front().copied().filter(|p| {
                now.saturating_sub(p.arrival) > self.cfg.starvation_cycles
                    && !exclude.test(p.addr.bank.bank)
            })
        };
        if let Some(p) = starved_front {
            let bank = p.addr.bank.bank;
            match self.dram.open_row(sc, bank) {
                Some(open) if open.row == p.addr.row => {
                    if self
                        .dram
                        .earliest_column(sc, bank, p.addr.row)
                        .is_some_and(|e| e <= now)
                    {
                        self.issue_column(sc, now, writes, 0, completions)?;
                        return Ok(true);
                    }
                }
                Some(_) => {
                    if self
                        .dram
                        .earliest_precharge(sc, bank)
                        .is_some_and(|e| e <= now)
                    {
                        self.issue_pre(sc, bank, now)?;
                        return Ok(true);
                    }
                }
                None => {
                    if self
                        .dram
                        .earliest_activate_row(sc, bank, p.addr.row)
                        .is_some_and(|e| e <= now)
                    {
                        self.issue_activate(sc, bank, p.addr.row, now)?;
                        return Ok(true);
                    }
                }
            }
        }
        let idx = &self.idx[sc as usize];
        let counts = if writes { &idx.writes } else { &idx.reads };
        // Phase (a): oldest ready row hit. Under strict close-page a
        // bank serves exactly one column per activation. A request can
        // only be a ready hit if its bank has queued hits on the open
        // row (`hits_mask`), the policy allows another column, and the
        // bank's column gate has released — all per-bank facts, so the
        // eligible banks are one mask query. Then a single queue scan
        // finds the oldest request matching an eligible bank's open
        // row: exactly the request the per-request scan would pick,
        // because `earliest_column(sc, bank, row)` releases only for
        // the open row of an open bank. Past a closed bus or REF/RFM
        // block no bank can issue.
        let elig = if self.dram.column_floor(sc) <= now {
            let mut banks = counts.hits_mask().and_not(exclude);
            if self.cfg.page_policy == PagePolicy::Closed {
                banks = banks.and_not(idx.used);
            }
            self.dram.bank_gates_ready(sc, GateKind::Column, banks, now)
        } else {
            BankMask::empty()
        };
        let hit_idx = if elig.is_empty() {
            None
        } else {
            let s = &self.subs[sc as usize];
            let q = if writes { &s.writes } else { &s.reads };
            q.iter().position(|p| {
                let bank = p.addr.bank.bank;
                elig.test(bank)
                    && self
                        .dram
                        .open_row(sc, bank)
                        .is_some_and(|o| o.row == p.addr.row)
            })
        };
        if let Some(idx) = hit_idx {
            self.issue_column(sc, now, writes, idx, completions)?;
            return Ok(true);
        }
        if hits_only {
            return Ok(false);
        }
        // Phase (b): oldest request needing bank preparation. Per bank:
        // an open bank whose queued requests are all conflicts
        // (`hits == 0` — the O(1) form of the old has-surviving-hits
        // rescan) wants a PRE; a closed occupied bank wants an ACT.
        // Gate each candidate mask by the device table, then one queue
        // scan picks the oldest request whose bank can act — preserving
        // the per-request loop's selection order exactly (hits skip
        // both masks: their bank is open with `hits > 0`). A closed
        // sub-channel floor rules out its command kind on every bank,
        // so those banks are not looked at.
        let occ = counts.occ_mask().and_not(exclude);
        let open_mask = self.dram.open_banks_mask(sc);
        let conflicts = occ.and(open_mask).and_not(counts.hits_mask());
        let pre_mask = self.precharge_ready(sc, conflicts, now);
        let act_mask = if self.dram.activate_floor(sc) <= now {
            self.dram
                .bank_gates_ready(sc, GateKind::Activate, occ.and_not(open_mask), now)
        } else {
            BankMask::empty()
        };
        let prep = if pre_mask.is_empty() && act_mask.is_empty() {
            None
        } else {
            let s = &self.subs[sc as usize];
            let q = if writes { &s.writes } else { &s.reads };
            let mut action = None;
            for p in q {
                let bank = p.addr.bank.bank;
                if pre_mask.test(bank) {
                    action = Some((bank, None));
                    break;
                }
                // Past the bank-level gate the target row's own
                // subarray may still hold an in-flight counter update
                // (subarray-parallel designs); a gated request yields
                // to the next one. (The ACT floor is open, or
                // `act_mask` is empty.)
                if act_mask.test(bank)
                    && self
                        .dram
                        .bank_activate_row_gate(sc, bank, p.addr.row)
                        .is_some_and(|e| e <= now)
                {
                    action = Some((bank, Some(p.addr.row)));
                    break;
                }
            }
            action
        };
        match prep {
            Some((bank, Some(row))) => {
                self.issue_activate(sc, bank, row, now)?;
                Ok(true)
            }
            Some((bank, None)) => {
                self.issue_pre(sc, bank, now)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Issues an ACT, flipping the PREcu selection coin when the engine
    /// demands one. The coin is only drawn when a probability is set,
    /// keeping the RNG stream bit-identical for engines without one.
    fn issue_activate(&mut self, sc: u32, bank: u32, row: u32, now: Cycle) -> MopacResult<()> {
        let selected = match self.precu_p {
            Some(p) => self.rng.bernoulli(p),
            None => false,
        };
        self.dram.activate(sc, bank, row, now, selected)?;
        let s = &mut self.subs[sc as usize];
        s.last_use[bank as usize] = now;
        s.cols_since_act[bank as usize] = 0;
        // The ACT changed the bank's open row: recount its hits in both
        // queues against the new row and kill the wake cache.
        let s = &self.subs[sc as usize];
        let idx = &mut self.idx[sc as usize];
        idx.used.clear(bank);
        idx.reads
            .rescan_bank(bank, row, s.reads.iter().map(|p| (p.addr.bank.bank, p.addr.row)));
        idx.writes
            .rescan_bank(bank, row, s.writes.iter().map(|p| (p.addr.bank.bank, p.addr.row)));
        idx.invalidate();
        Ok(())
    }

    /// Issues a PRE and applies its index maintenance: a closed bank
    /// can have no queued hits, and any DRAM command kills the cached
    /// wake. Every controller PRE goes through here.
    fn issue_pre(&mut self, sc: u32, bank: u32, now: Cycle) -> MopacResult<()> {
        self.dram.precharge(sc, bank, now)?;
        let idx = &mut self.idx[sc as usize];
        idx.reads.clear_hits(bank);
        idx.writes.clear_hits(bank);
        idx.invalidate();
        Ok(())
    }

    fn issue_column(
        &mut self,
        sc: u32,
        now: Cycle,
        writes: bool,
        idx: usize,
        completions: &mut Vec<Completion>,
    ) -> MopacResult<()> {
        let s = &mut self.subs[sc as usize];
        let q = if writes { &mut s.writes } else { &mut s.reads };
        let Some(p) = q.remove(idx) else {
            return Err(MopacError::internal(format!(
                "scheduler selected queue index {idx} past the end"
            )));
        };
        s.last_use[p.addr.bank.bank as usize] = now;
        s.cols_since_act[p.addr.bank.bank as usize] += 1;
        // Column commands only serve row hits (both the phase (a) pick
        // and the starved-front fast path check the open row first), so
        // the dequeued request is always a hit.
        let index = &mut self.idx[sc as usize];
        index.used.set(p.addr.bank.bank);
        if writes {
            index.writes.on_dequeue_hit(p.addr.bank.bank);
        } else {
            index.reads.on_dequeue_hit(p.addr.bank.bank);
        }
        index.invalidate();
        if writes {
            let _ = self.dram.write(sc, p.addr.bank.bank, now)?;
        } else {
            let done = self.dram.read(sc, p.addr.bank.bank, now)?;
            self.stats.reads_done += 1;
            // A completion earlier than the request's arrival is an
            // ordering bug (a scheduler or device regression); clamping
            // it to zero latency would silently poison the latency
            // average, so surface it as a typed internal error instead.
            let Some(latency) = done.checked_sub(p.arrival) else {
                debug_assert!(
                    false,
                    "read {} completed at {done}, before its arrival at {}",
                    p.id, p.arrival
                );
                return Err(MopacError::internal(format!(
                    "read {} completed at {done}, before its arrival at {} \
                     (sc{sc}/bank{}): latency accounting would underflow",
                    p.id, p.arrival, p.addr.bank.bank
                )));
            };
            self.stats.read_latency_sum += latency;
            self.sink.record(Hist::ReadLatency, sc, latency);
            completions.push(Completion { id: p.id, at: done });
        }
        Ok(())
    }

    /// Closes one open bank if legal; returns whether a PRE was issued.
    fn close_one_open_bank(&mut self, sc: u32, now: Cycle) -> MopacResult<bool> {
        let open = self.dram.open_banks_mask(sc);
        let ready = self.precharge_ready(sc, open, now);
        self.close(sc, ready.first_set(), now)
    }

    fn all_banks_closed(&self, sc: u32) -> bool {
        self.dram.open_banks_mask(sc).is_empty()
    }

    /// Closes one bank whose row has been open (`force`) or idle since
    /// last use (`!force`) for at least `cap` cycles.
    fn close_overdue_bank(
        &mut self,
        sc: u32,
        now: Cycle,
        cap: Cycle,
        force: bool,
    ) -> MopacResult<bool> {
        let last_use = &self.subs[sc as usize].last_use;
        let overdue = |b: u32| {
            self.dram.open_row(sc, b).is_some_and(|open| {
                let anchor = if force {
                    open.opened_at
                } else {
                    last_use[b as usize].max(open.opened_at)
                };
                now.saturating_sub(anchor) >= cap
            })
        };
        let open = self.dram.open_banks_mask(sc);
        let bank = self.precharge_ready(sc, open, now).ones().find(|&b| overdue(b));
        self.close(sc, bank, now)
    }

    /// Parity check for the scheduler index (property tests): checks
    /// the device's derived ALERT set
    /// ([`DramDevice::debug_verify_masks`]), rebuilds every
    /// [`QueueCounts`] and the used-bank set from scratch and compares
    /// them with the incrementally maintained ones, and — when a wake
    /// cache is valid — recomputes the wake at the cycle it was cached
    /// and demands the identical answer.
    #[doc(hidden)]
    pub fn debug_verify_index(&self) -> Result<(), String> {
        self.dram.debug_verify_masks()?;
        let banks = self.dram.config().geometry.banks_per_subchannel as usize;
        for sc in 0..self.subs.len() as u32 {
            let s = &self.subs[sc as usize];
            let idx = &self.idx[sc as usize];
            let open = |b: u32| self.dram.open_row(sc, b).map(|o| o.row);
            let fresh_r = QueueCounts::rebuild(
                banks,
                s.reads.iter().map(|p| (p.addr.bank.bank, p.addr.row)),
                open,
            );
            if fresh_r != idx.reads {
                return Err(format!("sc{sc}: read counts diverged: {fresh_r:?} vs {:?}", idx.reads));
            }
            let fresh_w = QueueCounts::rebuild(
                banks,
                s.writes.iter().map(|p| (p.addr.bank.bank, p.addr.row)),
                open,
            );
            if fresh_w != idx.writes {
                return Err(format!(
                    "sc{sc}: write counts diverged: {fresh_w:?} vs {:?}",
                    idx.writes
                ));
            }
            let used = s.used_banks();
            if used != idx.used {
                return Err(format!("sc{sc}: used banks {:?} vs fresh {used:?}", idx.used));
            }
            if let (Some(cached), Some(at)) = (idx.valid_wake(), idx.valid_computed_at()) {
                let fresh = self.compute_wake(sc, at);
                if fresh != Some(cached) {
                    return Err(format!(
                        "sc{sc}: cached wake {cached} (computed at {at}) vs fresh {fresh:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Snapshottable for MemoryController {
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.dram.save_state(w);
        self.rng.save_state(w);
        self.stats.save_state(w);
        let save_queue = |q: &VecDeque<Pending>, w: &mut SnapshotWriter| {
            w.put_usize(q.len());
            for p in q {
                w.put_u64(p.id);
                p.addr.save_state(w);
                w.put_u64(p.arrival);
            }
        };
        for s in &self.subs {
            save_queue(&s.reads, w);
            save_queue(&s.writes, w);
            w.put_bool(s.draining_writes);
            w.put_u64(s.next_ref);
            for &c in &s.last_use {
                w.put_u64(c);
            }
            for &c in &s.cols_since_act {
                w.put_u32(c);
            }
        }
        self.sink.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()> {
        self.dram.load_state(r)?;
        self.rng.load_state(r)?;
        self.stats.load_state(r)?;
        let load_queue = |q: &mut VecDeque<Pending>, r: &mut SnapshotReader<'_>| {
            let n = r.take_usize()?;
            q.clear();
            for _ in 0..n {
                let id = r.take_u64()?;
                let mut addr = DecodedAddr::new(mopac_types::geometry::BankRef::new(0, 0), 0, 0);
                addr.load_state(r)?;
                let arrival = r.take_u64()?;
                q.push_back(Pending { id, addr, arrival });
            }
            Ok::<(), MopacError>(())
        };
        let banks = self.dram.config().geometry.banks_per_subchannel as usize;
        for s in &mut self.subs {
            load_queue(&mut s.reads, r)?;
            load_queue(&mut s.writes, r)?;
            s.draining_writes = r.take_bool()?;
            s.next_ref = r.take_u64()?;
            for c in &mut s.last_use {
                *c = r.take_u64()?;
            }
            for c in &mut s.cols_since_act {
                *c = r.take_u32()?;
            }
        }
        self.sink.load_state(r)?;
        // The scheduler index is pure cache: rebuild the per-bank queue
        // counts from the restored queues and leave the wake cache cold.
        // An invalid cache is behaviorally identical to a valid one —
        // the next tick recomputes and re-stores it (the "invalid-cache
        // path is bit-identical" contract the index tests pin down).
        for (sc, s) in self.subs.iter().enumerate() {
            let sc32 = sc as u32;
            let open = |b: u32| self.dram.open_row(sc32, b).map(|o| o.row);
            let mut idx = SubIndex::new(banks);
            idx.reads = QueueCounts::rebuild(
                banks,
                s.reads.iter().map(|p| (p.addr.bank.bank, p.addr.row)),
                open,
            );
            idx.writes = QueueCounts::rebuild(
                banks,
                s.writes.iter().map(|p| (p.addr.bank.bank, p.addr.row)),
                open,
            );
            idx.used = s.used_banks();
            self.idx[sc] = idx;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopac::config::MitigationConfig;
    use mopac_dram::device::DramConfig;
    use mopac_types::geometry::BankRef;

    fn controller(mit: MitigationConfig) -> MemoryController {
        let dram = DramDevice::new(DramConfig::tiny(mit));
        MemoryController::new(dram, McConfig::default())
    }

    fn run_until_done(
        mc: &mut MemoryController,
        mut now: Cycle,
        expect: usize,
        limit: Cycle,
    ) -> (Vec<Completion>, Cycle) {
        let mut done = Vec::new();
        let end = now + limit;
        while done.len() < expect && now < end {
            mc.tick(now, &mut done).unwrap();
            now += 1;
        }
        (done, now)
    }

    fn read(id: u64, bank: u32, row: u32) -> MemRequest {
        MemRequest {
            id,
            kind: AccessKind::Read,
            addr: DecodedAddr::new(BankRef::new(0, bank), row, 0),
        }
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let mut mc = controller(MitigationConfig::baseline());
        assert!(mc.enqueue(read(1, 0, 5), 0));
        let (done, _) = run_until_done(&mut mc, 0, 1, 10_000);
        assert_eq!(done.len(), 1);
        // ACT@0 (first tick) -> RD@tRCD -> data at +CL+burst.
        assert_eq!(done[0].at, 42 + 42 + 8);
    }

    #[test]
    fn row_hits_are_prioritized() {
        let mut mc = controller(MitigationConfig::baseline());
        assert!(mc.enqueue(read(1, 0, 5), 0)); // opens row 5
        assert!(mc.enqueue(read(2, 0, 9), 0)); // conflict
        assert!(mc.enqueue(read(3, 0, 5), 0)); // hit on row 5
        let (done, _) = run_until_done(&mut mc, 0, 3, 100_000);
        let order: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![1, 3, 2], "hit must overtake the conflict");
    }

    #[test]
    fn refresh_happens_every_trefi() {
        let mut mc = controller(MitigationConfig::baseline());
        let mut done = Vec::new();
        for now in 0..40_000 {
            mc.tick(now, &mut done).unwrap();
        }
        // 40000 cycles / 11700 per REF = 3 refreshes per sub-channel.
        assert_eq!(mc.dram().stats().refreshes, 6);
    }

    #[test]
    fn prac_alert_serviced_with_rfm() {
        let mut mc = controller(MitigationConfig::prac(500));
        let mut done = Vec::new();
        let mut now = 0;
        let mut id: u64 = 0;
        // Hammer row 0, interleaved with unique conflict rows so every
        // access is a row miss (classic Rowhammer pattern).
        while mc.dram().stats().rfms == 0 {
            if mc.queued() == 0 {
                id += 1;
                let row = if id.is_multiple_of(2) { 0 } else { (id % 900 + 1) as u32 };
                mc.enqueue(read(id, 0, row), now);
            }
            mc.tick(now, &mut done).unwrap();
            now += 1;
            assert!(now < 2_000_000, "no RFM after {now} cycles");
        }
        assert!(mc.stats().rfms_issued >= 1);
        assert_eq!(mc.dram().violations(), 0);
    }

    #[test]
    fn mopac_c_selects_roughly_p_fraction() {
        let mut mc = controller(MitigationConfig::mopac_c(500)); // p = 1/8
        let mut done = Vec::new();
        let mut now = 0;
        let mut id = 0;
        while mc.dram().stats().activates < 4000 {
            if mc.can_accept(0, AccessKind::Read) {
                id += 1;
                // Random-ish row per request: every access a row miss.
                mc.enqueue(read(id, (id % 4) as u32, (id * 37 % 701) as u32), now);
            }
            mc.tick(now, &mut done).unwrap();
            now += 1;
        }
        let st = mc.dram().stats();
        let frac = st.precharges_cu as f64 / (st.precharges + st.precharges_cu) as f64;
        assert!((frac - 0.125).abs() < 0.02, "PREcu fraction {frac}");
    }

    #[test]
    fn close_page_policy_closes_idle_rows() {
        let dram = DramDevice::new(DramConfig::tiny(MitigationConfig::baseline()));
        let mut mc = MemoryController::new(
            dram,
            McConfig {
                page_policy: PagePolicy::Closed,
                ..McConfig::default()
            },
        );
        assert!(mc.enqueue(read(1, 0, 5), 0));
        let (_, now) = run_until_done(&mut mc, 0, 1, 10_000);
        // Allow some cycles for the idle close (tRTP after the read).
        let mut done = Vec::new();
        for t in now..now + 200 {
            mc.tick(t, &mut done).unwrap();
        }
        assert!(mc.dram().open_row(0, 0).is_none(), "row left open");
    }

    #[test]
    fn write_drain_services_writes() {
        let mut mc = controller(MitigationConfig::baseline());
        for i in 0..8 {
            assert!(mc.enqueue(
                MemRequest {
                    id: i,
                    kind: AccessKind::Write,
                    addr: DecodedAddr::new(BankRef::new(0, (i % 4) as u32), i as u32, 0),
                },
                0
            ));
        }
        let mut done = Vec::new();
        for now in 0..100_000 {
            mc.tick(now, &mut done).unwrap();
            if mc.queued() == 0 {
                break;
            }
        }
        assert_eq!(mc.queued(), 0, "writes never drained");
        assert_eq!(mc.dram().stats().writes, 8);
    }

    /// Under subarray-parallel updates (PRACtical) a closed bank's ACT
    /// gate can release while the queued row's subarray still holds a
    /// deferred counter update. The wake must be that subarray gate —
    /// the one `issue_from` checks — not the next cycle.
    #[test]
    fn practical_wake_waits_for_the_subarray_gate() {
        let mut dram_cfg = DramConfig::tiny(MitigationConfig::practical(500));
        dram_cfg.geometry.subarrays_per_bank = 8;
        let mc_cfg = McConfig {
            page_policy: PagePolicy::Closed,
            ..McConfig::default()
        };
        let mut mc = MemoryController::new(DramDevice::new(dram_cfg), mc_cfg);
        let mut done = Vec::new();
        // ACT, RD and the close-page PRE of row 5 post a deferred
        // update on its subarray; row 6 shares that subarray.
        assert!(mc.enqueue(read(1, 0, 5), 0));
        let mut now = 0;
        while mc.dram().open_row(0, 0).is_some() || mc.dram().stats().activates == 0 {
            mc.tick(now, &mut done).unwrap();
            now += 1;
        }
        assert!(mc.enqueue(read(2, 0, 6), now));
        let row_gate = mc.dram().earliest_activate_row(0, 0, 6).unwrap();
        let bank_gate = mc.dram().earliest_activate(0, 0).unwrap();
        assert!(bank_gate < row_gate, "no deferred update in flight");
        // Tick past the bank gate: nothing can issue before the row gate.
        while now <= bank_gate {
            assert_eq!(mc.tick(now, &mut done).unwrap(), 0);
            now += 1;
        }
        assert_eq!(mc.next_wake(now - 1), Some(row_gate));
    }

    /// A starved front acts where normal scheduling would not: under
    /// strict close-page, a second hit on a row that already served its
    /// column issues at its column gate, ahead of the bank's close. The
    /// wake must be that column gate.
    #[test]
    fn starved_front_wake_is_its_own_command_gate() {
        let dram = DramDevice::new(DramConfig::tiny(MitigationConfig::baseline()));
        let cfg = McConfig {
            page_policy: PagePolicy::Closed,
            starvation_cycles: 10,
            ..McConfig::default()
        };
        let mut mc = MemoryController::new(dram, cfg);
        let mut done = Vec::new();
        assert!(mc.enqueue(read(1, 0, 5), 0));
        assert!(mc.enqueue(read(2, 0, 5), 0));
        let mut now = 0;
        while done.is_empty() {
            mc.tick(now, &mut done).unwrap();
            now += 1;
        }
        let column = mc.dram().earliest_column(0, 0, 5).unwrap();
        assert!(column < mc.dram().earliest_precharge(0, 0).unwrap());
        assert_eq!(mc.next_wake(now - 1), Some(column.max(now)));
    }
}
