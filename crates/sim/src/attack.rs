//! The attack driver (Sections 2.1 and 7).
//!
//! Drives an [`AttackPattern`] through the memory controller at maximum
//! rate — close-page policy, a deep window of outstanding requests, no
//! instruction gaps — measuring activation throughput, ALERT rate, and
//! security-oracle violations.

use mopac::config::MitigationConfig;
use mopac_dram::device::{DramConfig, DramDevice, DramStats};
use mopac_dram::flip::{FlipPlaneConfig, FlipStats};
use mopac_memctrl::controller::{AccessKind, McConfig, MemRequest, MemoryController, PagePolicy};
use mopac_types::error::{MopacError, MopacResult};
use mopac_types::geometry::DramGeometry;
use mopac_types::obs::{MetricsSink, MetricsSnapshot, SinkConfig};
use mopac_types::time::Cycle;
use mopac_workloads::attack::AttackPattern;

/// Attack-run configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// DRAM organization.
    pub geometry: DramGeometry,
    /// Mitigation under attack.
    pub mitigation: MitigationConfig,
    /// How many DRAM cycles to run.
    pub cycles: Cycle,
    /// Outstanding requests the attacker keeps in flight per
    /// sub-channel.
    pub window: usize,
    /// Enable the Rowhammer oracle (on by default — attacks are the
    /// security tests).
    pub enable_checker: bool,
    /// Seed.
    pub seed: u64,
    /// Victim-data bit-flip plane (`None`, the default, disables it and
    /// keeps the run bit-identical to a plane-less simulator).
    pub flip: Option<FlipPlaneConfig>,
}

impl AttackConfig {
    /// Default attack setup on the paper's geometry.
    #[must_use]
    pub fn new(mitigation: MitigationConfig, cycles: Cycle) -> Self {
        Self {
            geometry: DramGeometry::ddr5_32gb(),
            mitigation,
            cycles,
            window: 32,
            enable_checker: true,
            seed: 0xA77AC4,
            flip: None,
        }
    }
}

/// Results of an attack run.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Total activations achieved by the attacker.
    pub activations: u64,
    /// Cycles simulated.
    pub cycles: Cycle,
    /// DRAM statistics (alerts, RFMs, mitigations...).
    pub dram: DramStats,
    /// Security-oracle violations (must be 0 for a secure config).
    pub violations: u64,
    /// Victim-data flip-plane statistics (all-zero when the plane is
    /// disabled). `corrupted_reads` only reflects victim rows the run
    /// actually read — call [`AttackRun::verify_readback`] before
    /// finishing to model the attacker's post-hammer verification pass.
    pub flip: FlipStats,
}

impl AttackResult {
    /// The attack's real verdict: did any read return corrupted data?
    /// Oracle violations say the *mitigation* failed; this says the
    /// *attack* succeeded against the modeled cells (after ECC).
    #[must_use]
    pub fn attack_success(&self) -> bool {
        self.flip.attack_success()
    }

    /// Activations per ALERT (the `N` in the slowdown model
    /// `7 / (N + 7)`), or `None` if no ALERT fired.
    #[must_use]
    pub fn acts_per_alert(&self) -> Option<f64> {
        let alerts = self.dram.alerts();
        (alerts > 0).then(|| self.activations as f64 / alerts as f64)
    }

    /// Activation throughput in ACTs per cycle.
    #[must_use]
    pub fn act_throughput(&self) -> f64 {
        self.activations as f64 / self.cycles.max(1) as f64
    }

    /// Throughput loss relative to a reference run (typically the same
    /// pattern against an inert mitigation).
    #[must_use]
    pub fn throughput_loss_vs(&self, reference: &AttackResult) -> f64 {
        1.0 - self.act_throughput() / reference.act_throughput()
    }
}

/// One attack configuration per registered engine that tracks
/// activations (the baseline has no security claim to test), at
/// threshold `t_rh`. Callers can override the geometry with struct
/// update syntax, as the tests do.
#[must_use]
pub fn attack_suite_configs(t_rh: u64, cycles: Cycle) -> Vec<(&'static str, AttackConfig)> {
    mopac::EngineRegistry::builtin()
        .specs()
        .iter()
        .filter(|s| s.tracks())
        .map(|s| (s.name, AttackConfig::new((s.preset)(t_rh), cycles)))
        .collect()
}

/// Runs `pattern` against the configured mitigation at maximum rate.
///
/// # Errors
///
/// Propagates [`mopac_types::MopacError::TimingProtocol`] if the
/// controller drives the device into an illegal sequence (never in a
/// healthy configuration).
pub fn run_attack(cfg: &AttackConfig, pattern: &mut dyn AttackPattern) -> MopacResult<AttackResult> {
    run_attack_inner(cfg, pattern, None).map(|(r, _)| r)
}

/// Like [`run_attack`] but with the observability sink enabled:
/// returns the attack result together with a [`MetricsSnapshot`]
/// carrying the protocol trace ring, command histograms (inter-ACT
/// gap, ABO service time, per-bank SRQ occupancy) and all registry
/// counters. The simulation itself is bit-identical to [`run_attack`]
/// — the sink only records alongside it.
///
/// # Errors
///
/// See [`run_attack`]; additionally returns
/// [`MopacError::Internal`] if the enabled sink produced no snapshot
/// (unreachable in practice).
pub fn run_attack_instrumented(
    cfg: &AttackConfig,
    pattern: &mut dyn AttackPattern,
    sink_cfg: SinkConfig,
) -> MopacResult<(AttackResult, MetricsSnapshot)> {
    let (result, snapshot) = run_attack_inner(cfg, pattern, Some(sink_cfg))?;
    let snapshot = snapshot.ok_or_else(|| {
        MopacError::internal("instrumented attack run produced no metrics snapshot")
    })?;
    Ok((result, snapshot))
}

/// Section tag for an [`AttackRun`] snapshot ("ATK\x01").
const SNAP_ATTACK: u32 = 0x4154_4B01;

/// A resumable attack run: the same maximum-rate drive loop as
/// [`run_attack`], but steppable in cycle increments and snapshottable
/// at any step boundary.
///
/// The replay tooling (`alert_replay`) uses this to re-materialize the
/// machine state shortly before a trace-ring event and re-run the
/// window around it: [`AttackRun::snapshot`] captures the controller,
/// device, mitigation engine, metrics sink, pattern cursor, and drive
/// loop state; [`AttackRun::restore`] into a freshly constructed run of
/// the same configuration continues bit-identically.
pub struct AttackRun<'p> {
    cfg: AttackConfig,
    mc: MemoryController,
    pattern: &'p mut dyn AttackPattern,
    done: Vec<mopac_memctrl::controller::Completion>,
    id: u64,
    now: Cycle,
}

impl std::fmt::Debug for AttackRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackRun")
            .field("pattern", &self.pattern.name())
            .field("now", &self.now)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<'p> AttackRun<'p> {
    /// Builds the run (device + controller) without executing a cycle.
    #[must_use]
    pub fn new(cfg: &AttackConfig, pattern: &'p mut dyn AttackPattern) -> Self {
        let dram = DramDevice::new(DramConfig {
            geometry: cfg.geometry.channel_view(),
            mitigation: cfg.mitigation,
            enable_checker: cfg.enable_checker,
            seed: cfg.seed,
            channel: 0,
            flip: cfg.flip,
        });
        let mc = MemoryController::new(
            dram,
            McConfig {
                // Threat model: the attacker picks the policy that suits
                // the attack; close-page turns every access into an
                // activation.
                page_policy: PagePolicy::Closed,
                read_queue_capacity: cfg.window,
                write_queue_capacity: 8,
                starvation_cycles: 100_000,
                seed: cfg.seed ^ 0xF00,
            },
        );
        Self {
            cfg: cfg.clone(),
            mc,
            pattern,
            done: Vec::new(),
            id: 0,
            now: 0,
        }
    }

    /// Enables the observability sink (call before the first step).
    pub fn enable_metrics(&mut self, sink_cfg: SinkConfig) {
        self.mc.enable_metrics(sink_cfg);
    }

    /// The next cycle to execute.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configured run length.
    #[must_use]
    pub fn end(&self) -> Cycle {
        self.cfg.cycles
    }

    /// Runs cycles `[now, end)` (clamped to the configured length).
    ///
    /// Event-driven: once the window is full the refill is a no-op, so
    /// after each tick the run jumps to the controller's next wake
    /// ([`MemoryController::next_wake`], never late) and accounts the
    /// skipped no-op ticks in bulk. The jump is clamped at `end`, so
    /// any sequence of calls — `run_until(now + 1)` in lockstep
    /// included — reaches the same state at every boundary.
    ///
    /// # Errors
    ///
    /// See [`run_attack`].
    pub fn run_until(&mut self, end: Cycle) -> MopacResult<()> {
        let end = end.min(self.cfg.cycles);
        while self.now < end {
            let now = self.now;
            // Keep the window full.
            while self.mc.queued() < self.cfg.window {
                let target = self.pattern.next_target();
                if !self.mc.enqueue(
                    MemRequest {
                        id: self.id,
                        kind: AccessKind::Read,
                        addr: target,
                    },
                    now,
                ) {
                    break;
                }
                self.id += 1;
            }
            self.done.clear();
            self.mc.tick(now, &mut self.done)?;
            self.now += 1;
            if self.mc.queued() >= self.cfg.window {
                if let Some(wake) = self.mc.next_wake(now) {
                    let target = wake.min(end);
                    if target > self.now {
                        self.mc.note_idle_cycles(self.now, target - self.now);
                        self.now = target;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs to the configured end and reports the result.
    ///
    /// # Errors
    ///
    /// See [`run_attack`].
    pub fn finish(mut self) -> MopacResult<AttackResult> {
        self.run_until(self.cfg.cycles)?;
        Ok(self.result())
    }

    /// The result as of the cycles executed so far.
    #[must_use]
    pub fn result(&self) -> AttackResult {
        AttackResult {
            activations: self.mc.dram().stats().activates,
            cycles: self.now,
            dram: self.mc.dram().stats(),
            violations: self.mc.dram().violations(),
            flip: self.mc.dram().flip_stats(),
        }
    }

    /// The attacker's post-hammer verification pass: reads back every
    /// victim row holding flipped bits through the ECC path, so flips
    /// the hammer kernel never touched become *observed* corruption in
    /// [`AttackResult::flip`]. No-op when the flip plane is disabled.
    pub fn verify_readback(&mut self) {
        self.mc.dram_mut().flip_readback_sweep();
    }

    /// The device under the controller (flip-plane inspection in
    /// tests).
    #[must_use]
    pub fn dram(&self) -> &DramDevice {
        self.mc.dram()
    }

    /// Drains the metrics sink into a merged [`MetricsSnapshot`] (see
    /// [`run_attack_instrumented`]); `None` when metrics are disabled.
    pub fn metrics_snapshot(&self, sink_cfg: SinkConfig) -> Option<MetricsSnapshot> {
        if !self.mc.metrics().is_enabled() {
            return None;
        }
        crate::shard::metrics_snapshot(
            std::slice::from_ref(&self.mc),
            MetricsSink::enabled(sink_cfg),
            self.now,
        )
    }

    /// Serializes the full run state at the current step boundary.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        use mopac_types::snapshot::Snapshottable;
        let mut w = mopac_types::snapshot::SnapshotWriter::new();
        w.begin_section(SNAP_ATTACK);
        w.put_u64(self.now);
        w.put_u64(self.id);
        self.mc.save_state(&mut w);
        self.pattern.save_state(&mut w);
        w.end_section();
        w.finish()
    }

    /// Restores state captured by [`AttackRun::snapshot`] into a run
    /// freshly constructed with the same configuration and pattern.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on corrupt input or a
    /// configuration mismatch.
    pub fn restore(&mut self, bytes: &[u8]) -> MopacResult<()> {
        use mopac_types::snapshot::Snapshottable;
        let mut r = mopac_types::snapshot::SnapshotReader::new(bytes)?;
        r.begin_section(SNAP_ATTACK)?;
        self.now = r.take_u64()?;
        self.id = r.take_u64()?;
        self.mc.load_state(&mut r)?;
        self.pattern.load_state(&mut r)?;
        r.end_section()?;
        mopac_types::snapshot::expect_exhausted(&r)
    }
}

fn run_attack_inner(
    cfg: &AttackConfig,
    pattern: &mut dyn AttackPattern,
    metrics: Option<SinkConfig>,
) -> MopacResult<(AttackResult, Option<MetricsSnapshot>)> {
    let mut run = AttackRun::new(cfg, pattern);
    if let Some(sink_cfg) = metrics {
        run.enable_metrics(sink_cfg);
    }
    run.run_until(cfg.cycles)?;
    let snapshot = metrics.and_then(|sink_cfg| run.metrics_snapshot(sink_cfg));
    Ok((run.result(), snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopac_types::geometry::BankRef;
    use mopac_workloads::attack::{DoubleSidedHammer, SrqFillAttack};

    fn tiny(mit: MitigationConfig, cycles: Cycle) -> AttackConfig {
        AttackConfig {
            geometry: DramGeometry::tiny(),
            ..AttackConfig::new(mit, cycles)
        }
    }

    #[test]
    fn double_sided_on_prac_never_violates() {
        let cfg = tiny(MitigationConfig::prac(500), 400_000);
        let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let r = run_attack(&cfg, &mut p).unwrap();
        assert_eq!(r.violations, 0);
        assert!(r.dram.alerts() > 0, "attack never triggered ALERT");
        assert!(r.dram.mitigations > 0);
    }

    #[test]
    fn double_sided_on_broken_config_violates() {
        // Failure injection: ATH far above T_RH must let the attack win.
        let broken = MitigationConfig::prac(500).with_alert_threshold(50_000);
        let cfg = tiny(broken, 400_000);
        let mut p = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let r = run_attack(&cfg, &mut p).unwrap();
        assert!(r.violations > 0, "oracle should have caught the attack");
    }

    #[test]
    fn srq_fill_forces_alerts_on_mopac_d() {
        let mit = MitigationConfig::mopac_d(500)
            .with_chips(1)
            .with_drain_on_ref(0);
        let cfg = tiny(mit, 300_000);
        let mut p = SrqFillAttack::new(BankRef::new(0, 0), 512);
        let r = run_attack(&cfg, &mut p).unwrap();
        assert_eq!(r.violations, 0);
        assert!(r.dram.alerts_srq_full > 0);
        // Expected pace: one ALERT per ~(drained 5) / p = 40 ACTs, with
        // some slack for refresh interference.
        let per = r.acts_per_alert().unwrap();
        assert!((20.0..90.0).contains(&per), "ACTs per ALERT {per}");
    }

    #[test]
    fn restored_attack_run_is_bit_identical() {
        let cfg = tiny(MitigationConfig::mopac_c(500), 120_000);
        let mut p_ref = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let reference = run_attack(&cfg, &mut p_ref).unwrap();

        let mut p_a = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let mut a = AttackRun::new(&cfg, &mut p_a);
        a.run_until(50_000).unwrap();
        let snap = a.snapshot();

        let mut p_b = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let mut b = AttackRun::new(&cfg, &mut p_b);
        b.restore(&snap).unwrap();
        assert_eq!(b.now(), 50_000);
        let resumed = b.finish().unwrap();

        assert_eq!(resumed.activations, reference.activations);
        assert_eq!(resumed.violations, reference.violations);
        assert_eq!(resumed.dram, reference.dram);
    }

    #[test]
    fn throughput_loss_positive_under_alerts() {
        let base_cfg = tiny(MitigationConfig::baseline(), 150_000);
        let mut p0 = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let base = run_attack(&base_cfg, &mut p0).unwrap();
        let cfg = tiny(MitigationConfig::mopac_c(500), 150_000);
        let mut p1 = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
        let hit = run_attack(&cfg, &mut p1).unwrap();
        assert!(hit.throughput_loss_vs(&base) > 0.0);
    }
}
