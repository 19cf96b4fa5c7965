//! Passes over a workload's cells, the result digest, and the
//! correctness gate.

use crate::host::{CpuInstant, HostSpeed, Probe, Prober};
use crate::workload::{run_cell, Cell, CellOutcome, CellResult, Workload};

/// A digest of a pass's simulated results: per-field totals plus a
/// hash over every cell's fields in cell order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// DRAM cycles.
    pub cycles: u64,
    /// ACT commands.
    pub acts: u64,
    /// REF commands.
    pub refs: u64,
    /// ALERT assertions.
    pub alerts: u64,
    /// Rows mitigated.
    pub mitigations: u64,
    /// Oracle violations.
    pub violations: u64,
    /// Corrupted reads after ECC.
    pub corrupted_reads: u64,
    /// FNV-1a over every cell's fields (failed cells hash their
    /// position).
    pub hash: u64,
}

impl Digest {
    /// Digests `results` in order.
    #[must_use]
    pub fn of<'a>(results: impl IntoIterator<Item = Option<&'a CellResult>>) -> Self {
        let mut d = Digest {
            hash: 0xCBF2_9CE4_8422_2325,
            ..Digest::default()
        };
        let mix = |d: &mut Digest, v: u64| {
            for b in v.to_le_bytes() {
                d.hash = (d.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        for (i, r) in results.into_iter().enumerate() {
            let Some(r) = r else {
                mix(&mut d, u64::MAX - i as u64);
                continue;
            };
            d.cycles += r.cycles;
            d.acts += r.acts;
            d.refs += r.refs;
            d.alerts += r.alerts;
            d.mitigations += r.mitigations;
            d.violations += r.violations;
            d.corrupted_reads += r.corrupted_reads;
            for v in [
                r.cycles,
                r.acts,
                r.refs,
                r.alerts,
                r.mitigations,
                r.violations,
                r.corrupted_reads,
            ] {
                mix(&mut d, v);
            }
        }
        d
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycles\": {}, \"acts\": {}, \"refs\": {}, \"alerts\": {}, \"mitigations\": {}, \
             \"violations\": {}, \"corrupted_reads\": {}, \"hash\": \"{:016x}\"}}",
            self.cycles,
            self.acts,
            self.refs,
            self.alerts,
            self.mitigations,
            self.violations,
            self.corrupted_reads,
            self.hash
        )
    }
}

/// Host time between two probes of a probed pass.
pub const SEGMENT_S: f64 = 0.5;

/// One pass: every cell of a workload, back to back. Host times are
/// thread CPU seconds ([`CpuInstant`]).
#[derive(Debug)]
pub struct Pass {
    /// Per-cell outcomes, in cell order.
    pub outcomes: Vec<CellOutcome>,
    /// From the first construction to the last result (host-speed
    /// probes excluded).
    pub wall_s: f64,
    /// Host-speed samples taken during the pass (empty for an unprobed
    /// pass).
    pub probes: Vec<Probe>,
}

impl Pass {
    /// Runs every cell once, on this thread.
    #[must_use]
    pub fn run(cells: &[Cell], traced: bool) -> Self {
        let t = CpuInstant::now();
        let outcomes: Vec<_> = cells.iter().map(|c| run_cell(c, traced)).collect();
        Self {
            outcomes,
            wall_s: t.elapsed_s(),
            probes: Vec::new(),
        }
    }

    /// Like [`Pass::run`], untraced, with a host-speed sample before the
    /// first cell and after every segment of about [`SEGMENT_S`] (see
    /// [`crate::host`]).
    #[must_use]
    pub fn run_probed(cells: &[Cell], prober: &mut Prober) -> Self {
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut probes = vec![prober.sample()];
        let mut wall_s = 0.0;
        let mut t = CpuInstant::now();
        for (i, cell) in cells.iter().enumerate() {
            outcomes.push(run_cell(cell, false));
            let elapsed = t.elapsed_s();
            if elapsed >= SEGMENT_S || i + 1 == cells.len() {
                wall_s += elapsed;
                probes.push(prober.sample());
                t = CpuInstant::now();
            }
        }
        Self {
            outcomes,
            wall_s,
            probes,
        }
    }

    /// Host seconds spent constructing traces, systems, attack runs and
    /// restore targets.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.timing.setup_s()).sum()
    }

    /// Host seconds spent inside run calls.
    #[must_use]
    pub fn run_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.timing.run_s).sum()
    }

    /// [`Pass::wall_s`] at the reference host: construction rescaled
    /// by the memory factor, everything else by the compute factor.
    #[must_use]
    pub fn scaled_wall_s(&self, speed: &HostSpeed) -> f64 {
        let setup = self.setup_s();
        setup * speed.memory + (self.wall_s - setup) * speed.compute
    }

    /// Simulated DRAM cycles over every cell.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|r| r.cycles)
            .sum()
    }

    /// Simulated cycles per host second inside run calls.
    #[must_use]
    pub fn sim_cycles_per_s(&self) -> f64 {
        self.sim_cycles() as f64 / self.run_s().max(1e-9)
    }

    /// The pass digest.
    #[must_use]
    pub fn digest(&self) -> Digest {
        Digest::of(self.outcomes.iter().map(|o| o.result.as_ref().ok()))
    }

    /// The cells that fail the correctness gate, with the reason:
    /// the cell errored; a tracking engine let the oracle see a
    /// violation on `attack_battery`; ECC-on corrupted more reads than
    /// ECC-off at the same seed; or a traced cell dropped trace events.
    #[must_use]
    pub fn failures(&self, workload: Workload, cells: &[Cell]) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, (cell, o)) in cells.iter().zip(&self.outcomes).enumerate() {
            let r = match &o.result {
                Ok(r) => r,
                Err(e) => {
                    out.push((i, format!("{}: {e}", cell.label)));
                    continue;
                }
            };
            if workload == Workload::AttackBattery && cell.tracks() && r.violations > 0 {
                out.push((
                    i,
                    format!("{}: {} oracle violations", cell.label, r.violations),
                ));
            }
            if let Some(j) = cell.ecc_pair_of {
                if let Some(Ok(off)) = self.outcomes.get(j).map(|o| &o.result) {
                    if r.corrupted_reads > off.corrupted_reads {
                        out.push((
                            i,
                            format!(
                                "{}: ECC-on corrupted {} reads vs {} ECC-off",
                                cell.label, r.corrupted_reads, off.corrupted_reads
                            ),
                        ));
                    }
                }
            }
            if let Some(cap) = &o.capture {
                if cap.counters.events_dropped > 0 {
                    out.push((
                        i,
                        format!(
                            "{}: trace ring dropped {} events",
                            cell.label, cap.counters.events_dropped
                        ),
                    ));
                }
            }
        }
        out
    }
}
