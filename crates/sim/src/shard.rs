//! Per-channel controller set.
//!
//! A multi-channel topology is simulated as one independent
//! [`MemoryController`] (owning its [`DramDevice`]) per channel: DDR
//! channels share no command bus, no timing gates, no ALERT wiring and
//! no mitigation state. [`ChannelSet`] owns the per-channel controllers,
//! ticks them serially in channel order, and exposes the merged views
//! the system layer needs (wake, stats, idle accounting).
//!
//! Determinism is structural: every channel's controller is a
//! sequential deterministic machine touching only its own state (RNG
//! streams, metrics sinks, trace rings included), and every merge —
//! completions, stats, metrics — runs in channel-index order.
//!
//! [`DramDevice`]: mopac_dram::device::DramDevice

use mopac_memctrl::controller::{AccessKind, Completion, McStats, MemRequest, MemoryController};
use mopac_types::error::MopacResult;
use mopac_types::time::Cycle;

/// The per-channel memory controllers of one system, ticked serially
/// in channel order.
pub struct ChannelSet {
    mcs: Vec<MemoryController>,
}

impl ChannelSet {
    /// Wraps per-channel controllers (channel `i` at index `i`).
    #[must_use]
    pub fn new(mcs: Vec<MemoryController>) -> Self {
        assert!(!mcs.is_empty(), "a system needs at least one channel");
        Self { mcs }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.mcs.len()
    }

    /// One channel's controller.
    #[must_use]
    pub fn channel(&self, ch: u32) -> &MemoryController {
        &self.mcs[ch as usize]
    }

    /// Mutable access to one channel's controller (fault hooks,
    /// restore).
    pub fn channel_mut(&mut self, ch: u32) -> &mut MemoryController {
        &mut self.mcs[ch as usize]
    }

    /// Iterates the controllers in channel order.
    pub fn iter(&self) -> impl Iterator<Item = &MemoryController> {
        self.mcs.iter()
    }

    /// Iterates the controllers mutably in channel order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut MemoryController> {
        self.mcs.iter_mut()
    }

    /// Ticks every channel for cycle `now`, appending finished reads to
    /// `out` grouped by ascending channel (within a channel, the
    /// controller's own issue order). Returns the total commands
    /// issued.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-channel tick error.
    pub fn tick_all(&mut self, now: Cycle, out: &mut Vec<Completion>) -> MopacResult<u32> {
        let mut issued = 0;
        for mc in &mut self.mcs {
            issued += mc.tick(now, out)?;
        }
        Ok(issued)
    }

    /// Earliest wake across channels ([`MemoryController::next_wake`]).
    #[must_use]
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        self.mcs.iter().filter_map(|mc| mc.next_wake(now)).min()
    }

    /// Bulk idle-stat compensation on every channel
    /// ([`MemoryController::note_idle_cycles`]).
    pub fn note_idle_cycles(&mut self, from: Cycle, cycles: u64) {
        for mc in &mut self.mcs {
            mc.note_idle_cycles(from, cycles);
        }
    }

    /// Total queued requests across channels.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.mcs.iter().map(MemoryController::queued).sum()
    }

    /// Whether channel `ch` can accept a request on sub-channel `sc`.
    #[must_use]
    pub fn can_accept(&self, ch: u32, sc: u32, kind: AccessKind) -> bool {
        self.mcs[ch as usize].can_accept(sc, kind)
    }

    /// Enqueues onto the request's channel (`req.addr.bank.channel`).
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        self.mcs[req.addr.bank.channel as usize].enqueue(req, now)
    }

    /// Merged controller statistics (field-wise sums; the latency mean
    /// of the merged struct is read-count weighted).
    #[must_use]
    pub fn stats(&self) -> McStats {
        let mut total = McStats::default();
        for mc in &self.mcs {
            total.accumulate(&mc.stats());
        }
        total
    }

    /// Merged device statistics across channels.
    #[must_use]
    pub fn dram_stats(&self) -> mopac_dram::device::DramStats {
        let mut total = mopac_dram::device::DramStats::default();
        for mc in &self.mcs {
            total.accumulate(&mc.dram().stats());
        }
        total
    }

    /// Merged mitigation-engine statistics across channels.
    #[must_use]
    pub fn mitigation_stats(&self) -> mopac::bank::MitigationStats {
        let mut total = mopac::bank::MitigationStats::default();
        for mc in &self.mcs {
            total.accumulate(&mc.dram().mitigation_stats());
        }
        total
    }

    /// Total Rowhammer-oracle violations across channels.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.mcs.iter().map(|mc| mc.dram().violations()).sum()
    }

    /// Total REF commands executed across channels (the
    /// `run_until_refs` pause currency).
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.mcs.iter().map(|mc| mc.dram().stats().refreshes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopac::config::MitigationConfig;
    use mopac_dram::device::{DramConfig, DramDevice};
    use mopac_memctrl::controller::McConfig;
    use mopac_types::addr::DecodedAddr;
    use mopac_types::geometry::{BankRef, DramGeometry};

    fn set(channels: u32) -> ChannelSet {
        let geom = DramGeometry {
            channels,
            ..DramGeometry::tiny()
        };
        let mcs = (0..channels)
            .map(|ch| {
                let dram = DramDevice::new(DramConfig {
                    geometry: geom.channel_view(),
                    mitigation: MitigationConfig::prac(500),
                    enable_checker: false,
                    seed: 0xD0_5E_ED ^ u64::from(ch),
                    channel: ch,
                    flip: None,
                });
                MemoryController::new(dram, McConfig::default())
            })
            .collect();
        ChannelSet::new(mcs)
    }

    #[test]
    fn completions_merge_in_channel_order() {
        // Keep both channels busy with row-conflict traffic; every
        // completed read is reported exactly once, and within a cycle
        // the completions of channel 0 precede those of channel 1.
        let mut cs = set(2);
        let mut done = Vec::new();
        let mut id = 0u64;
        for now in 0..6000 {
            for ch in 0..2u32 {
                if cs.can_accept(ch, 0, AccessKind::Read) {
                    id += 1;
                    let addr = DecodedAddr::new(
                        BankRef::on_channel(ch, 0, (id % 4) as u32),
                        (id * 37 % 701) as u32,
                        0,
                    );
                    cs.enqueue(
                        MemRequest {
                            id: (u64::from(ch) << 32) | id,
                            kind: AccessKind::Read,
                            addr,
                        },
                        now,
                    );
                }
            }
            let base = done.len();
            cs.tick_all(now, &mut done).unwrap();
            let channels: Vec<u64> = done[base..].iter().map(|c| c.id >> 32).collect();
            assert!(channels.windows(2).all(|w| w[0] <= w[1]), "cycle {now}: {channels:?}");
        }
        let stats = cs.stats();
        assert!(stats.reads_done > 0, "no reads completed");
        assert_eq!(done.len() as u64, stats.reads_done);
    }

    #[test]
    fn merged_stats_sum_channels() {
        let cs = {
            let mut cs = set(3);
            let mut done = Vec::new();
            let mut id = 0;
            for now in 0..2000 {
                for ch in 0..3 {
                    id += 1;
                    let addr =
                        DecodedAddr::new(BankRef::on_channel(ch, 0, 0), (id % 64) as u32, 0);
                    cs.enqueue(
                        MemRequest {
                            id,
                            kind: AccessKind::Read,
                            addr,
                        },
                        now,
                    );
                }
                cs.tick_all(now, &mut done).unwrap();
            }
            cs
        };
        let per_channel: u64 = cs.iter().map(|mc| mc.stats().reads_done).sum();
        assert_eq!(cs.stats().reads_done, per_channel);
        let refs: u64 = cs.iter().map(|mc| mc.dram().stats().refreshes).sum();
        assert_eq!(cs.refreshes(), refs);
    }
}
