//! Trace-driven out-of-order core model.
//!
//! Matches the paper's Table 3 frontend: 4 GHz, 4-wide, 256-entry ROB.
//! The model captures what matters for memory-system studies — memory-
//! level parallelism bounded by the ROB, and retirement blocking on the
//! oldest outstanding load:
//!
//! * **Fetch**: the simulation driver pushes instruction gaps and loads
//!   into the ROB while there is space ([`Core::rob_free`]); loads are
//!   sent to the memory controller at fetch time, so independent misses
//!   overlap.
//! * **Retire**: each DRAM cycle grants fractional retire credit
//!   (4 instructions x 4 GHz / 3 GHz DRAM clock = 16/3 per cycle); the
//!   head of the ROB must be complete to retire. Stores are posted at
//!   fetch and never enter the ROB.

use mopac_types::time::Cycle;
use std::collections::VecDeque;

/// Core parameters (Table 3 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreParams {
    /// Reorder-buffer capacity in instructions.
    pub rob_size: usize,
    /// Instructions retired (and fetched) per DRAM cycle.
    pub retire_per_dram_cycle: f64,
}

impl CoreParams {
    /// 4 GHz, 4-wide core on a 3 GHz DRAM clock.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            rob_size: 256,
            retire_per_dram_cycle: 16.0 / 3.0,
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A run of non-memory instructions.
    Instrs(u32),
    /// A load waiting for DRAM (1 instruction slot).
    Read { id: u64, done: bool },
}

/// One simulated core.
///
/// # Examples
///
/// ```
/// use mopac_cpu::core::{Core, CoreParams};
///
/// let mut core = Core::new(CoreParams::paper_default());
/// core.push_instrs(4);
/// core.push_read(42);
/// // The gap retires within one cycle's credit (16/3 instructions);
/// // then the outstanding load blocks the head.
/// assert_eq!(core.retire(), 4);
/// assert_eq!(core.retire(), 0);
/// core.on_complete(42);
/// assert_eq!(core.retire(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    params: CoreParams,
    rob: VecDeque<Slot>,
    rob_instrs: usize,
    credit: f64,
    retired: u64,
    stall_cycles: u64,
    finished_at: Option<Cycle>,
}

impl Core {
    /// Creates an idle core.
    #[must_use]
    pub fn new(params: CoreParams) -> Self {
        Self {
            params,
            rob: VecDeque::with_capacity(params.rob_size),
            rob_instrs: 0,
            credit: 0.0,
            retired: 0,
            stall_cycles: 0,
            finished_at: None,
        }
    }

    /// The core's parameters.
    #[must_use]
    pub fn params(&self) -> CoreParams {
        self.params
    }

    /// Free ROB capacity in instruction slots.
    #[must_use]
    pub fn rob_free(&self) -> usize {
        self.params.rob_size.saturating_sub(self.rob_instrs)
    }

    /// Total instructions retired.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles in which the core wanted to retire but could not (head
    /// load outstanding).
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// When the core crossed its instruction budget (set by
    /// [`Core::check_finished`]).
    #[must_use]
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// Pushes a run of non-memory instructions into the ROB.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the ROB lacks space.
    pub fn push_instrs(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        debug_assert!(self.rob_free() >= n as usize, "ROB overflow");
        self.rob.push_back(Slot::Instrs(n));
        self.rob_instrs += n as usize;
    }

    /// Pushes a load (already issued to the memory system) into the ROB.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the ROB lacks space.
    pub fn push_read(&mut self, id: u64) {
        debug_assert!(self.rob_free() >= 1, "ROB overflow");
        self.rob.push_back(Slot::Read { id, done: false });
        self.rob_instrs += 1;
    }

    /// Marks the load with `id` complete.
    pub fn on_complete(&mut self, id: u64) {
        for slot in &mut self.rob {
            if let Slot::Read { id: rid, done } = slot {
                if *rid == id {
                    *done = true;
                    return;
                }
            }
        }
        debug_assert!(false, "completion for unknown load {id}");
    }

    /// Advances one DRAM cycle of retirement; returns instructions
    /// retired this cycle.
    pub fn retire(&mut self) -> u64 {
        self.credit += self.params.retire_per_dram_cycle;
        let mut retired_now = 0u64;
        while self.credit >= 1.0 {
            match self.rob.front_mut() {
                Some(Slot::Instrs(n)) => {
                    let take = (*n).min(self.credit as u32);
                    *n -= take;
                    self.credit -= f64::from(take);
                    self.rob_instrs -= take as usize;
                    retired_now += u64::from(take);
                    if *n == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(Slot::Read { done: true, .. }) => {
                    self.rob.pop_front();
                    self.rob_instrs -= 1;
                    self.credit -= 1.0;
                    retired_now += 1;
                }
                Some(Slot::Read { done: false, .. }) => {
                    if retired_now == 0 {
                        self.stall_cycles += 1;
                    }
                    // Cap accumulated credit so a long stall does not
                    // turn into an unrealistic retire burst afterwards.
                    self.credit = self.credit.min(self.params.retire_per_dram_cycle);
                    self.retired += retired_now;
                    return retired_now;
                }
                None => {
                    self.credit = 0.0;
                    break;
                }
            }
        }
        self.retired += retired_now;
        retired_now
    }

    /// Whether a call to [`Core::retire`] would retire at least one
    /// instruction this cycle: the ROB head is a run of plain
    /// instructions or a completed load. A core whose head load is
    /// outstanding — or whose ROB is empty — makes no retirement
    /// progress until an external event (completion delivery, fetch)
    /// changes that, which is what lets an event-driven kernel skip it.
    #[must_use]
    pub fn retire_ready(&self) -> bool {
        matches!(
            self.rob.front(),
            Some(Slot::Instrs(_) | Slot::Read { done: true, .. })
        )
    }

    /// Advances `cycles` idle cycles in one step, producing exactly
    /// the state `cycles` consecutive [`Core::retire`] calls would have
    /// left behind on a core that cannot retire. Callers must only use
    /// this when [`Core::retire_ready`] is false (debug-asserted):
    ///
    /// * head load outstanding: each lockstep cycle executes
    ///   `credit = min(credit + r, r)`, which is exactly `r` after the
    ///   first stalled cycle, and counts one stall cycle — so the
    ///   per-cycle fold collapses to a closed form, bit-identically.
    /// * empty ROB: each lockstep cycle zeroes the credit.
    pub fn skip_idle(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert!(!self.retire_ready(), "skip_idle on a runnable core");
        match self.rob.front() {
            Some(Slot::Read { done: false, .. }) => {
                self.credit = self.params.retire_per_dram_cycle;
                self.stall_cycles += cycles;
            }
            None => self.credit = 0.0,
            Some(_) => {}
        }
    }

    /// A scalar model of this core's retirement while it only receives
    /// runs of plain instructions and no load completes: see
    /// [`RetireModel`].
    #[must_use]
    pub fn retire_model(&self) -> RetireModel {
        // Retirement stops at the first outstanding load, if any.
        let mut ready = 0;
        let mut stalled = false;
        for slot in &self.rob {
            match *slot {
                Slot::Instrs(n) => ready += n,
                Slot::Read { done: true, .. } => ready += 1,
                Slot::Read { done: false, .. } => {
                    stalled = true;
                    break;
                }
            }
        }
        RetireModel {
            rate: self.params.retire_per_dram_cycle,
            credit: self.credit,
            ready,
            stalled,
            retired: 0,
            stalls: 0,
        }
    }

    /// Brings the core to where the cycles `model` ran through leave
    /// it, in one pass: `model` started from [`Core::retire_model`] of
    /// this core, and `pushed` lists, in order, the nonempty runs of
    /// plain instructions pushed meanwhile (one [`Core::push_instrs`]
    /// call each). Retirement only takes from the ROB's front and pushes
    /// only append, so the ROB ends as the old slots followed by the
    /// pushed runs, less the first `model.retired` instructions — slot
    /// for slot what the cycle-by-cycle calls leave.
    pub fn catch_up(&mut self, model: &RetireModel, pushed: &[u32]) {
        let mut left = model.retired;
        while left > 0 {
            match self.rob.front_mut() {
                Some(Slot::Instrs(n)) => {
                    let take = u64::from(*n).min(left) as u32;
                    *n -= take;
                    self.rob_instrs -= take as usize;
                    left -= u64::from(take);
                    if *n == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(Slot::Read { done: true, .. }) => {
                    self.rob.pop_front();
                    self.rob_instrs -= 1;
                    left -= 1;
                }
                Some(Slot::Read { done: false, .. }) | None => break,
            }
        }
        for &n in pushed {
            let retired = u64::from(n).min(left) as u32;
            left -= u64::from(retired);
            self.push_instrs(n - retired);
        }
        debug_assert_eq!(left, 0, "the model retired past the ROB");
        self.credit = model.credit;
        self.retired += model.retired;
        self.stall_cycles += model.stalls;
    }

    /// Latches `finished_at` the first time the retired count crosses
    /// `budget`. Returns whether the core has finished.
    pub fn check_finished(&mut self, budget: u64, now: Cycle) -> bool {
        if self.finished_at.is_none() && self.retired >= budget {
            self.finished_at = Some(now);
        }
        self.finished_at.is_some()
    }
}

/// What [`Core::retire`] does, cycle by cycle, to a core whose ROB only
/// gains runs of plain instructions and whose outstanding loads stay
/// outstanding — the state of a core between two trace records — kept
/// as scalars: the retire credit, the instructions retirable ahead of
/// the first outstanding load, and whether such a load is present.
///
/// Retirement only subtracts whole instructions from the credit, and
/// subtracting an integer from an `f64` of at least that integer is
/// exact, so retiring `min(ready, floor(credit))` at once leaves the
/// credit bit-identical to the slot-by-slot walk. A driver uses it to
/// look ahead to the cycle a core next needs the rest of the system,
/// without touching the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetireModel {
    rate: f64,
    credit: f64,
    ready: u32,
    stalled: bool,
    /// Instructions retired since the model was taken.
    pub retired: u64,
    /// Stall cycles counted since the model was taken.
    pub stalls: u64,
}

impl RetireModel {
    /// A run of `n` plain instructions entered the ROB.
    pub fn push(&mut self, n: u32) {
        if !self.stalled {
            self.ready += n;
        }
    }

    /// One cycle of [`Core::retire`]; returns the instructions retired.
    pub fn retire(&mut self) -> u32 {
        self.credit += self.rate;
        let take = self.ready.min(self.credit as u32);
        self.credit -= f64::from(take);
        self.ready -= take;
        self.retired += u64::from(take);
        if self.credit >= 1.0 {
            // The walk reached the outstanding load (credit capped, a
            // stall cycle if nothing retired) or emptied the ROB
            // (credit dropped).
            if self.stalled {
                self.credit = self.credit.min(self.rate);
                self.stalls += u64::from(take == 0);
            } else {
                self.credit = 0.0;
            }
        }
        take
    }

    /// Whether an outstanding load heads the ROB, so nothing retires
    /// until it completes.
    #[must_use]
    pub fn head_stalled(&self) -> bool {
        self.stalled && self.ready == 0
    }
}

impl mopac_types::snapshot::Snapshottable for Core {
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        w.put_usize(self.rob.len());
        for slot in &self.rob {
            match *slot {
                Slot::Instrs(n) => {
                    w.put_u8(0);
                    w.put_u32(n);
                }
                Slot::Read { id, done } => {
                    w.put_u8(1);
                    w.put_u64(id);
                    w.put_bool(done);
                }
            }
        }
        w.put_usize(self.rob_instrs);
        w.put_f64(self.credit);
        w.put_u64(self.retired);
        w.put_u64(self.stall_cycles);
        w.put_opt_u64(self.finished_at);
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        let n = r.take_usize()?;
        self.rob.clear();
        for _ in 0..n {
            let slot = match r.take_u8()? {
                0 => Slot::Instrs(r.take_u32()?),
                1 => Slot::Read {
                    id: r.take_u64()?,
                    done: r.take_bool()?,
                },
                t => {
                    return Err(mopac_types::MopacError::snapshot(format!(
                        "unknown ROB slot tag {t}"
                    )))
                }
            };
            self.rob.push_back(slot);
        }
        self.rob_instrs = r.take_usize()?;
        if self.rob_instrs > self.params.rob_size {
            return Err(mopac_types::MopacError::snapshot(format!(
                "ROB holds {} instructions but capacity is {}",
                self.rob_instrs, self.params.rob_size
            )));
        }
        self.credit = r.take_f64()?;
        self.retired = r.take_u64()?;
        self.stall_cycles = r.take_u64()?;
        self.finished_at = r.take_opt_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Core {
        Core::new(CoreParams::paper_default())
    }

    #[test]
    fn retires_at_full_width_when_unblocked() {
        let mut c = core();
        c.push_instrs(200);
        let mut total = 0;
        for _ in 0..10 {
            total += c.retire();
        }
        // 10 cycles x 16/3 = 53.3 instructions.
        assert!((52..=54).contains(&total), "retired {total}");
    }

    #[test]
    fn blocks_on_outstanding_head_load() {
        let mut c = core();
        c.push_read(1);
        c.push_instrs(50);
        for _ in 0..5 {
            assert_eq!(c.retire(), 0);
        }
        assert_eq!(c.stall_cycles(), 5);
        c.on_complete(1);
        assert!(c.retire() > 0);
    }

    #[test]
    fn mlp_overlaps_independent_loads() {
        let mut c = core();
        // Two loads fetched together: both outstanding at once.
        c.push_read(1);
        c.push_read(2);
        c.on_complete(2); // younger returns first
        assert_eq!(c.retire(), 0); // head still blocked
        c.on_complete(1);
        // Both retire quickly now.
        assert_eq!(c.retire(), 2);
    }

    #[test]
    fn rob_occupancy_accounting() {
        let mut c = core();
        assert_eq!(c.rob_free(), 256);
        c.push_instrs(100);
        c.push_read(1);
        assert_eq!(c.rob_free(), 155);
        c.retire(); // retires 5 instructions
        assert_eq!(c.rob_free(), 160);
    }

    #[test]
    fn finish_latched_once() {
        let mut c = core();
        c.push_instrs(100);
        c.retire();
        assert!(!c.check_finished(100, 1));
        for now in 2..60 {
            c.retire();
            c.check_finished(100, now);
        }
        let first = c.finished_at().unwrap();
        c.check_finished(100, 999);
        assert_eq!(c.finished_at(), Some(first));
    }

    /// The scalar model retires what `Core::retire` retires, cycle by
    /// cycle, with a bit-identical credit and the same stall count —
    /// across stalls behind an outstanding load, completed loads and an
    /// emptied ROB — and `catch_up` from it leaves the core exactly as
    /// the cycle-by-cycle calls do, ROB slots included.
    #[test]
    fn retire_model_matches_retire() {
        let mut c = core();
        c.push_instrs(3);
        c.push_read(1);
        c.push_read(2);
        c.on_complete(1);
        c.push_instrs(7);
        c.push_read(3);
        c.push_instrs(40);
        let mut pushes = [2u32, 9, 0, 1, 5, 5, 0, 13].into_iter().cycle();
        let mut outstanding = vec![2, 3];
        for round in 0..4u64 {
            let mut twin = c.clone();
            let mut model = c.retire_model();
            let mut pushed = Vec::new();
            for cycle in 0..40 {
                let n = pushes.next().unwrap_or(0).min(c.rob_free() as u32);
                c.push_instrs(n);
                model.push(n);
                if n > 0 {
                    pushed.push(n);
                }
                assert_eq!(u64::from(model.retire()), c.retire(), "round {round}");
                assert_eq!(model.credit.to_bits(), c.credit.to_bits(), "round {round}");
                assert_eq!(
                    model.head_stalled(),
                    !c.retire_ready() && c.rob_free() < 256
                );
                if cycle % 13 == 12 {
                    twin.catch_up(&model, &pushed);
                    assert_eq!(format!("{twin:?}"), format!("{c:?}"), "round {round}");
                    model = c.retire_model();
                    pushed.clear();
                }
            }
            twin.catch_up(&model, &pushed);
            assert_eq!(format!("{twin:?}"), format!("{c:?}"), "round {round}");
            // A completion changes what retires; take a fresh model.
            c.on_complete(outstanding.remove(0));
            if c.rob_free() > 0 {
                c.push_read(10 + round);
                outstanding.push(10 + round);
            }
        }
        assert!(c.stall_cycles() > 0, "no stall was modelled");
    }

    #[test]
    fn credit_capped_after_stall() {
        let mut c = core();
        c.push_read(1);
        for _ in 0..100 {
            c.retire();
        }
        c.on_complete(1);
        c.push_instrs(200);
        // First cycle after the stall retires at most 1 + width.
        let burst = c.retire();
        assert!(burst <= 11, "burst {burst}");
    }
}
