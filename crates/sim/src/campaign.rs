//! Deterministic parallel campaign driver.
//!
//! Experiment campaigns are matrices of independent cells (mitigation ×
//! fault, workload × config, …). [`ParallelCampaign`] fans the cells out
//! across worker threads — each cell still runs inside the panic-
//! isolated, timeout-guarded [`IsolatedRunner`] — while keeping the
//! output *bit-identical* to a sequential run:
//!
//! * **Seeding** — each cell's seed is derived from the campaign master
//!   seed and the cell *index* ([`DetRng::fork`]), never from thread
//!   identity or scheduling order.
//! * **Reduction** — workers deposit results into per-index slots; the
//!   submitting thread commits them to the caller's sink strictly in
//!   submission order, as soon as the next index is ready. A campaign
//!   killed mid-flight therefore still persists a clean prefix, and the
//!   committed rows are byte-identical at any thread count.
//!
//! Determinism holds as long as the cells themselves are deterministic
//! functions of `(cell, seed, attempt)`: the only wall-clock-dependent
//! paths are the runner's timeout and panic-retry, which change the
//! reported status for a cell that genuinely times out. Sinks that want
//! byte-identical output must not record wall-clock fields (e.g.
//! [`RunReport::elapsed`]).

use crate::experiment::build_traces;
use crate::fault::{FaultKind, FaultPlan};
use crate::runner::{IsolatedRunner, RunReport, RunStatus};
use crate::system::{RunResult, System, SystemConfig};
use mopac::config::MitigationConfig;
use mopac_types::geometry::DramGeometry;
use mopac_types::rng::DetRng;
use mopac_types::MopacResult;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Worker-count default: the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Recovers a usable guard from a poisoned lock: campaign state is
/// plain data (slots of reports), valid even if a panicking thread was
/// holding the mutex.
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A deterministic parallel fan-out over independent experiment cells.
#[derive(Debug, Clone)]
pub struct ParallelCampaign {
    runner: IsolatedRunner,
    threads: usize,
    master_seed: u64,
}

impl ParallelCampaign {
    /// A campaign with the default isolated runner and worker count.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self {
            runner: IsolatedRunner::default(),
            threads: default_threads(),
            master_seed,
        }
    }

    /// Replaces the per-cell isolated runner (timeout / retry policy).
    #[must_use]
    pub fn with_runner(mut self, runner: IsolatedRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Overrides the worker count (`0` restores the default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        self
    }

    /// The worker count this campaign will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The deterministic seed for cell `idx`: a function of the master
    /// seed and the index only, independent of thread count and order.
    #[must_use]
    pub fn cell_seed(&self, idx: usize) -> u64 {
        DetRng::from_seed(self.master_seed).fork(idx as u64).next_u64()
    }

    /// Runs every cell, in parallel, committing each [`RunReport`] to
    /// `sink` strictly in cell order (index 0, 1, 2, …) as soon as that
    /// index has finished. `work` receives the cell, its derived seed,
    /// and the runner's attempt index; `label` names the cell for the
    /// runner's diagnostics.
    ///
    /// The `Clone + 'static` bounds come from [`IsolatedRunner::run`]:
    /// a timed-out attempt's thread outlives the call, so each attempt
    /// owns its inputs.
    pub fn run<C, T, L, F, S>(&self, cells: &[C], label: L, work: F, mut sink: S)
    where
        C: Clone + Send + Sync + 'static,
        T: Send + 'static,
        L: Fn(&C) -> String + Sync,
        F: Fn(C, u64, u32) -> mopac_types::MopacResult<T> + Clone + Send + Sync + 'static,
        S: FnMut(usize, RunReport<T>),
    {
        let n = cells.len();
        if n == 0 {
            return;
        }
        let workers = self.threads.min(n).max(1);
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<RunReport<T>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let ready = Condvar::new();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let cell = cells[idx].clone();
                    let seed = self.cell_seed(idx);
                    let name = label(&cell);
                    let w = work.clone();
                    let report = self
                        .runner
                        .run(&name, move |attempt| w(cell.clone(), seed, attempt));
                    lock_unpoisoned(&slots)[idx] = Some(report);
                    ready.notify_all();
                });
            }
            // In-order commit: index i is handed to the sink the moment
            // it (and everything before it) has finished.
            for idx in 0..n {
                let report = {
                    let mut guard = lock_unpoisoned(&slots);
                    loop {
                        if let Some(r) = guard[idx].take() {
                            break r;
                        }
                        guard = match ready.wait(guard) {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                    }
                };
                sink(idx, report);
            }
        });
    }
}

/// CSV schema of the fault-injection campaign, shared by the
/// `fault_campaign` binary and the determinism test.
pub const FAULT_CAMPAIGN_HEADERS: [&str; 11] = [
    "mitigation",
    "fault",
    "status",
    "attempts",
    "violations",
    "faults_applied",
    "trace_corruptions",
    "alerts",
    "rfms",
    "cycles",
    "detail",
];

/// One (mitigation × fault) cell of the fault-injection campaign.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Mitigation label for reports.
    pub mitigation_name: &'static str,
    /// Mitigation under test.
    pub mitigation: MitigationConfig,
    /// Fault-schedule label for reports.
    pub fault_name: &'static str,
    /// The fault schedule injected into this cell.
    pub plan: FaultPlan,
}

impl FaultCell {
    /// The cell's `mitigation/fault` label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}", self.mitigation_name, self.fault_name)
    }
}

/// The fault schedules under test (≥5 kinds).
#[must_use]
pub fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "alert-storm",
            FaultPlan::new(0xFA01).with(
                2_000,
                FaultKind::AlertStorm {
                    subchannel: 0,
                    period: 1_100,
                    count: 20,
                },
            ),
        ),
        (
            // Pair the drop with spurious ALERTs so RFMs are actually
            // issued (and swallowed): the MC must recover via re-issue.
            "drop-rfm",
            FaultPlan::new(0xFA02)
                .with(1_000, FaultKind::DropRfm { count: 3 })
                .with(
                    2_000,
                    FaultKind::AlertStorm {
                        subchannel: 0,
                        period: 2_000,
                        count: 6,
                    },
                ),
        ),
        (
            "delay-rfm",
            FaultPlan::new(0xFA03)
                .with(0, FaultKind::DelayRfm { extra_cycles: 200 })
                .with(
                    2_000,
                    FaultKind::AlertStorm {
                        subchannel: 0,
                        period: 2_000,
                        count: 6,
                    },
                ),
        ),
        ("counter-bitflip", {
            let mut plan = FaultPlan::new(0xFA04);
            for i in 0..8u64 {
                plan = plan.with(
                    1_000 + i * 1_000,
                    FaultKind::CounterBitFlip {
                        subchannel: 0,
                        bank: (i % 4) as u32,
                        bit: 9,
                    },
                );
            }
            plan
        }),
        (
            "stuck-bank",
            FaultPlan::new(0xFA05).with(
                3_000,
                FaultKind::StuckBank {
                    subchannel: 0,
                    bank: 1,
                    duration: 10_000,
                },
            ),
        ),
        (
            "trace-corruption",
            FaultPlan::new(0xFA06).with(0, FaultKind::TraceCorruption { rate: 0.01 }),
        ),
    ]
}

/// The mitigations under test: every registered engine that actually
/// tracks activations (the inert baseline has nothing to fault), at
/// the paper's default threshold.
#[must_use]
pub fn campaign_mitigations() -> Vec<(&'static str, MitigationConfig)> {
    mopac::EngineRegistry::builtin()
        .specs()
        .iter()
        .filter(|s| s.tracks())
        .map(|s| (s.name, (s.preset)(500)))
        .collect()
}

/// The full campaign matrix in submission order.
#[must_use]
pub fn fault_cells() -> Vec<FaultCell> {
    let mut cells = Vec::new();
    for (mitigation_name, mitigation) in campaign_mitigations() {
        for (fault_name, plan) in fault_matrix() {
            cells.push(FaultCell {
                mitigation_name,
                mitigation,
                fault_name,
                plan: plan.clone(),
            });
        }
    }
    cells
}

/// Knobs for a fault-campaign run.
#[derive(Debug, Clone)]
pub struct FaultCampaignSpec {
    /// Master seed; each cell forks a seed from it by index.
    pub master_seed: u64,
    /// Per-core instructions per cell.
    pub instrs: u64,
    /// Per-attempt wall-clock budget.
    pub timeout: Duration,
    /// Worker threads (`0` = [`default_threads`]).
    pub threads: usize,
}

impl Default for FaultCampaignSpec {
    fn default() -> Self {
        Self {
            master_seed: 0x5151,
            instrs: 40_000,
            timeout: Duration::from_secs(300),
            threads: 0,
        }
    }
}

/// One committed campaign cell: the CSV row plus the fields the caller
/// needs for summaries, in submission order.
#[derive(Debug)]
pub struct FaultCellOutcome {
    /// `mitigation/fault` label.
    pub label: String,
    /// Terminal status of the cell's final attempt.
    pub status: RunStatus,
    /// Oracle violations observed (0 when the cell did not finish).
    pub violations: u64,
    /// The CSV row matching [`FAULT_CAMPAIGN_HEADERS`]. Deliberately
    /// excludes wall-clock fields so rows are byte-identical across
    /// thread counts and runs.
    pub row: Vec<String>,
}

/// One isolated cell run: workload `xz` on the tiny geometry with the
/// checker on and the fault plan active. `attempt` bumps the seed so a
/// retried cell does not replay the identical failure.
fn run_fault_cell(
    cell: &FaultCell,
    instrs: u64,
    seed: u64,
    attempt: u32,
) -> MopacResult<RunResult> {
    let mut cfg = SystemConfig::paper_default(cell.mitigation, instrs);
    cfg.geometry = DramGeometry::tiny();
    cfg.enable_checker = true;
    cfg.seed = seed.wrapping_add(u64::from(attempt));
    cfg.livelock_window = 2_000_000;
    cfg.fault_plan = Some(cell.plan.clone());
    let traces = build_traces("xz", &cfg)?;
    System::new(cfg, traces)?.run()
}

/// Stable string form of a [`RunStatus`] (the CSV `status` column).
#[must_use]
pub fn status_str(status: &RunStatus) -> &'static str {
    match status {
        RunStatus::Done => "done",
        RunStatus::Failed => "failed",
        RunStatus::Panicked => "panicked",
        RunStatus::TimedOut => "timed-out",
    }
}

/// Renders one cell report into its CSV row.
fn fault_cell_outcome(cell: &FaultCell, report: &RunReport<RunResult>) -> FaultCellOutcome {
    let status = status_str(&report.status);
    let result = report.value.as_ref();
    let (violations, faults, corruptions, alerts, rfms, cycles) =
        result.map_or((0, 0, 0, 0, 0, 0), |r| {
            (
                r.violations,
                r.faults_applied,
                r.trace_corruptions,
                r.dram.alerts(),
                r.dram.rfms,
                r.cycles,
            )
        });
    // Oracle escapes become a structured note, never an abort.
    let detail = result.map_or_else(
        || {
            report
                .error
                .as_ref()
                .map_or(String::new(), std::string::ToString::to_string)
        },
        |r| {
            r.check_oracle()
                .err()
                .map_or(String::new(), |e| e.to_string())
        },
    );
    let row = vec![
        cell.mitigation_name.to_string(),
        cell.fault_name.to_string(),
        status.to_string(),
        report.attempts.to_string(),
        violations.to_string(),
        faults.to_string(),
        corruptions.to_string(),
        alerts.to_string(),
        rfms.to_string(),
        cycles.to_string(),
        detail,
    ];
    FaultCellOutcome {
        label: cell.label(),
        status: report.status.clone(),
        violations,
        row,
    }
}

/// Runs `cells` of the fault campaign in parallel and hands each
/// [`FaultCellOutcome`] to `sink` in submission order (so incremental
/// CSV output is byte-identical to a sequential run).
pub fn run_fault_campaign_cells(
    spec: &FaultCampaignSpec,
    cells: &[FaultCell],
    mut sink: impl FnMut(FaultCellOutcome),
) {
    let campaign = ParallelCampaign::new(spec.master_seed)
        .with_runner(IsolatedRunner::with_timeout(spec.timeout))
        .with_threads(spec.threads);
    let instrs = spec.instrs;
    campaign.run(
        cells,
        FaultCell::label,
        move |cell, seed, attempt| run_fault_cell(&cell, instrs, seed, attempt),
        |idx, report| sink(fault_cell_outcome(&cells[idx], &report)),
    );
}

/// The full (mitigation × fault) campaign; see
/// [`run_fault_campaign_cells`].
pub fn run_fault_campaign(spec: &FaultCampaignSpec, sink: impl FnMut(FaultCellOutcome)) {
    run_fault_campaign_cells(spec, &fault_cells(), sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn campaign(threads: usize) -> ParallelCampaign {
        ParallelCampaign::new(0xC0FFEE)
            .with_runner(IsolatedRunner::with_timeout(Duration::from_secs(30)))
            .with_threads(threads)
    }

    /// Collects `(idx, seed, value)` triples through the sink.
    fn run_collect(threads: usize, cells: &[u64]) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        campaign(threads).run(
            cells,
            |c| format!("cell-{c}"),
            |cell, seed, _attempt| Ok(cell.wrapping_mul(3).wrapping_add(seed)),
            |idx, report: RunReport<u64>| out.push((idx, report.into_result().unwrap())),
        );
        out
    }

    #[test]
    fn commits_in_submission_order() {
        let cells: Vec<u64> = (0..32).collect();
        let out = run_collect(4, &cells);
        let indices: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let cells: Vec<u64> = (0..24).collect();
        let seq = run_collect(1, &cells);
        for threads in [2, 4, 7] {
            assert_eq!(seq, run_collect(threads, &cells), "threads={threads}");
        }
    }

    #[test]
    fn cell_seeds_depend_on_index_not_thread_count() {
        let a = campaign(1);
        let b = campaign(8);
        for idx in 0..16 {
            assert_eq!(a.cell_seed(idx), b.cell_seed(idx));
        }
        assert_ne!(a.cell_seed(0), a.cell_seed(1));
    }

    #[test]
    fn panicked_cell_does_not_lose_the_rest() {
        let cells: Vec<u64> = (0..8).collect();
        let calls = AtomicU32::new(0);
        let mut statuses = Vec::new();
        campaign(4).run(
            &cells,
            |c| format!("cell-{c}"),
            |cell, _seed, _attempt| {
                assert!(cell != 3, "deliberate cell panic");
                Ok(cell)
            },
            |idx, report: RunReport<u64>| {
                calls.fetch_add(1, Ordering::Relaxed);
                statuses.push((idx, report.status));
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        for (idx, status) in statuses {
            if idx == 3 {
                assert_eq!(status, crate::runner::RunStatus::Panicked);
            } else {
                assert_eq!(status, crate::runner::RunStatus::Done);
            }
        }
    }

    #[test]
    fn empty_campaign_is_a_noop() {
        let mut called = false;
        campaign(4).run(
            &[] as &[u64],
            |_| String::new(),
            |c, _, _| Ok(c),
            |_, _report: RunReport<u64>| called = true,
        );
        assert!(!called);
    }
}
