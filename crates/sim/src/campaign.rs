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
use mopac_types::obs::{Hist, MetricsSnapshot, SinkConfig};
use mopac_types::rng::DetRng;
use mopac_types::snapshot::fnv1a64;
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
    pub fn run<C, T, L, F, S>(&self, cells: &[C], label: L, work: F, sink: S)
    where
        C: Clone + Send + Sync + 'static,
        T: Send + 'static,
        L: Fn(&C) -> String + Sync,
        F: Fn(C, u64, u32) -> mopac_types::MopacResult<T> + Clone + Send + Sync + 'static,
        S: FnMut(usize, RunReport<T>),
    {
        self.run_with_offset(0, cells, label, work, sink);
    }

    /// Like [`ParallelCampaign::run`] but for a tail of a larger
    /// campaign: `cells` are the cells at global indices `offset..`,
    /// and both the derived seeds and the indices handed to `sink` use
    /// those *global* indices. A checkpointed campaign resumed at cell
    /// `k` therefore reproduces exactly the seeds — and so exactly the
    /// results — the uninterrupted campaign would have produced.
    pub fn run_with_offset<C, T, L, F, S>(
        &self,
        offset: usize,
        cells: &[C],
        label: L,
        work: F,
        mut sink: S,
    ) where
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
                    let seed = self.cell_seed(offset + idx);
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
                sink(offset + idx, report);
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

/// CSV schema when [`FaultCampaignSpec::collect_metrics`] is on: the
/// base columns plus merged histogram percentiles from each cell's
/// metrics snapshot. A separate constant so the default schema (and
/// the byte-identity tests joined against it) never moves.
pub const FAULT_CAMPAIGN_METRICS_HEADERS: [&str; 17] = [
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
    "read_lat_p50",
    "read_lat_p95",
    "read_lat_p99",
    "act_gap_p50",
    "act_gap_p95",
    "act_gap_p99",
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
    /// Deliberately panic in the named `mitigation/fault` cell
    /// (isolation demo; `MOPAC_INJECT_PANIC`).
    pub inject_panic: Option<String>,
    /// Enable the per-cell metrics sink and append the percentile
    /// columns of [`FAULT_CAMPAIGN_METRICS_HEADERS`] to each row.
    /// Off by default: rows then match [`FAULT_CAMPAIGN_HEADERS`]
    /// byte-for-byte, and the cells run with every sink call a no-op.
    pub collect_metrics: bool,
}

impl Default for FaultCampaignSpec {
    fn default() -> Self {
        Self {
            master_seed: 0x5151,
            instrs: 40_000,
            timeout: Duration::from_secs(300),
            threads: 0,
            inject_panic: None,
            collect_metrics: false,
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
/// retried cell does not replay the identical failure. The snapshot is
/// `None` unless `collect_metrics` was requested.
fn run_fault_cell(
    cell: &FaultCell,
    instrs: u64,
    seed: u64,
    attempt: u32,
    collect_metrics: bool,
) -> MopacResult<(RunResult, Option<MetricsSnapshot>)> {
    let mut cfg = SystemConfig::paper_default(cell.mitigation, instrs);
    cfg.geometry = DramGeometry::tiny();
    cfg.enable_checker = true;
    cfg.seed = seed.wrapping_add(u64::from(attempt));
    cfg.livelock_window = 2_000_000;
    cfg.fault_plan = Some(cell.plan.clone());
    cfg.metrics = collect_metrics.then(SinkConfig::default);
    let traces = build_traces("xz", &cfg)?;
    System::new(cfg, traces)?.run_with_metrics()
}

/// Appends the p50/p95/p99 of one merged histogram to `row` ("0"s when
/// the cell produced no snapshot or never recorded the histogram).
fn push_percentiles(row: &mut Vec<String>, snapshot: Option<&MetricsSnapshot>, h: Hist) {
    let (p50, p95, p99) = snapshot
        .and_then(|s| s.hist_merged(h))
        .map_or((0, 0, 0), |m| (m.p50, m.p95, m.p99));
    row.push(p50.to_string());
    row.push(p95.to_string());
    row.push(p99.to_string());
}

/// Stable string form of a [`RunStatus`] (CSV rows and checkpoint log).
#[must_use]
pub fn status_str(status: &RunStatus) -> &'static str {
    match status {
        RunStatus::Done => "done",
        RunStatus::Failed => "failed",
        RunStatus::Panicked => "panicked",
        RunStatus::TimedOut => "timed-out",
    }
}

/// Inverse of [`status_str`].
fn parse_status(s: &str) -> MopacResult<RunStatus> {
    match s {
        "done" => Ok(RunStatus::Done),
        "failed" => Ok(RunStatus::Failed),
        "panicked" => Ok(RunStatus::Panicked),
        "timed-out" => Ok(RunStatus::TimedOut),
        other => Err(mopac_types::MopacError::snapshot(format!(
            "unknown run status '{other}' in checkpoint log"
        ))),
    }
}

/// Renders one cell report into its CSV row.
fn fault_cell_outcome(
    cell: &FaultCell,
    report: &RunReport<(RunResult, Option<MetricsSnapshot>)>,
    collect_metrics: bool,
) -> FaultCellOutcome {
    let status = status_str(&report.status);
    let result = report.value.as_ref().map(|(r, _)| r);
    let snapshot = report.value.as_ref().and_then(|(_, s)| s.as_ref());
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
    let mut row = vec![
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
    if collect_metrics {
        push_percentiles(&mut row, snapshot, Hist::ReadLatency);
        push_percentiles(&mut row, snapshot, Hist::InterActGap);
    }
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
    sink: impl FnMut(FaultCellOutcome),
) {
    run_fault_campaign_cells_from(spec, cells, 0, sink);
}

/// Runs the tail `cells[start..]` of the fault campaign, deriving each
/// cell's seed from its *global* index so the outcomes are identical to
/// the corresponding slice of an uninterrupted full run (the resume
/// primitive of [`CheckpointedFaultCampaign`]).
pub fn run_fault_campaign_cells_from(
    spec: &FaultCampaignSpec,
    cells: &[FaultCell],
    start: usize,
    mut sink: impl FnMut(FaultCellOutcome),
) {
    if start >= cells.len() {
        return;
    }
    let campaign = ParallelCampaign::new(spec.master_seed)
        .with_runner(IsolatedRunner::with_timeout(spec.timeout))
        .with_threads(spec.threads);
    let instrs = spec.instrs;
    let inject_panic = spec.inject_panic.clone();
    let collect_metrics = spec.collect_metrics;
    campaign.run_with_offset(
        start,
        &cells[start..],
        FaultCell::label,
        move |cell, seed, attempt| {
            assert!(
                inject_panic.as_deref() != Some(cell.label().as_str()),
                "MOPAC_INJECT_PANIC: simulated crash in cell (attempt {attempt})"
            );
            run_fault_cell(&cell, instrs, seed, attempt, collect_metrics)
        },
        |idx, report| sink(fault_cell_outcome(&cells[idx], &report, collect_metrics)),
    );
}

/// The full (mitigation × fault) campaign; see
/// [`run_fault_campaign_cells`].
pub fn run_fault_campaign(spec: &FaultCampaignSpec, sink: impl FnMut(FaultCellOutcome)) {
    run_fault_campaign_cells(spec, &fault_cells(), sink);
}

impl FaultCampaignSpec {
    /// A stable fingerprint of everything that determines the
    /// campaign's committed rows: master seed, instruction budget,
    /// metrics mode, panic injection, and the cell list. Thread count
    /// and timeout are deliberately excluded — rows are byte-identical
    /// across both, so a resume may change them.
    #[must_use]
    pub fn fingerprint(&self, cells: &[FaultCell]) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "fault-campaign v1|seed={:#x}|instrs={}|metrics={}|panic={:?}|cells={}",
            self.master_seed,
            self.instrs,
            self.collect_metrics,
            self.inject_panic,
            cells.len(),
        );
        for c in cells {
            let _ = write!(s, "|{}", c.label());
        }
        fnv1a64(s.as_bytes())
    }
}

/// Escapes a checkpoint-log field: the log is one line per cell with
/// tab-separated fields, so tabs, newlines and the escape character
/// itself are encoded.
fn esc_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc_field`].
fn unesc_field(s: &str) -> MopacResult<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(mopac_types::MopacError::snapshot(format!(
                    "bad escape sequence in checkpoint log: \\{}",
                    other.map_or_else(|| "<eol>".to_string(), |c| c.to_string()),
                )));
            }
        }
    }
    Ok(out)
}

/// Renders one committed outcome as the checkpoint log's line payload
/// (everything after the digest field).
fn outcome_to_payload(idx: usize, o: &FaultCellOutcome) -> String {
    let mut fields = vec![
        idx.to_string(),
        esc_field(&o.label),
        status_str(&o.status).to_string(),
        o.violations.to_string(),
    ];
    fields.extend(o.row.iter().map(|c| esc_field(c)));
    fields.join("\t")
}

/// Parses a checkpoint log payload back into the outcome it recorded.
fn payload_to_outcome(payload: &str, expect_idx: usize) -> MopacResult<FaultCellOutcome> {
    let err = |what: &str| {
        mopac_types::MopacError::snapshot(format!("checkpoint log line: {what}"))
    };
    let mut parts = payload.split('\t');
    let idx: usize = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err("missing cell index"))?;
    if idx != expect_idx {
        return Err(err(&format!("cell index {idx} where {expect_idx} expected")));
    }
    let label = unesc_field(parts.next().ok_or_else(|| err("missing label"))?)?;
    let status = parse_status(parts.next().ok_or_else(|| err("missing status"))?)?;
    let violations: u64 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err("missing violation count"))?;
    let row = parts.map(unesc_field).collect::<MopacResult<Vec<_>>>()?;
    Ok(FaultCellOutcome {
        label,
        status,
        violations,
        row,
    })
}

/// The checkpoint manifest, as parsed from `manifest.tsv`.
struct Manifest {
    spec: u64,
    cells: usize,
    digests: Vec<u64>,
}

fn write_manifest(
    path: &std::path::Path,
    spec: u64,
    cells: usize,
    digests: &[u64],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(text, "mopac-campaign v1");
    let _ = writeln!(text, "spec {spec:016x}");
    let _ = writeln!(text, "cells {cells}");
    let _ = writeln!(text, "done {}", digests.len());
    for (i, d) in digests.iter().enumerate() {
        let _ = writeln!(text, "digest {i} {d:016x}");
    }
    mopac_types::persist::atomic_write_str(path, &text)
}

fn load_manifest(path: &std::path::Path) -> MopacResult<Manifest> {
    let err =
        |what: &str| mopac_types::MopacError::snapshot(format!("campaign manifest: {what}"));
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    if lines.next() != Some("mopac-campaign v1") {
        return Err(err("bad header"));
    }
    let spec = lines
        .next()
        .and_then(|l| l.strip_prefix("spec "))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| err("bad spec line"))?;
    let cells: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("cells "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err("bad cells line"))?;
    let done: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("done "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err("bad done line"))?;
    let mut digests = Vec::with_capacity(done);
    for (i, line) in lines.enumerate() {
        let d = line
            .strip_prefix(&format!("digest {i} "))
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| err(&format!("bad digest line {i}")))?;
        digests.push(d);
    }
    if digests.len() != done {
        return Err(err(&format!(
            "{} digest line(s) but done {done}",
            digests.len()
        )));
    }
    Ok(Manifest {
        spec,
        cells,
        digests,
    })
}

/// What a checkpointed campaign run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Cells replayed from the checkpoint (not re-executed).
    pub resumed: usize,
    /// Cells executed by this process.
    pub executed: usize,
}

/// Crash-safe fault campaign: the [`run_fault_campaign_cells`] fan-out
/// plus an on-disk checkpoint, so a campaign killed at any point (even
/// SIGKILL mid-write) resumes without re-running completed cells and
/// still produces byte-identical output.
///
/// Two files live in the checkpoint directory:
///
/// * `manifest.tsv` — atomically replaced after every committed cell:
///   the campaign fingerprint, cell count, completed-cell count, and a
///   per-cell result digest ([`fnv1a64`] of the log payload).
/// * `cells.log` — append-only, one fsync'd line per committed cell
///   carrying its digest and rendered outcome.
///
/// On start, [`CheckpointedFaultCampaign::run`] verifies the manifest
/// against the spec fingerprint, replays the verified log prefix to
/// the sink (a torn final line from a mid-append crash is dropped, so
/// the in-flight cell re-runs), and executes the remaining cells with
/// their original global indices — seeds, and therefore results, match
/// an uninterrupted run exactly, at any thread count.
#[derive(Debug, Clone)]
pub struct CheckpointedFaultCampaign {
    spec: FaultCampaignSpec,
    dir: std::path::PathBuf,
}

impl CheckpointedFaultCampaign {
    /// A checkpointed campaign persisting into `dir` (created on run).
    #[must_use]
    pub fn new(spec: FaultCampaignSpec, dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            spec,
            dir: dir.into(),
        }
    }

    /// The manifest path inside the checkpoint directory.
    #[must_use]
    pub fn manifest_path(&self) -> std::path::PathBuf {
        self.dir.join("manifest.tsv")
    }

    /// The append-only result log path.
    #[must_use]
    pub fn log_path(&self) -> std::path::PathBuf {
        self.dir.join("cells.log")
    }

    /// Runs (or resumes) the campaign over `cells`, handing every
    /// outcome — replayed and fresh alike — to `sink` in cell order.
    ///
    /// # Errors
    ///
    /// Returns [`mopac_types::MopacError::Snapshot`] when the directory
    /// holds a checkpoint of a *different* campaign or its files fail
    /// verification (digest mismatch), and [`mopac_types::MopacError::Io`]
    /// on filesystem failures. A verification error never silently
    /// re-runs cells: delete the directory to restart from scratch.
    pub fn run(
        &self,
        cells: &[FaultCell],
        mut sink: impl FnMut(FaultCellOutcome),
    ) -> MopacResult<CheckpointSummary> {
        use std::io::Write as _;
        std::fs::create_dir_all(&self.dir)?;
        let fp = self.spec.fingerprint(cells);
        let manifest_path = self.manifest_path();
        let log_path = self.log_path();
        let mut digests: Vec<u64> = Vec::new();
        let mut kept_lines: Vec<String> = Vec::new();
        let mut resumed: Vec<FaultCellOutcome> = Vec::new();
        if manifest_path.exists() {
            let m = load_manifest(&manifest_path)?;
            if m.spec != fp {
                return Err(mopac_types::MopacError::snapshot(format!(
                    "checkpoint in {} belongs to a different campaign \
                     (fingerprint {:016x}, this campaign is {fp:016x})",
                    self.dir.display(),
                    m.spec,
                )));
            }
            if m.cells != cells.len() {
                return Err(mopac_types::MopacError::snapshot(format!(
                    "checkpoint records {} cells but campaign has {}",
                    m.cells,
                    cells.len(),
                )));
            }
            // Only newline-terminated lines count: a SIGKILL mid-append
            // leaves a torn tail, which is dropped so that cell re-runs.
            let raw = std::fs::read_to_string(&log_path).unwrap_or_default();
            let complete: Vec<&str> = raw
                .char_indices()
                .filter(|&(_, c)| c == '\n')
                .scan(0usize, |start, (pos, _)| {
                    let line = &raw[*start..pos];
                    *start = pos + 1;
                    Some(line)
                })
                .collect();
            let usable = m.digests.len().min(complete.len());
            for (i, line) in complete.iter().take(usable).enumerate() {
                let (digest_hex, payload) = line.split_once('\t').ok_or_else(|| {
                    mopac_types::MopacError::snapshot(format!(
                        "checkpoint log line {i} has no digest field"
                    ))
                })?;
                let digest = u64::from_str_radix(digest_hex, 16).map_err(|_| {
                    mopac_types::MopacError::snapshot(format!(
                        "checkpoint log line {i} has a malformed digest"
                    ))
                })?;
                if digest != fnv1a64(payload.as_bytes()) || digest != m.digests[i] {
                    return Err(mopac_types::MopacError::snapshot(format!(
                        "checkpoint log line {i} fails digest verification"
                    )));
                }
                resumed.push(payload_to_outcome(payload, i)?);
                digests.push(digest);
                kept_lines.push((*line).to_string());
            }
        }
        let done = resumed.len();
        // Re-seal the on-disk state to exactly the verified prefix: the
        // log drops any torn tail (and any line the manifest never
        // committed), the manifest drops digests beyond the log.
        let mut log_text = kept_lines.join("\n");
        if !log_text.is_empty() {
            log_text.push('\n');
        }
        mopac_types::persist::atomic_write_str(&log_path, &log_text)?;
        write_manifest(&manifest_path, fp, cells.len(), &digests)?;
        for o in resumed {
            sink(o);
        }
        // Run the remainder; each cell is durably committed (log line
        // fsync'd, then manifest replaced) before the sink sees it.
        let mut log_file = std::fs::OpenOptions::new().append(true).open(&log_path)?;
        let mut idx = done;
        let mut io_err: Option<std::io::Error> = None;
        run_fault_campaign_cells_from(&self.spec, cells, done, |o| {
            if io_err.is_none() {
                let payload = outcome_to_payload(idx, &o);
                let digest = fnv1a64(payload.as_bytes());
                let committed = writeln!(log_file, "{digest:016x}\t{payload}")
                    .and_then(|()| log_file.sync_data())
                    .and_then(|()| {
                        digests.push(digest);
                        write_manifest(&manifest_path, fp, cells.len(), &digests)
                    });
                if let Err(e) = committed {
                    io_err = Some(e);
                }
            }
            idx += 1;
            sink(o);
        });
        if let Some(e) = io_err {
            return Err(e.into());
        }
        Ok(CheckpointSummary {
            resumed: done,
            executed: idx - done,
        })
    }
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

    #[test]
    fn checkpoint_payload_roundtrip() {
        let o = FaultCellOutcome {
            label: "a\tb\\c\nd".to_string(),
            status: RunStatus::TimedOut,
            violations: 7,
            row: vec!["plain".into(), "tab\there".into(), String::new()],
        };
        let payload = outcome_to_payload(5, &o);
        assert!(!payload.contains('\n'));
        let back = payload_to_outcome(&payload, 5).unwrap();
        assert_eq!(back.label, o.label);
        assert_eq!(back.status, o.status);
        assert_eq!(back.violations, o.violations);
        assert_eq!(back.row, o.row);
        assert!(payload_to_outcome(&payload, 6).is_err());
    }

    fn small_spec() -> FaultCampaignSpec {
        FaultCampaignSpec {
            instrs: 2_000,
            timeout: Duration::from_secs(60),
            threads: 2,
            ..FaultCampaignSpec::default()
        }
    }

    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mopac-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_resumes_after_torn_write() {
        let spec = small_spec();
        let cells: Vec<FaultCell> = fault_cells().into_iter().take(3).collect();

        // Ground truth: an uninterrupted, uncheckpointed run.
        let mut full = Vec::new();
        run_fault_campaign_cells(&spec, &cells, |o| full.push(o.row.join(",")));
        assert_eq!(full.len(), 3);

        let dir = temp_ckpt_dir("resume");
        let ckpt = CheckpointedFaultCampaign::new(small_spec(), &dir);
        let mut first = Vec::new();
        let s = ckpt.run(&cells, |o| first.push(o.row.join(","))).unwrap();
        assert_eq!(
            s,
            CheckpointSummary {
                resumed: 0,
                executed: 3
            }
        );
        assert_eq!(first, full);

        // Simulate a crash after cell 0 committed: keep its log line,
        // append a torn (unterminated) line, roll the manifest to done=1.
        let log = std::fs::read_to_string(ckpt.log_path()).unwrap();
        let keep = log.lines().next().unwrap();
        std::fs::write(ckpt.log_path(), format!("{keep}\nffffffffffffffff\t1\ttorn")).unwrap();
        let manifest = std::fs::read_to_string(ckpt.manifest_path()).unwrap();
        let rolled: String = manifest
            .lines()
            .filter(|l| !l.starts_with("digest") || l.starts_with("digest 0 "))
            .map(|l| {
                if l.starts_with("done ") {
                    "done 1\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(ckpt.manifest_path(), rolled).unwrap();

        let mut second = Vec::new();
        let s = ckpt.run(&cells, |o| second.push(o.row.join(","))).unwrap();
        assert_eq!(
            s,
            CheckpointSummary {
                resumed: 1,
                executed: 2
            }
        );
        assert_eq!(second, full);

        // A finished checkpoint replays everything and runs nothing.
        let mut third = Vec::new();
        let s = ckpt.run(&cells, |o| third.push(o.row.join(","))).unwrap();
        assert_eq!(
            s,
            CheckpointSummary {
                resumed: 3,
                executed: 0
            }
        );
        assert_eq!(third, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rejects_a_different_campaign() {
        let cells: Vec<FaultCell> = fault_cells().into_iter().take(1).collect();
        let dir = temp_ckpt_dir("fp");
        CheckpointedFaultCampaign::new(small_spec(), &dir)
            .run(&cells, |_| {})
            .unwrap();
        let mut other = small_spec();
        other.master_seed ^= 1;
        let err = CheckpointedFaultCampaign::new(other, &dir)
            .run(&cells, |_| {})
            .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_detects_tampered_log() {
        let cells: Vec<FaultCell> = fault_cells().into_iter().take(1).collect();
        let dir = temp_ckpt_dir("tamper");
        let ckpt = CheckpointedFaultCampaign::new(small_spec(), &dir);
        ckpt.run(&cells, |_| {}).unwrap();
        let log = std::fs::read_to_string(ckpt.log_path()).unwrap();
        std::fs::write(ckpt.log_path(), log.replace('0', "1")).unwrap();
        let err = ckpt.run(&cells, |_| {}).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
