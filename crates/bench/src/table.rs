//! One run table for every simulated figure.
//!
//! Each simulated experiment declares its [`Cell`]s: a workload plus a
//! full [`SystemConfig`], which carries the instruction budget and the
//! seed. [`RunTable::run`] drops equal cells (same workload, same
//! `Debug` form of the configuration) and runs the unique ones once on
//! a [`ParallelCampaign`]. A cell never reads the campaign's seed or
//! attempt index, so the table holds the same results at any thread
//! count. Formatters then look results up by cell; a lookup of a cell
//! nobody declared is a typed error, not a silent extra run.

use mopac::config::MitigationConfig;
use mopac_sim::campaign::ParallelCampaign;
use mopac_sim::experiment::run_workload_with;
use mopac_sim::runner::IsolatedRunner;
use mopac_sim::system::{RunResult, SystemConfig};
use mopac_types::error::{MopacError, MopacResult};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// One simulated run: a workload under a full system configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload or mix name.
    pub workload: String,
    /// The system it runs on, budget and seed included.
    pub cfg: SystemConfig,
}

impl Cell {
    /// `workload` on the paper's system under `mitigation`, at `instrs`
    /// instructions per core.
    #[must_use]
    pub fn paper(workload: &str, mitigation: MitigationConfig, instrs: u64) -> Self {
        Self {
            workload: workload.to_string(),
            cfg: SystemConfig::paper_default(mitigation, instrs),
        }
    }

    /// The identity two declarations of one run share.
    fn key(&self) -> (String, String) {
        (self.workload.clone(), format!("{:?}", self.cfg))
    }
}

/// `cells` with later duplicates removed, first-declaration order kept.
#[must_use]
pub fn unique(cells: &[Cell]) -> Vec<Cell> {
    let mut seen = HashSet::new();
    cells.iter().filter(|c| seen.insert(c.key())).cloned().collect()
}

/// Runs `work` over `items` on `campaign` and returns the results in
/// item order, or the first error in item order.
///
/// # Errors
///
/// Returns the first item's error (a panic is reported as
/// [`MopacError::Internal`]).
pub fn campaign_map<C, T, F>(campaign: &ParallelCampaign, items: &[C], work: F) -> MopacResult<Vec<T>>
where
    C: Clone + Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(C) -> MopacResult<T> + Clone + Send + Sync + 'static,
{
    let mut out = Vec::with_capacity(items.len());
    let mut first_err = None;
    campaign.run(
        items,
        |_| String::from("cell"),
        move |item, _seed, _attempt| work(item),
        |_, report| match report.into_result() {
            Ok(v) => out.push(v),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        },
    );
    first_err.map_or(Ok(out), Err)
}

/// The results of a set of declared cells, each unique cell run once.
#[derive(Debug)]
pub struct RunTable {
    results: HashMap<(String, String), RunResult>,
    campaign: ParallelCampaign,
}

impl RunTable {
    /// Runs the unique cells of `cells` on `threads` workers (`0`: the
    /// machine's available parallelism). No wall-clock timeout and no
    /// retry: a run ends in its result or in a typed error.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error, in declaration order.
    pub fn run(cells: &[Cell], threads: usize) -> MopacResult<Self> {
        let campaign = ParallelCampaign::new(0)
            .with_runner(IsolatedRunner::with_timeout(Duration::MAX).with_retries(0))
            .with_threads(threads);
        let cells = unique(cells);
        let runs = campaign_map(&campaign, &cells, |c: Cell| {
            run_workload_with(&c.workload, c.cfg)
        })?;
        let results = cells.iter().map(Cell::key).zip(runs).collect();
        Ok(Self { results, campaign })
    }

    /// Unique cells run.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.results.len()
    }

    /// The campaign the table ran on, for formatters with work of their
    /// own to fan out.
    #[must_use]
    pub fn campaign(&self) -> &ParallelCampaign {
        &self.campaign
    }

    /// The result of `cell`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Internal`] if `cell` was not declared.
    pub fn get(&self, cell: &Cell) -> MopacResult<&RunResult> {
        self.results.get(&cell.key()).ok_or_else(|| {
            MopacError::internal(format!(
                "cell {} / {:?} was not declared",
                cell.workload, cell.cfg.mitigation
            ))
        })
    }

    /// The result of `workload` on the paper's system under
    /// `mitigation` at `instrs` instructions per core.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Internal`] if that cell was not declared.
    pub fn paper(&self, workload: &str, mitigation: MitigationConfig, instrs: u64) -> MopacResult<&RunResult> {
        self.get(&Cell::paper(workload, mitigation, instrs))
    }
}
