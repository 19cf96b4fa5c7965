//! Every table and figure of the paper as library code.
//!
//! An [`Experiment`] declares the simulated [`Cell`]s it needs and
//! formats its [`Report`] from a [`RunTable`] holding their results.
//! The analytical experiments and the attack tables declare no cells.
//! [`run`] declares the cells of every experiment it is given, runs the
//! unique ones once, then formats and emits each report in order: the
//! single-experiment bins pass one experiment, `run_all` passes
//! [`EXPERIMENTS`].

use crate::table::{Cell, RunTable};
use crate::{check_knobs, thread_budget, Budget, Report};
use mopac_types::error::{MopacError, MopacResult};
use std::time::Instant;

mod analytical;
mod attack;
mod slowdown;
mod table4;

use slowdown::{FIG11, FIG12, FIG13, FIG17, FIG18, FIG19, FIG9};

/// One paper table or figure.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Name of the experiment's own binary.
    pub bin: &'static str,
    /// The simulated runs the report reads.
    pub cells: fn(&Budget) -> Vec<Cell>,
    /// Formats the report from the declared cells' results.
    pub report: fn(&RunTable, &Budget) -> MopacResult<Report>,
}

/// Declares no cells: the experiment computes its own numbers.
fn no_cells(_: &Budget) -> Vec<Cell> {
    Vec::new()
}

const fn exp(
    bin: &'static str,
    cells: fn(&Budget) -> Vec<Cell>,
    report: fn(&RunTable, &Budget) -> MopacResult<Report>,
) -> Experiment {
    Experiment { bin, cells, report }
}

/// Every experiment `run_all` runs, in presentation order: analytical
/// first, then the attack tables, then the workload sweeps.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1_timings", no_cells, analytical::table1),
    exp("table2_moat_ath", no_cells, analytical::table2),
    exp("fig4_conflict_latency", no_cells, analytical::fig4),
    exp("table5_epsilon", no_cells, analytical::table5),
    exp("table6_pe1", no_cells, analytical::table6),
    exp("table7_mopac_c_params", no_cells, analytical::table7),
    exp("table8_mopac_d_params", no_cells, analytical::table8),
    exp("table11_nup_params", no_cells, analytical::table11),
    exp("table13_related", no_cells, analytical::table13),
    exp("table14_rowpress_params", no_cells, analytical::table14),
    exp("alpha_monte_carlo", no_cells, analytical::alpha),
    exp("table9_attack_mopac_c", no_cells, attack::table9),
    exp("table10_attack_mopac_d", no_cells, attack::table10),
    exp("table4_workloads", table4::cells, table4::report),
    exp("fig2_prac_slowdown", slowdown::fig2_cells, slowdown::fig2),
    exp("fig9_mopac_c", |b| FIG9.cells(b), |t, b| FIG9.report(t, b)),
    exp("fig11_mopac_d", |b| FIG11.cells(b), |t, b| FIG11.report(t, b)),
    exp("fig12_drain_sensitivity", |b| FIG12.cells(b), |t, b| FIG12.report(t, b)),
    exp("fig13_srq_sensitivity", |b| FIG13.cells(b), |t, b| FIG13.report(t, b)),
    exp("fig17_nup", |b| FIG17.cells(b), |t, b| FIG17.report(t, b)),
    exp("table12_srq_insertions", slowdown::table12_cells, slowdown::table12),
    exp("fig18_rowpress", |b| FIG18.cells(b), |t, b| FIG18.report(t, b)),
    exp("fig19_chips", |b| FIG19.cells(b), |t, b| FIG19.report(t, b)),
    exp("table15_closure", slowdown::table15_cells, slowdown::table15),
    exp("fig1d_headline", slowdown::fig1d_cells, slowdown::fig1d),
];

/// The experiment whose binary is `bin`.
///
/// # Errors
///
/// Returns [`MopacError::Config`] if no experiment has that binary.
pub fn find(bin: &str) -> MopacResult<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.bin == bin)
        .ok_or_else(|| MopacError::config(format!("no experiment named {bin}")))
}

/// Runs `experiments` at `budget` on `threads` workers: every declared
/// cell once, then each report, printed and written as CSV in order.
///
/// # Errors
///
/// Returns the first failing run's or report's error.
pub fn run(experiments: &[Experiment], budget: &Budget, threads: usize) -> MopacResult<()> {
    let cells: Vec<Cell> = experiments.iter().flat_map(|e| (e.cells)(budget)).collect();
    let started = Instant::now();
    let table = RunTable::run(&cells, threads)?;
    if !cells.is_empty() {
        println!(
            "== {} cells declared, {} unique, run in {:.1}s on {} threads ==\n",
            cells.len(),
            table.len(),
            started.elapsed().as_secs_f32(),
            table.campaign().threads()
        );
    }
    for e in experiments {
        let t0 = Instant::now();
        (e.report)(&table, budget)?.emit();
        println!("({} formatted in {:.1}s)\n", e.bin, t0.elapsed().as_secs_f32());
    }
    Ok(())
}

/// The body of an experiment binary: checks the knobs, reads the
/// budget once and [`run`]s the experiment named `bin`, or every
/// experiment when `bin` is `run_all`.
///
/// # Panics
///
/// Panics with the error's message if a knob is malformed or a run
/// fails.
pub fn main(bin: &str) {
    let go = || -> MopacResult<()> {
        check_knobs(std::env::vars_os())?;
        let budget = Budget::from_env()?;
        let threads = thread_budget()?;
        if bin == "run_all" {
            run(EXPERIMENTS, &budget, threads)
        } else {
            run(&[*find(bin)?], &budget, threads)
        }
    };
    go().unwrap_or_else(|e| panic!("{e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::unique;

    /// The smallest budget that still runs every experiment's cells.
    fn tiny() -> Budget {
        Budget {
            instrs: 2000,
            attack_cycles: 2000,
            workloads: vec!["cam4".to_string()],
        }
    }

    #[test]
    fn fig9_cells_are_fig1d_cells() {
        let b = Budget {
            workloads: vec!["xz".to_string(), "mix1".to_string()],
            ..tiny()
        };
        let fig1d = (find("fig1d_headline").unwrap().cells)(&b);
        let mut both = (find("fig9_mopac_c").unwrap().cells)(&b);
        both.extend(fig1d.iter().cloned());
        // Per workload: the baseline, PRAC, and MoPAC-C and MoPAC-D at
        // six thresholds.
        assert_eq!(unique(&fig1d).len(), 2 * 14);
        assert_eq!(unique(&both).len(), unique(&fig1d).len());
    }

    #[test]
    fn results_do_not_depend_on_thread_count() {
        let cells = (find("fig2_prac_slowdown").unwrap().cells)(&tiny());
        let one = RunTable::run(&cells, 1).unwrap();
        let three = RunTable::run(&cells, 3).unwrap();
        assert_eq!(one.len(), cells.len());
        for c in &cells {
            assert_eq!(one.get(c).unwrap(), three.get(c).unwrap());
        }
    }

    #[test]
    fn undeclared_cell_is_a_typed_error() {
        let table = RunTable::run(&[], 1).unwrap();
        let err = (find("fig9_mopac_c").unwrap().report)(&table, &tiny()).unwrap_err();
        assert!(matches!(err, MopacError::Internal { .. }), "{err:?}");
        assert!(err.to_string().contains("not declared"), "{err}");
    }

    /// Formats `e` from a table of only its own declared cells.
    fn formats_from_own_cells(e: &Experiment) {
        let b = tiny();
        let table = RunTable::run(&(e.cells)(&b), 2).unwrap();
        let report = (e.report)(&table, &b).unwrap_or_else(|err| panic!("{}: {err}", e.bin));
        assert!(!report.to_table().is_empty(), "{}", e.bin);
    }

    /// The two experiments whose formatters take seconds in a debug
    /// build; each has a test of its own so they run side by side.
    const SLOW: [&str; 2] = ["table4_workloads", "alpha_monte_carlo"];

    #[test]
    fn every_formatter_reads_only_its_own_cells() {
        for e in EXPERIMENTS.iter().filter(|e| !SLOW.contains(&e.bin)) {
            formats_from_own_cells(e);
        }
    }

    #[test]
    fn table4_reads_only_its_own_cells() {
        formats_from_own_cells(find(SLOW[0]).unwrap());
    }

    #[test]
    fn alpha_formats_without_cells() {
        formats_from_own_cells(find(SLOW[1]).unwrap());
    }

    #[test]
    fn every_bin_names_an_experiment() {
        assert!(find("run_all").is_err());
        for e in EXPERIMENTS {
            assert_eq!(find(e.bin).unwrap().bin, e.bin);
        }
    }
}
