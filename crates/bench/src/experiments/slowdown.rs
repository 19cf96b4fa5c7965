//! The workload sweeps: slowdowns, SRQ insertions and page policies
//! over every workload of the budget, each against its own baseline.

use crate::table::{Cell, RunTable};
use crate::{pct, Budget, Report};
use mopac::config::MitigationConfig;
use mopac_memctrl::controller::PagePolicy;
use mopac_types::error::MopacResult;

/// Slowdown of `mit` on `name` against the paper system's baseline.
fn slowdown(t: &RunTable, name: &str, mit: MitigationConfig, b: &Budget) -> MopacResult<f64> {
    let base = t.paper(name, MitigationConfig::baseline(), b.instrs)?;
    Ok(t.paper(name, mit, b.instrs)?.slowdown_vs(base))
}

/// Mean slowdown of `mit` over the budget's workloads.
fn mean_slowdown(t: &RunTable, mit: MitigationConfig, b: &Budget) -> MopacResult<f64> {
    let mut total = 0.0;
    for name in &b.workloads {
        total += slowdown(t, name, mit, b)?;
    }
    Ok(total / b.workloads.len() as f64)
}

/// Every workload under the baseline and each of `mits`, workload by
/// workload.
fn paper_cells(b: &Budget, mits: &[MitigationConfig]) -> Vec<Cell> {
    let base = MitigationConfig::baseline();
    b.workloads
        .iter()
        .flat_map(|name| {
            std::iter::once(base)
                .chain(mits.iter().copied())
                .map(move |m| Cell::paper(name, m, b.instrs))
        })
        .collect()
}

/// A per-workload slowdown matrix: one column per labelled mitigation
/// and a final mean row.
#[derive(Debug, Clone, Copy)]
pub struct Matrix {
    id: &'static str,
    title: &'static str,
    configs: fn() -> Vec<(String, MitigationConfig)>,
}

impl Matrix {
    /// The baseline and every column's run, per workload.
    pub fn cells(&self, b: &Budget) -> Vec<Cell> {
        let mits: Vec<MitigationConfig> = (self.configs)().into_iter().map(|(_, m)| m).collect();
        paper_cells(b, &mits)
    }

    /// The matrix report.
    ///
    /// # Errors
    ///
    /// Returns an error if a cell it reads was not declared.
    pub fn report(&self, t: &RunTable, b: &Budget) -> MopacResult<Report> {
        let configs = (self.configs)();
        let mut headers: Vec<&str> = vec!["workload"];
        headers.extend(configs.iter().map(|(label, _)| label.as_str()));
        let mut r = Report::new(self.id, self.title, &headers);
        let mut sums = vec![0.0f64; configs.len()];
        for name in &b.workloads {
            let mut cells = vec![name.clone()];
            for (i, (_, cfg)) in configs.iter().enumerate() {
                let s = slowdown(t, name, *cfg, b)?;
                sums[i] += s;
                cells.push(pct(s));
            }
            r.row(&cells);
        }
        let mut mean = vec!["mean".to_string()];
        for s in &sums {
            mean.push(pct(s / b.workloads.len() as f64));
        }
        r.row(&mean);
        Ok(r)
    }
}

/// Figure 9: per-workload slowdown of PRAC vs MoPAC-C at
/// T_RH = 1000 / 500 / 250.
pub const FIG9: Matrix = Matrix {
    id: "fig9",
    title: "PRAC vs MoPAC-C slowdowns (paper Fig 9; means 10% / 0.8% / 1.8% / 3.0%)",
    configs: || {
        vec![
            ("PRAC".to_string(), MitigationConfig::prac(500)),
            ("MoPAC-C@1000".to_string(), MitigationConfig::mopac_c(1000)),
            ("MoPAC-C@500".to_string(), MitigationConfig::mopac_c(500)),
            ("MoPAC-C@250".to_string(), MitigationConfig::mopac_c(250)),
        ]
    },
};

/// Figure 11: per-workload slowdown of PRAC vs MoPAC-D at
/// T_RH = 1000 / 500 / 250.
pub const FIG11: Matrix = Matrix {
    id: "fig11",
    title: "PRAC vs MoPAC-D slowdowns (paper Fig 11; means 10% / 0.1% / 0.8% / 3.5%)",
    configs: || {
        vec![
            ("PRAC".to_string(), MitigationConfig::prac(500)),
            ("MoPAC-D@1000".to_string(), MitigationConfig::mopac_d(1000)),
            ("MoPAC-D@500".to_string(), MitigationConfig::mopac_d(500)),
            ("MoPAC-D@250".to_string(), MitigationConfig::mopac_d(250)),
        ]
    },
};

/// Figure 12: MoPAC-D slowdown vs drain-on-REF rate (0 / 1 / 2 / 4
/// entries) at T_RH = 1000 / 500 / 250.
pub const FIG12: Matrix = Matrix {
    id: "fig12",
    title: "MoPAC-D vs drain-on-REF (paper Fig 12; means T1000: 3.1/0.1/0/0%, \
            T500: 6.2/2.9/0.8/0.1%, T250: 14.1/10.5/7.4/3.5%)",
    configs: || {
        let mut configs = Vec::new();
        for t in [1000u64, 500, 250] {
            for drain in [0u32, 1, 2, 4] {
                configs.push((
                    format!("T{t}/d{drain}"),
                    MitigationConfig::mopac_d(t).with_drain_on_ref(drain),
                ));
            }
        }
        configs
    },
};

/// Figure 13: MoPAC-D slowdown vs SRQ size (8 / 16 / 32 entries) at
/// T_RH = 1000 / 500 / 250.
pub const FIG13: Matrix = Matrix {
    id: "fig13",
    title: "MoPAC-D vs SRQ size (paper Fig 13; means T1000: 0.5/0.1/0.1%, \
            T500: 1.9/0.8/0.3%, T250: 9.0/3.5/2.7%)",
    configs: || {
        let mut configs = Vec::new();
        for t in [1000u64, 500, 250] {
            for srq in [8usize, 16, 32] {
                configs.push((
                    format!("T{t}/srq{srq}"),
                    MitigationConfig::mopac_d(t).with_srq_capacity(srq),
                ));
            }
        }
        configs
    },
};

/// Figure 17 (and the artifact's Fig 15): MoPAC-D with and without
/// non-uniform probability at T_RH = 1000 / 500 / 250.
pub const FIG17: Matrix = Matrix {
    id: "fig17",
    title: "MoPAC-D uniform vs NUP (paper Fig 17; means uniform 0.1/0.8/3.5%, \
            NUP 0/0/1.1%)",
    configs: || {
        let mut configs = Vec::new();
        for t in [1000u64, 500, 250] {
            configs.push((format!("uniform@{t}"), MitigationConfig::mopac_d(t)));
            configs.push((format!("NUP@{t}"), MitigationConfig::mopac_d_nup(t)));
        }
        configs
    },
};

/// Figure 18 (Appendix A): MoPAC-C and MoPAC-D with and without
/// integrated Row-Press protection at T_RH = 1000 / 500.
pub const FIG18: Matrix = Matrix {
    id: "fig18",
    title: "Row-Press-hardened MoPAC (paper Fig 18; at T1000 C 0.9%, D 0.4%; \
            at T500 C 1.8%, D 6.8%)",
    configs: || {
        let mut configs = Vec::new();
        for t in [1000u64, 500] {
            configs.push((format!("C@{t}"), MitigationConfig::mopac_c(t)));
            configs.push((
                format!("C+RP@{t}"),
                MitigationConfig::mopac_c(t).with_row_press(),
            ));
            configs.push((format!("D@{t}"), MitigationConfig::mopac_d(t)));
            configs.push((
                format!("D+RP@{t}"),
                MitigationConfig::mopac_d(t).with_row_press(),
            ));
        }
        configs
    },
};

/// Figure 19 (Appendix B): MoPAC-D slowdown vs number of chips per
/// sub-channel (1 / 2 / 4 / 8 / 16).
pub const FIG19: Matrix = Matrix {
    id: "fig19",
    title: "MoPAC-D vs chip count (paper Fig 19; at T250: 2.7/3.1/3.5/3.9/4.2%)",
    configs: || {
        let mut configs = Vec::new();
        for t in [1000u64, 500, 250] {
            for chips in [1u32, 2, 4, 8, 16] {
                configs.push((
                    format!("T{t}/x{chips}"),
                    MitigationConfig::mopac_d(t).with_chips(chips),
                ));
            }
        }
        configs
    },
};

/// Figure 1(d)'s thresholds.
const FIG1D_T_RH: [u64; 6] = [4000, 2000, 1000, 500, 250, 125];

/// Figure 1(d)'s cells: PRAC once, MoPAC-C and MoPAC-D per threshold.
pub fn fig1d_cells(b: &Budget) -> Vec<Cell> {
    let mut mits = vec![MitigationConfig::prac(500)];
    for t in FIG1D_T_RH {
        mits.extend([MitigationConfig::mopac_c(t), MitigationConfig::mopac_d(t)]);
    }
    paper_cells(b, &mits)
}

/// Figure 1(d): the headline — average slowdown of PRAC vs MoPAC as the
/// Rowhammer threshold scales from 4000 (near-term) to 125 (long-term).
///
/// Paper: PRAC stays ~10% across the range; MoPAC grows from 0.2% at 4K
/// to ~1.5% at 500 and 2.5% at 250.
pub fn fig1d(t: &RunTable, b: &Budget) -> MopacResult<Report> {
    let mut r = Report::new(
        "fig1d",
        "Mean slowdown vs T_RH (paper Fig 1d: PRAC ~10% flat; MoPAC 0.2% -> 2.5%)",
        &["T_RH", "PRAC", "MoPAC-C", "MoPAC-D"],
    );
    // PRAC's overhead is threshold-invariant; measure once.
    let prac = mean_slowdown(t, MitigationConfig::prac(500), b)?;
    for trh in FIG1D_T_RH {
        let c = mean_slowdown(t, MitigationConfig::mopac_c(trh), b)?;
        let d = mean_slowdown(t, MitigationConfig::mopac_d(trh), b)?;
        r.row(&[trh.to_string(), pct(prac), pct(c), pct(d)]);
    }
    Ok(r)
}

/// Figure 2's thresholds.
const FIG2_T_RH: [u64; 3] = [4000, 500, 100];

/// Figure 2's cells: PRAC at each threshold.
pub fn fig2_cells(b: &Budget) -> Vec<Cell> {
    paper_cells(b, &FIG2_T_RH.map(MitigationConfig::prac))
}

/// Figure 2: per-workload slowdown of PRAC+ABO (with MOAT) at
/// T_RH = 4000, 500 and 100.
///
/// The paper's headline: the slowdown is identical across thresholds
/// (~10% average, 18% worst case) because it is pure timing overhead,
/// not ABO.
pub fn fig2(t: &RunTable, b: &Budget) -> MopacResult<Report> {
    let mut r = Report::new(
        "fig2",
        "PRAC slowdown per workload at T_RH = 4000 / 500 / 100 \
         (paper: ~identical across thresholds, 10% avg)",
        &["workload", "T=4000", "T=500", "T=100", "alerts@500"],
    );
    let mut sums = [0.0f64; 3];
    for name in &b.workloads {
        let mut cells = vec![name.clone()];
        for (i, trh) in FIG2_T_RH.into_iter().enumerate() {
            let s = slowdown(t, name, MitigationConfig::prac(trh), b)?;
            sums[i] += s;
            cells.push(pct(s));
        }
        let alerts500 = t.paper(name, MitigationConfig::prac(500), b.instrs)?.dram.alerts();
        cells.push(alerts500.to_string());
        r.row(&cells);
    }
    let n = b.workloads.len() as f64;
    r.row(&[
        "mean".into(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        "-".into(),
    ]);
    r.note("paper: 10% average, 18% worst case, invariant in T_RH");
    Ok(r)
}

/// Table 12's thresholds, published update probabilities and paper
/// rates (uniform, NUP).
const TABLE12: [(u64, &str, f64, f64); 3] = [
    (1000, "1/16", 6.2, 3.1),
    (500, "1/8", 12.5, 6.3),
    (250, "1/4", 25.0, 13.4),
];

/// Table 12's cells: MoPAC-D uniform and NUP at each threshold.
pub fn table12_cells(b: &Budget) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (t, ..) in TABLE12 {
        for mit in [MitigationConfig::mopac_d(t), MitigationConfig::mopac_d_nup(t)] {
            cells.extend(b.workloads.iter().map(|n| Cell::paper(n, mit, b.instrs)));
        }
    }
    cells
}

/// SRQ insertions per 100 ACTs, per chip (stats sum over chips).
fn rate(t: &RunTable, mit: MitigationConfig, b: &Budget) -> MopacResult<f64> {
    let mut insertions = 0u64;
    let mut acts = 0u64;
    for name in &b.workloads {
        let run = t.paper(name, mit, b.instrs)?;
        insertions += run.mitigation.srq_insertions;
        acts += run.dram.activates;
    }
    Ok(insertions as f64 / u64::from(mit.chips) as f64 / acts as f64 * 100.0)
}

/// Table 12: SRQ insertions per 100 activations, MoPAC-D uniform vs NUP
/// (paper: 6.2 vs 3.1 at p=1/16; 12.5 vs 6.3 at 1/8; 25.0 vs 13.4 at
/// 1/4).
pub fn table12(t: &RunTable, b: &Budget) -> MopacResult<Report> {
    let mut r = Report::new(
        "table12",
        "SRQ insertions per 100 ACTs (paper Table 12)",
        &["T_RH", "p", "uniform", "paper", "NUP", "paper"],
    );
    for (trh, p, uni_want, nup_want) in TABLE12 {
        let uni = rate(t, MitigationConfig::mopac_d(trh), b)?;
        let nup = rate(t, MitigationConfig::mopac_d_nup(trh), b)?;
        r.row(&[
            trh.to_string(),
            p.to_string(),
            format!("{uni:.1}"),
            format!("{uni_want:.1}"),
            format!("{nup:.1}"),
            format!("{nup_want:.1}"),
        ]);
    }
    Ok(r)
}

/// Table 15's page policies.
const POLICIES: [(&str, PagePolicy); 4] = [
    ("open-page", PagePolicy::Open),
    ("close-page", PagePolicy::ClosedIdle),
    ("tON=100ns", PagePolicy::TimeoutNs(100.0)),
    ("tON=200ns", PagePolicy::TimeoutNs(200.0)),
];

/// Table 15's mitigations, in column order after the baseline.
fn table15_mits() -> [MitigationConfig; 4] {
    [
        MitigationConfig::prac(500),
        MitigationConfig::mopac_d(1000),
        MitigationConfig::mopac_d(500),
        MitigationConfig::mopac_d(250),
    ]
}

/// `name` under `mit` on the paper system with page policy `policy`.
fn policy_cell(name: &str, mit: MitigationConfig, policy: PagePolicy, b: &Budget) -> Cell {
    let mut cell = Cell::paper(name, mit, b.instrs);
    cell.cfg.mc.page_policy = policy;
    cell
}

/// Table 15's cells: per policy, every workload's baseline, then each
/// mitigation over every workload.
pub fn table15_cells(b: &Budget) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (_, policy) in POLICIES {
        for mit in std::iter::once(MitigationConfig::baseline()).chain(table15_mits()) {
            cells.extend(b.workloads.iter().map(|n| policy_cell(n, mit, policy, b)));
        }
    }
    cells
}

/// Table 15 (Appendix C): slowdowns of PRAC and MoPAC-D under proactive
/// row-closure policies (open-page, close-page, tON = 100/200 ns).
///
/// Slowdowns are measured against the *same-policy* baseline, as in the
/// paper; the close-page baseline itself runs ~1.8% behind open-page.
pub fn table15(t: &RunTable, b: &Budget) -> MopacResult<Report> {
    let mut r = Report::new(
        "table15",
        "Row-closure policies (paper Table 15: PRAC 10/7.1/7.5/8.2%; \
         MoPAC-D@500 0.8/1.3/1.0/0.9%)",
        &["policy", "PRAC", "MoPAC-D@1000", "MoPAC-D@500", "MoPAC-D@250", "base IPC"],
    );
    let n = b.workloads.len() as f64;
    for (label, policy) in POLICIES {
        let mut bases = Vec::with_capacity(b.workloads.len());
        for name in &b.workloads {
            bases.push(t.get(&policy_cell(name, MitigationConfig::baseline(), policy, b))?);
        }
        let base_ipc = bases
            .iter()
            .map(|b| b.cores.iter().map(|c| c.ipc).sum::<f64>())
            .sum::<f64>()
            / n;
        let mut cells = vec![label.to_string()];
        for mit in table15_mits() {
            let mut total = 0.0;
            for (name, base) in b.workloads.iter().zip(&bases) {
                total += t.get(&policy_cell(name, mit, policy, b))?.slowdown_vs(base);
            }
            cells.push(pct(total / n));
        }
        cells.push(format!("{base_ipc:.2}"));
        r.row(&cells);
    }
    Ok(r)
}
