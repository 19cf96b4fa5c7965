//! Table 4: workload characteristics — validates that the calibrated
//! generators reproduce the paper's MPKI, RBHR, APRI and hot-row skew.
//!
//! MPKI/RBHR/APRI come from a full-system baseline run. The ACT-64+/
//! ACT-200+ columns need a whole 32 ms refresh window of activations,
//! which the timing simulation does not cover at bench budgets, so they
//! are measured by replaying the trace through an untimed row-buffer
//! model for the number of accesses the measured APRI implies per 32 ms.

use crate::table::{campaign_map, Cell, RunTable};
use crate::{Budget, Report};
use mopac::config::MitigationConfig;
use mopac_cpu::trace::TraceSource;
use mopac_memctrl::mapping::{AddressMapper, Mapping};
use mopac_sim::experiment::build_traces;
use mopac_sim::system::SystemConfig;
use mopac_types::collections::{bank_row_key, DetCounter};
use mopac_types::error::MopacResult;
use mopac_types::geometry::DramGeometry;
use mopac_workloads::spec::paper_stats;
use std::collections::VecDeque;

/// Replays ~one tREFW worth of accesses through an untimed row-buffer
/// model; returns (rows with >= 64 ACTs, rows with >= 200 ACTs), both
/// per bank.
///
/// A short per-bank window of recently open rows stands in for the
/// FR-FCFS scheduler's ability to coalesce row hits that arrive
/// slightly out of order (without it, interleaved sequential streams
/// look like row-thrashers, which the timed simulation shows they are
/// not).
fn hot_rows(name: &str, accesses_per_trefw: u64) -> MopacResult<(f64, f64)> {
    const REORDER_WINDOW: usize = 8;
    let geom = DramGeometry::ddr5_32gb();
    let mapper = AddressMapper::new(geom, Mapping::paper_default());
    let cfg = SystemConfig::paper_default(MitigationConfig::baseline(), 0);
    let mut traces = build_traces(name, &cfg)?;
    // Flat-indexed reorder windows and a deterministic activation
    // counter: same accumulator types the library uses, so the table is
    // reproducible independent of hasher seeding.
    let mut open: Vec<VecDeque<u32>> = vec![VecDeque::new(); geom.total_banks() as usize];
    let mut acts = DetCounter::new();
    // The shared LLC absorbs line reuse (hot keys of the Zipf workload)
    // exactly as it does in the timed system.
    let mut llc = mopac_cpu::llc::Llc::paper_default();
    let cap = accesses_per_trefw.min(30_000_000);
    for i in 0..cap {
        let t: &mut Box<dyn TraceSource> = &mut traces[(i % 8) as usize];
        let rec = t.next_record();
        if !llc.access(rec.addr, rec.is_write).is_miss() {
            continue;
        }
        let d = mapper.decode(rec.addr);
        let flat = geom.flat_bank(d.bank.subchannel, d.bank.bank);
        let window = &mut open[flat as usize];
        if !window.contains(&d.row) {
            acts.bump(bank_row_key(flat, d.row));
            window.push_back(d.row);
            if window.len() > REORDER_WINDOW {
                window.pop_front();
            }
        }
    }
    let scale = accesses_per_trefw as f64 / cap as f64;
    let counts = acts.counts();
    let a64 = counts.iter().filter(|&&c| f64::from(c) * scale >= 64.0).count();
    let a200 = counts.iter().filter(|&&c| f64::from(c) * scale >= 200.0).count();
    let banks = f64::from(geom.total_banks());
    Ok((a64 as f64 / banks, a200 as f64 / banks))
}

/// Every workload's baseline run.
pub fn cells(b: &Budget) -> Vec<Cell> {
    b.workloads
        .iter()
        .map(|n| Cell::paper(n, MitigationConfig::baseline(), b.instrs))
        .collect()
}

/// The measured-vs-paper table; the trace replays run as one campaign
/// map on the table's workers.
pub fn report(t: &RunTable, b: &Budget) -> MopacResult<Report> {
    let mut r = Report::new(
        "table4",
        "Workload characteristics, measured vs paper Table 4",
        &[
            "workload", "MPKI", "paper", "RBHR", "paper", "APRI", "paper",
            "ACT64+", "paper", "ACT200+", "paper",
        ],
    );
    let mut runs = Vec::with_capacity(b.workloads.len());
    let mut replays = Vec::with_capacity(b.workloads.len());
    for name in &b.workloads {
        let run = t.paper(name, MitigationConfig::baseline(), b.instrs)?;
        // Accesses in one tREFW, extrapolated from the measured run.
        let sim_s = run.cycles as f64 / 3.0e9;
        let accesses =
            ((run.dram.reads + run.dram.writes) as f64 * (0.032 / sim_s)) as u64;
        runs.push(run);
        replays.push((name.clone(), accesses));
    }
    let hot = campaign_map(t.campaign(), &replays, |(name, accesses): (String, u64)| {
        hot_rows(&name, accesses)
    })?;
    let total_instrs = 8 * b.instrs;
    for ((name, run), (a64, a200)) in b.workloads.iter().zip(runs).zip(hot) {
        // Demand traffic only: subtract prefetch requests, add back the
        // demand reads the prefetcher absorbed.
        let demand = (run.dram.reads + run.dram.writes + run.prefetch.hits
            + run.prefetch.late_hits)
            .saturating_sub(run.prefetch.issued);
        let mpki = demand as f64 / total_instrs as f64 * 1000.0;
        let rbhr = run.rbhr();
        let apri = run.apri(64);
        let paper = paper_stats(name);
        let pf = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        r.row(&[
            name.clone(),
            format!("{mpki:.1}"),
            pf(paper.map(|p| p.mpki)),
            format!("{rbhr:.2}"),
            pf(paper.map(|p| p.rbhr)),
            format!("{apri:.1}"),
            pf(paper.map(|p| p.apri)),
            format!("{a64:.1}"),
            pf(paper.map(|p| p.act64)),
            format!("{a200:.1}"),
            pf(paper.map(|p| p.act200)),
        ]);
    }
    Ok(r)
}
