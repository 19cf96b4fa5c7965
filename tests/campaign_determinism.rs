//! Parallel-campaign determinism: the fault campaign must produce
//! byte-identical CSV rows for the same master seed regardless of the
//! worker-thread count — cell seeds derive from the cell index, and the
//! driver commits results in submission order.

use mopac_sim::campaign::{
    fault_cells, run_fault_campaign_cells, FaultCampaignSpec, FAULT_CAMPAIGN_HEADERS,
};
use std::time::Duration;

/// Renders the campaign's rows the way `IncrementalCsv` would (same
/// escaping rules are unnecessary here: campaign cells never emit
/// commas or quotes in the deterministic columns; a detail message
/// containing one would still compare equal byte-for-byte).
fn campaign_csv(threads: usize, master_seed: u64) -> String {
    let spec = FaultCampaignSpec {
        master_seed,
        // Small budget: determinism is a driver property, not a
        // workload property, so short cells keep the suite fast.
        instrs: 8_000,
        timeout: Duration::from_secs(120),
        threads,
    };
    // A strided slice of the registry x fault matrix: the cells are
    // mitigation-major with six faults each, so every third index
    // still covers every registered mitigation.
    let cells: Vec<_> = fault_cells()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, c)| c)
        .collect();
    let mut csv = FAULT_CAMPAIGN_HEADERS.join(",");
    csv.push('\n');
    run_fault_campaign_cells(&spec, &cells, |outcome| {
        csv.push_str(&outcome.row.join(","));
        csv.push('\n');
    });
    csv
}

#[test]
fn fault_campaign_rows_identical_across_thread_counts() {
    let sequential = campaign_csv(1, 0x5151);
    let parallel = campaign_csv(4, 0x5151);
    assert_eq!(
        sequential.as_bytes(),
        parallel.as_bytes(),
        "CSV bytes diverged between 1 and 4 worker threads"
    );
    // Sanity: the campaign actually ran its cells.
    assert!(sequential.lines().count() > 3, "{sequential}");
}

#[test]
fn fault_campaign_rows_depend_on_master_seed() {
    let a = campaign_csv(2, 0x5151);
    let b = campaign_csv(2, 0x9999);
    // Different master seeds fork different cell seeds; at least the
    // cycle counts should move somewhere in the matrix.
    assert_ne!(a, b, "master seed had no effect on campaign rows");
}
