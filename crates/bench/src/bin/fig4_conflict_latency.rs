//! Figure 4: row-buffer-conflict read latency, base vs PRAC.
fn main() {
    mopac_bench::experiments::main("fig4_conflict_latency");
}
