//! Figure 19: MoPAC-D slowdown vs chips per sub-channel.
fn main() {
    mopac_bench::experiments::main("fig19_chips");
}
