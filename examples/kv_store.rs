//! Key-value-store scenario: a masstree-like Zipfian workload running
//! through the shared LLC (the paper's motivating datacenter case).
//!
//! ```text
//! cargo run --release -p mopac-sim --example kv_store
//! ```
//!
//! Unlike the calibrated Table 4 sweeps (which model the post-LLC miss
//! stream directly), this example feeds raw addresses through the 8 MB
//! shared LLC, so cache hits, writebacks and DRAM pressure all emerge
//! from the access pattern — then compares PRAC against MoPAC-D on it.

use mopac::config::MitigationConfig;
use mopac_sim::experiment::build_traces;
use mopac_sim::system::{System, SystemConfig};

fn run(mit: MitigationConfig, instrs: u64) -> mopac_sim::system::RunResult {
    let mut cfg = SystemConfig::paper_default(mit, instrs);
    cfg.use_llc = true;
    let traces = build_traces("masstree", &cfg).unwrap();
    System::new(cfg, traces).unwrap().run().unwrap()
}

fn main() {
    mopac_types::knob::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let instrs = 150_000;
    println!("masstree-like KV store through the shared 8 MB LLC...\n");
    let base = run(MitigationConfig::baseline(), instrs);
    println!(
        "baseline: {} cycles, DRAM reads {}, writes {}, RBHR {:.2}, avg lat {:.0} cyc",
        base.cycles,
        base.dram.reads,
        base.dram.writes,
        base.rbhr(),
        base.avg_read_latency
    );
    for (name, cfg) in [
        ("PRAC+MOAT", MitigationConfig::prac(500)),
        ("MoPAC-D", MitigationConfig::mopac_d(500)),
        ("MoPAC-D+NUP", MitigationConfig::mopac_d_nup(500)),
    ] {
        let r = run(cfg, instrs);
        println!(
            "{name:12} slowdown {:+5.1}%  (ALERTs {}, deferred updates {})",
            r.slowdown_vs(&base) * 100.0,
            r.dram.alerts(),
            r.dram.deferred_updates
        );
    }
}
