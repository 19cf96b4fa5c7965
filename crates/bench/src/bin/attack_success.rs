//! Attack-success sweep (ISSUE 10): the victim-data verdict per
//! engine, ECC mode, and per-row T_RH distribution.
//!
//! The security suite's oracle answers "did any counter breach T_RH?";
//! this bench answers the question the attacker cares about — "did any
//! read return corrupted data?" — by arming the flip plane and reading
//! the victims back after the hammer. Three cell populations:
//!
//! * `const500` — every cell exactly as strong as the oracle's T_RH:
//!   an oracle-clean engine is structurally flip-free here;
//! * `uniform20-120` — a weak-cell tail far below every engine's ATH,
//!   where mitigation cannot save the weakest cells (MOAT's sweep);
//! * `lognormal300` — the empirical per-cell threshold shape from
//!   profiling studies.
//!
//! Results print as a table and land in workspace-root
//! `BENCH_attack_success.json`, diff-checked by ci.sh like
//! `BENCH_mitigations.json`; the cycle budget is a fixed constant so
//! the committed file is reproducible everywhere. The sweep also
//! asserts the ECC monotonicity contract: at the same seed, SEC ECC
//! never observes *more* corrupted reads than no ECC.

use mopac::EngineRegistry;
use mopac_bench::Report;
use mopac_dram::flip::{EccMode, FlipPlaneConfig, FlipStats, TrhDistribution};
use mopac_sim::attack::{AttackConfig, AttackRun};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_workloads::attack::DoubleSidedHammer;
use std::fmt::Write as _;

/// Fixed cycle budget: the committed JSON is diff-checked, so this
/// must be identical everywhere (not tied to `MOPAC_ATTACK_CYCLES`).
const ATTACK_SUCCESS_CYCLES: u64 = 400_000;

/// The swept cell populations.
const DISTRIBUTIONS: [(&str, TrhDistribution); 3] = [
    ("const500", TrhDistribution::Constant(500)),
    ("uniform20-120", TrhDistribution::Uniform { lo: 20, hi: 120 }),
    (
        "lognormal300",
        TrhDistribution::LogNormal {
            median: 300.0,
            sigma: 0.4,
        },
    ),
];

/// One hammer run with the flip plane armed; returns the flip verdict
/// and the oracle's violation count.
fn run(mitigation: mopac::config::MitigationConfig, flip: FlipPlaneConfig) -> (FlipStats, u64) {
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        flip: Some(flip),
        ..AttackConfig::new(mitigation, ATTACK_SUCCESS_CYCLES)
    };
    let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), 100);
    let mut run = AttackRun::new(&cfg, &mut pattern);
    run.run_until(ATTACK_SUCCESS_CYCLES).expect("attack run");
    run.verify_readback();
    let r = run.result();
    (r.flip, r.violations)
}

fn json_stats(s: &FlipStats) -> String {
    format!(
        "{{\"bit_flips\": {}, \"ecc_corrections\": {}, \"corrupted_reads\": {}, \
         \"attack_success\": {}}}",
        s.bit_flips,
        s.ecc_corrections,
        s.corrupted_reads,
        s.attack_success()
    )
}

fn main() {
    mopac_bench::check_knobs(std::env::vars_os()).unwrap_or_else(|e| panic!("{e}"));
    let registry = EngineRegistry::builtin();
    let engines: Vec<_> = registry.specs().iter().filter(|s| s.tracks()).collect();
    let mut r = Report::new(
        "attack_success",
        "Victim-data corruption per engine, T_RH distribution, and ECC mode",
        &[
            "engine",
            "distribution",
            "flips",
            "corrupted (no ECC)",
            "corrupted (SEC)",
            "verdict",
        ],
    );

    let mut json = String::from("{\n");
    for (ei, spec) in engines.iter().enumerate() {
        let mitigation = (spec.preset)(500);
        let mut dist_entries = Vec::new();
        for (dname, dist) in DISTRIBUTIONS {
            let base = FlipPlaneConfig::new(dist).with_flip_probability(0.25);
            let (raw, raw_viol) = run(mitigation, base);
            let (ecc, ecc_viol) = run(mitigation, base.with_ecc(EccMode::Sec));
            // The oracle never consults the plane: both runs must agree
            // with it and with each other.
            assert_eq!(raw_viol, ecc_viol, "{}: oracle depends on ECC mode", spec.name);
            // Structural contract (OR-only flip sets, ECC-independent
            // draws): SEC can only ever hide corruption, never add it.
            assert!(
                ecc.corrupted_reads <= raw.corrupted_reads,
                "{}/{dname}: ECC-on observed {} corrupted reads vs {} ECC-off",
                spec.name,
                ecc.corrupted_reads,
                raw.corrupted_reads
            );
            let verdict = match (raw.attack_success(), ecc.attack_success()) {
                (false, _) => "clean",
                (true, true) => "corrupted",
                (true, false) => "ecc-saved",
            };
            r.row(&[
                spec.name.to_string(),
                dname.to_string(),
                raw.bit_flips.to_string(),
                raw.corrupted_reads.to_string(),
                ecc.corrupted_reads.to_string(),
                verdict.to_string(),
            ]);
            dist_entries.push(format!(
                "\"{dname}\": {{\"ecc_off\": {}, \"ecc_on\": {}, \"violations\": {raw_viol}}}",
                json_stats(&raw),
                json_stats(&ecc)
            ));
        }
        let _ = write!(json, "  \"{}\": {{{}}}", spec.name, dist_entries.join(", "));
        json.push_str(if ei + 1 < engines.len() { ",\n" } else { "\n" });
        eprintln!("  done {}", spec.name);
    }
    json.push_str("}\n");
    r.emit();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(
            || std::path::PathBuf::from("BENCH_attack_success.json"),
            |root| root.join("BENCH_attack_success.json"),
        );
    mopac_types::persist::atomic_write_str(&path, &json).expect("write BENCH_attack_success.json");
    println!("wrote {}", path.display());
}
