//! Pre-refactor bit-identity goldens (ISSUE 8 satellite).
//!
//! The subarray/bank-isolation refactor must leave every pre-existing
//! engine bit-identical at `subarrays_per_bank = 1` under
//! `RecoveryScope::SubChannel`: same cycle counts, same RNG streams,
//! same snapshot bytes. This test pins that property against goldens
//! captured from the tree *before* the refactor landed: a mid-run
//! snapshot digest (FNV-1a-64 over the full `System::snapshot` byte
//! stream — device, controller, engines, RNGs and all) plus the final
//! run statistics, per pre-existing engine × kernel.
//!
//! A second golden file, `flip_bit_identity.txt`, pins the same kind of
//! digest for attack runs with the victim-data flip plane enabled, with
//! and without the checker, so the disturbance store, the flip plane's
//! victim words and the flip verdicts are fixed too.
//!
//! Regenerate (only legitimate when a PR intentionally changes the
//! snapshot format or simulation behavior) with:
//!
//! ```text
//! MOPAC_WRITE_GOLDENS=1 cargo test -p mopac-sim --test bit_identity_goldens
//! ```

use mopac::config::MitigationConfig;
use mopac_dram::flip::{EccMode, FlipPlaneConfig, TrhDistribution};
use mopac_sim::attack::{AttackConfig, AttackRun};
use mopac_sim::experiment::{build_traces, mitigation_preset};
use mopac_sim::system::{KernelMode, System, SystemConfig};
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::snapshot::fnv1a64;
use mopac_workloads::attack::DoubleSidedHammer;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The engines that existed before the subarray refactor. `practical`
/// is deliberately absent: it is the engine the refactor introduces,
/// so it has no pre-refactor behavior to pin.
const PRE_REFACTOR_ENGINES: [&str; 7] = [
    "baseline",
    "prac",
    "mopac-c",
    "mopac-d",
    "mopac-d-nup",
    "qprac",
    "cnc-prac",
];

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/sim; the goldens live next to the
    // workspace-level tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/bit_identity.txt")
}

fn flip_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/flip_bit_identity.txt")
}

/// One golden line: mid-run snapshot digest + end-of-run statistics.
fn golden_line(engine: &str, kernel: KernelMode) -> String {
    let mut cfg = SystemConfig::paper_default(
        mitigation_preset(engine, 500).expect("pre-existing engine"),
        20_000,
    );
    cfg.geometry = DramGeometry::tiny();
    cfg.enable_checker = true;
    cfg.kernel = kernel;
    let mut sys = System::new(cfg.clone(), build_traces("xz", &cfg).unwrap()).unwrap();
    // Pause three REF windows in: deep enough that counters, queues and
    // RNG streams have all moved, early enough that the run continues.
    let paused = sys.run_until_refs(3).unwrap();
    let (digest, result) = match paused {
        Some(done) => (0u64, done),
        None => {
            let digest = fnv1a64(&sys.snapshot());
            (digest, sys.run_to_completion().unwrap())
        }
    };
    let kname = match kernel {
        KernelMode::EventDriven => "event",
        KernelMode::Lockstep => "lockstep",
    };
    format!(
        "{engine},{kname},{digest:016x},{},{},{},{},{},{},{},{:016x}",
        result.cycles,
        result.dram.activates,
        result.dram.reads,
        result.dram.rfms,
        result.dram.refreshes,
        result.mitigation.mitigations,
        result.violations,
        result.avg_read_latency.to_bits(),
    )
}

#[test]
fn pre_refactor_engines_match_goldens() {
    let mut lines = Vec::new();
    for engine in PRE_REFACTOR_ENGINES {
        for kernel in [KernelMode::EventDriven, KernelMode::Lockstep] {
            lines.push(golden_line(engine, kernel));
        }
    }
    check_goldens(
        &golden_path(),
        "# engine,kernel,snapshot_fnv1a64,cycles,activates,reads,rfms,refreshes,\
         mitigations,violations,avg_read_latency_bits",
        &lines,
    );
}

/// Renders `lines` under `header` and compares them with the golden file
/// at `path`, or rewrites the file under `MOPAC_WRITE_GOLDENS=1`.
fn check_goldens(path: &Path, header: &str, lines: &[String]) {
    let mut rendered = format!("{header}\n");
    for l in lines {
        let _ = writeln!(rendered, "{l}");
    }
    if std::env::var("MOPAC_WRITE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, &rendered).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing goldens at {} ({e}); generate with MOPAC_WRITE_GOLDENS=1",
            path.display()
        )
    });
    let golden_lines: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(
        golden_lines.len(),
        lines.len(),
        "golden file {} has {} rows, expected {}",
        path.display(),
        golden_lines.len(),
        lines.len()
    );
    for (got, want) in lines.iter().zip(&golden_lines) {
        assert_eq!(got, want, "bit-identity regression vs golden ({header})");
    }
}

/// One flip-plane golden line: an attack run on the tiny geometry with
/// the victim-data plane on, hammering double-sided around `victim`.
/// Records the FNV-1a-64 digest of a mid-run [`AttackRun::snapshot`]
/// (device identity, disturbance store, oracle and flip plane
/// included), the digest of the final snapshot after the readback pass,
/// and the final oracle and flip-plane verdicts.
fn flip_golden_line(label: &str, mitigation: MitigationConfig, victim: u32) -> String {
    const CYCLES: u64 = 200_000;
    let cfg = AttackConfig {
        geometry: DramGeometry::tiny(),
        flip: Some(
            FlipPlaneConfig::new(TrhDistribution::Uniform { lo: 20, hi: 120 })
                .with_flip_probability(0.5)
                .with_ecc(EccMode::Sec),
        ),
        ..AttackConfig::new(mitigation, CYCLES)
    };
    let mut pattern = DoubleSidedHammer::new(BankRef::new(0, 0), victim);
    let mut run = AttackRun::new(&cfg, &mut pattern);
    run.run_until(CYCLES / 2).unwrap();
    let mid = fnv1a64(&run.snapshot());
    run.run_until(CYCLES).unwrap();
    run.verify_readback();
    let end = fnv1a64(&run.snapshot());
    let r = run.result();
    let records = run
        .dram()
        .violation_records()
        .iter()
        .fold(String::new(), |mut s, v| {
            let _ = write!(s, "{}>{}@{};", v.row, v.victim, v.count);
            s
        });
    format!(
        "{label},{victim},{mid:016x},{end:016x},{},{},{},{},{},{records}",
        r.activations,
        r.violations,
        r.flip.bit_flips,
        r.flip.ecc_corrections,
        r.flip.corrupted_reads,
    )
}

/// Pins the flip-plane snapshot bytes and verdicts. `prac` tracks, so
/// its banks save the oracle and the flip plane next to the store;
/// `baseline` does not, so its banks save the flip plane alone.
/// `prac-noalert` (T_RH 200, alert threshold out of reach) never
/// mitigates, so the oracle records violations. Victim 1
/// makes row 0 an aggressor (the bottom edge slot), victim 100 is
/// interior, and the victim below the top row makes row 1023 an
/// aggressor (the top edge slot).
#[test]
fn flip_plane_cells_match_goldens() {
    let cells = [
        ("prac", MitigationConfig::prac(500)),
        ("baseline", MitigationConfig::baseline()),
        ("prac-noalert", MitigationConfig::prac(200).with_alert_threshold(100_000)),
    ];
    let mut lines = Vec::new();
    for (label, mitigation) in cells {
        for victim in [1, 100, DramGeometry::tiny().rows_per_bank - 2] {
            lines.push(flip_golden_line(label, mitigation, victim));
        }
    }
    check_goldens(
        &flip_golden_path(),
        "# engine,victim,mid_snapshot_fnv1a64,final_snapshot_fnv1a64,activations,\
         violations,bit_flips,ecc_corrections,corrupted_reads,violation_records",
        &lines,
    );
}
