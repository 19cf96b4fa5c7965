//! The MoPAC simulator's benchmark: three closed-loop workloads driven
//! in-process from one thread through the library's public entry
//! points, with end-to-end metrics from untraced passes and per-layer
//! costs from a traced pass replayed into standalone layer objects.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! the predictions each per-layer metric carries.

pub mod capture;
pub mod host;
pub mod pass;
pub mod replay;
pub mod workload;

pub use pass::{Digest, Pass};
pub use workload::{cells, Budget, Workload};

/// Environment variables `System::run_loop` reads; the benchmark
/// refuses to run with either set, since they change the kernel's
/// behaviour and cost.
pub const REFUSED_ENV: [&str; 2] = ["MOPAC_PARANOID_SKIP", "MOPAC_TRACE_KERNEL"];

/// Knobs other tools read that must not change this benchmark's load;
/// recorded in the provenance line.
pub const IGNORED_ENV: [&str; 5] = [
    "MOPAC_THREADS",
    "MOPAC_SHARD_THREADS",
    "MOPAC_INSTRS",
    "MOPAC_ATTACK_CYCLES",
    "MOPAC_METRICS",
];

/// End-to-end metric names, units and directions, in report order.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("wall_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Median of `v` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The source revision: `.git/HEAD` of the working directory resolved
/// to a commit id, or `"unknown"` outside a git checkout.
#[must_use]
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
