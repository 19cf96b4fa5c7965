//! Shared infrastructure for the experiment harness.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! prints a paper-vs-measured comparison and appends a CSV file under
//! `EXPERIMENTS-data/`. This library provides the report formatting,
//! CSV output, and budget knobs they share.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use mopac_types::error::MopacResult;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub use mopac_types::knob::{parse_u64_knob, u64_knob};

/// Per-core instruction budget for simulation experiments, overridable
/// with `MOPAC_INSTRS` (the paper uses 100 M; defaults here are sized
/// for a laptop-minutes run as in the artifact's "most evaluations can
/// be done on a laptop").
///
/// # Errors
///
/// Returns [`MopacError::Config`](mopac_types::MopacError::Config) if
/// `MOPAC_INSTRS` is malformed.
pub fn instr_budget() -> MopacResult<u64> {
    u64_knob("MOPAC_INSTRS", 250_000)
}

/// Attack-run cycle budget, overridable with `MOPAC_ATTACK_CYCLES`.
///
/// # Errors
///
/// Returns [`MopacError::Config`](mopac_types::MopacError::Config) if
/// `MOPAC_ATTACK_CYCLES` is malformed.
pub fn attack_cycle_budget() -> MopacResult<u64> {
    u64_knob("MOPAC_ATTACK_CYCLES", 1_500_000)
}

/// Campaign worker threads, overridable with `MOPAC_THREADS`; `0` (the
/// default) means the machine's available parallelism.
///
/// # Errors
///
/// Returns [`MopacError::Config`](mopac_types::MopacError::Config) if
/// `MOPAC_THREADS` is malformed.
pub fn thread_budget() -> MopacResult<usize> {
    let n = u64_knob("MOPAC_THREADS", 0)?;
    usize::try_from(n).map_err(|_| {
        mopac_types::MopacError::config(format!("MOPAC_THREADS={n} does not fit in usize"))
    })
}

/// Workload subset for quick runs: `MOPAC_WORKLOADS=xz,parest` restricts
/// sweeps; default is all 23.
#[must_use]
pub fn workload_filter() -> Option<Vec<String>> {
    std::env::var("MOPAC_WORKLOADS")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
}

/// A table being accumulated for printing and CSV export.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report for experiment id `experiment` (e.g. `"table7"`)
    /// with a human title.
    #[must_use]
    pub fn new(experiment: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            experiment: experiment.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the column count does not match the headers.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of displayable values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(ToString::to_string).collect();
        self.row(&cells);
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.experiment, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout and writes
    /// `EXPERIMENTS-data/<experiment>.csv`.
    pub fn emit(&self) {
        println!("{}", self.to_table());
        if let Err(e) = self.write_csv() {
            eprintln!("warning: could not write CSV: {e}");
        }
    }

    /// Writes the CSV file (atomically — a reader or a crash never sees
    /// a half-written table); returns the path written.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or file cannot be written.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = data_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.experiment));
        let mut csv = String::new();
        let _ = writeln!(
            csv,
            "{}",
            self.headers
                .iter()
                .map(|h| csv_escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                csv,
                "{}",
                row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        mopac_types::persist::atomic_write_str(&path, &csv)?;
        Ok(path)
    }
}

/// Directory for CSV outputs (workspace-root `EXPERIMENTS-data/`, or
/// `MOPAC_DATA_DIR`).
#[must_use]
pub fn data_dir() -> PathBuf {
    std::env::var("MOPAC_DATA_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // Walk up from the cwd to find the workspace root.
            let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            for _ in 0..4 {
                if dir.join("Cargo.toml").exists() {
                    break;
                }
                if let Some(parent) = dir.parent() {
                    dir = parent.to_path_buf();
                } else {
                    break;
                }
            }
            dir.join("EXPERIMENTS-data")
        })
}

/// Runs every paper workload (or the `MOPAC_WORKLOADS` subset) under the
/// baseline and each named mitigation config, and builds a slowdown
/// matrix report with a final mean row.
///
/// # Errors
///
/// Propagates any simulation failure (unknown workload, timing
/// violation) instead of aborting the whole sweep with a panic.
pub fn slowdown_matrix(
    experiment: &str,
    title: &str,
    configs: &[(String, mopac::config::MitigationConfig)],
) -> MopacResult<Report> {
    use mopac_sim::experiment::run_workload;
    let instrs = instr_budget()?;
    let names: Vec<String> = workload_filter().unwrap_or_else(|| {
        mopac_workloads::spec::all_names()
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    });
    let mut headers: Vec<&str> = vec!["workload"];
    for (label, _) in configs {
        headers.push(label.as_str());
    }
    let mut r = Report::new(experiment, title, &headers);
    let mut sums = vec![0.0f64; configs.len()];
    for name in &names {
        let base = run_workload(name, mopac::config::MitigationConfig::baseline(), instrs)?;
        let mut cells = vec![name.clone()];
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let run = run_workload(name, *cfg, instrs)?;
            let s = run.slowdown_vs(&base);
            sums[i] += s;
            cells.push(pct(s));
        }
        r.row(&cells);
        eprintln!("  done {name}");
    }
    let mut mean = vec!["mean".to_string()];
    for s in &sums {
        mean.push(pct(s / names.len() as f64));
    }
    r.row(&mean);
    Ok(r)
}

/// A CSV file written one row at a time, flushed after every row, so a
/// campaign killed mid-flight (panic, OOM, ^C) keeps every completed
/// experiment on disk. Lives in [`data_dir`] like [`Report::write_csv`].
#[derive(Debug)]
pub struct IncrementalCsv {
    path: PathBuf,
    file: fs::File,
    columns: usize,
}

impl IncrementalCsv {
    /// Creates (truncating) `<data_dir>/<experiment>.csv`, writes and
    /// flushes the header row.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or file cannot be created.
    pub fn create(experiment: &str, headers: &[&str]) -> std::io::Result<Self> {
        let dir = data_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{experiment}.csv"));
        let file = fs::File::create(&path)?;
        let mut me = Self {
            path,
            file,
            columns: headers.len(),
        };
        let cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
        me.append(&cells)?;
        Ok(me)
    }

    /// Appends one row and flushes it to disk immediately.
    ///
    /// # Errors
    ///
    /// Returns an error on a column-count mismatch or a write failure.
    pub fn append(&mut self, cells: &[String]) -> std::io::Result<()> {
        use std::io::Write as _;
        if cells.len() != self.columns {
            return Err(std::io::Error::other(format!(
                "row has {} cells, header has {}",
                cells.len(),
                self.columns
            )));
        }
        let line = cells.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(",");
        writeln!(self.file, "{line}")?;
        self.file.flush()
    }

    /// The file being written.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

/// RFC-4180 quoting: wrap in quotes when the cell contains a comma or
/// quote, doubling embedded quotes.
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats a float in scientific notation with two decimals.
#[must_use]
pub fn sci(v: f64) -> String {
    format!("{v:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopac_types::MopacError;

    #[test]
    fn table_renders_aligned() {
        let mut r = Report::new("t", "demo", &["a", "bbbb"]);
        r.row(&["1".into(), "2".into()]);
        let s = r.to_table();
        assert!(s.contains("a  bbbb"));
        assert!(s.contains("1     2"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut r = Report::new("t", "demo", &["a"]);
        r.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut r = Report::new("unit_csv_test", "demo", &["a,b"]);
        r.row(&["x\"y".into()]);
        let dir = std::env::temp_dir().join("mopac-csv-test");
        std::env::set_var("MOPAC_DATA_DIR", &dir);
        let path = r.write_csv().unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"a,b\""));
        assert!(content.contains("\"x\"\"y\""));
        std::env::remove_var("MOPAC_DATA_DIR");
    }

    #[test]
    fn csv_escape_doubles_quotes() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("x\"y"), "\"x\"\"y\"");
    }

    #[test]
    fn u64_knob_is_strict() {
        assert_eq!(
            parse_u64_knob("MOPAC_INSTRS", None, 250_000).unwrap(),
            250_000
        );
        assert_eq!(
            parse_u64_knob("MOPAC_INSTRS", Some("40000"), 250_000).unwrap(),
            40_000
        );
        assert_eq!(parse_u64_knob("MOPAC_INSTRS", Some("0"), 7).unwrap(), 0);
        for bad in ["20k", "", " 5", "1e6", "-1", "2.5", "18446744073709551616"] {
            let err = parse_u64_knob("MOPAC_INSTRS", Some(bad), 250_000).unwrap_err();
            assert!(matches!(err, MopacError::Config { .. }), "{bad:?}: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains("MOPAC_INSTRS"), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
    }

    #[test]
    fn bench_knobs_are_strict() {
        let knobs = [
            "MOPAC_SNAP_REF_WINDOWS",
            "MOPAC_FAULT_INSTRS",
            "MOPAC_FAULT_TIMEOUT_SECS",
            "MOPAC_TRACE_CAPACITY",
            "MOPAC_RUN_ALL_TIMEOUT_SECS",
        ];
        for name in knobs {
            assert_eq!(parse_u64_knob(name, Some("300"), 7).unwrap(), 300);
            let err = parse_u64_knob(name, Some("5m"), 7).unwrap_err();
            assert!(matches!(err, MopacError::Config { .. }), "{name}: {err:?}");
            assert!(err.to_string().contains(&format!("{name}=\"5m\"")), "{err}");
        }
    }

    #[test]
    fn pct_and_sci_format() {
        assert_eq!(pct(0.018), "1.8%");
        assert_eq!(sci(8.48e-9), "8.48e-9");
    }
}
