//! Strict parsing of `MOPAC_*` environment knobs.
//!
//! A numeric knob is either unset (the caller's default applies) or a
//! plain decimal integer. Anything else — `20k`, `1e6`, `-1`, the empty
//! string — is a [`MopacError::Config`] naming the variable and the
//! value, never a silent fall back to the default.
//!
//! [`KNOBS`] lists every `MOPAC_*` name the bins, examples and tests
//! read, and [`check_knobs`] refuses any other, so a misspelt or retired
//! knob (`MOPAC_INSTR=1000000`) fails instead of running the default.

use crate::error::{MopacError, MopacResult};
use std::ffi::OsStr;

/// Every `MOPAC_*` environment variable read anywhere in the workspace.
pub const KNOBS: [&str; 14] = [
    "MOPAC_ATTACK_CYCLES",
    "MOPAC_DATA_DIR",
    "MOPAC_FAULT_INSTRS",
    "MOPAC_FAULT_TIMEOUT_SECS",
    "MOPAC_INSTRS",
    "MOPAC_PROP_CASES",
    "MOPAC_REPLAY_ALERT",
    "MOPAC_REPLAY_ENGINE",
    "MOPAC_REPLAY_INTERVAL",
    "MOPAC_SNAP_REF_WINDOWS",
    "MOPAC_THREADS",
    "MOPAC_TRACE_CAPACITY",
    "MOPAC_WORKLOADS",
    "MOPAC_WRITE_GOLDENS",
];

/// Checks `(name, value)` pairs — typically `std::env::vars_os()` —
/// against [`KNOBS`]. Names outside the `MOPAC_` prefix are ignored.
///
/// # Errors
///
/// Returns [`MopacError::Config`] naming every `MOPAC_*` variable (and
/// its value) that is not in [`KNOBS`].
pub fn check_knobs<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> MopacResult<()>
where
    K: AsRef<OsStr>,
    V: AsRef<OsStr>,
{
    let unknown: Vec<String> = vars
        .into_iter()
        .filter_map(|(k, v)| {
            let name = k.as_ref().to_string_lossy();
            (name.starts_with("MOPAC_") && !KNOBS.contains(&name.as_ref()))
                .then(|| format!("{name}={:?}", v.as_ref().to_string_lossy()))
        })
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    Err(MopacError::config(format!(
        "unknown knob(s) {}; known MOPAC_* knobs: {}",
        unknown.join(", "),
        KNOBS.join(", ")
    )))
}

/// Parses a `u64` knob: `value` is the raw value of the environment
/// variable `name`, `None` when it is unset (which gives `default`).
///
/// # Errors
///
/// Returns [`MopacError::Config`], naming the variable and the value,
/// if the value is not a plain decimal integer (`20k`, `1e6`, `-1` and
/// the empty string are all rejected).
pub fn parse_u64_knob(name: &str, value: Option<&str>, default: u64) -> MopacResult<u64> {
    value.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| MopacError::config(format!("{name}={v:?} is not a non-negative integer")))
    })
}

/// Reads the `u64` knob `name` from the environment through
/// [`parse_u64_knob`].
///
/// # Errors
///
/// Returns [`MopacError::Config`] if the variable is set to anything
/// but a plain decimal integer.
pub fn u64_knob(name: &str, default: u64) -> MopacResult<u64> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_u64_knob(name, raw.as_deref(), default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_mopac_knobs_are_refused() {
        for name in [
            "MOPAC_INSTR",
            "MOPAC_CKPT_DIR",
            "MOPAC_INJECT_PANIC",
            "MOPAC_RUN_ALL_TIMEOUT_SECS",
        ] {
            let err = check_knobs([("PATH", "/bin"), (name, "1")]).unwrap_err();
            assert!(matches!(err, MopacError::Config { .. }), "{name}: {err:?}");
            assert!(err.to_string().contains(&format!("{name}=\"1\"")), "{err}");
        }
    }

    #[test]
    fn every_table_knob_is_accepted() {
        check_knobs(KNOBS.iter().map(|&name| (name, "1"))).unwrap();
    }

    #[test]
    fn non_mopac_variables_are_ignored() {
        check_knobs([
            ("HOME", "/home/u"),
            ("MOPAC", "1"),
            ("XMOPAC_INSTR", "1"),
            ("mopac_instr", "1"),
        ])
        .unwrap();
        check_knobs(std::iter::empty::<(&str, &str)>()).unwrap();
    }

    #[test]
    fn thread_and_case_knobs_reject_garbage() {
        for name in ["MOPAC_THREADS", "MOPAC_PROP_CASES"] {
            assert_eq!(parse_u64_knob(name, None, 0).unwrap(), 0);
            assert_eq!(parse_u64_knob(name, Some("0"), 3).unwrap(), 0);
            assert_eq!(parse_u64_knob(name, Some("4"), 0).unwrap(), 4);
            for bad in ["4x", "-1", "", " 4", "four", "4.0"] {
                let err = parse_u64_knob(name, Some(bad), 0).unwrap_err();
                assert!(matches!(err, MopacError::Config { .. }), "{name}={bad:?}: {err:?}");
                assert!(err.to_string().contains(&format!("{name}={bad:?}")), "{err}");
            }
        }
    }
}
