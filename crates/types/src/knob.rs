//! Strict parsing of `MOPAC_*` environment knobs.
//!
//! A numeric knob is either unset (the caller's default applies) or a
//! plain decimal integer; a flag knob is unset, `0` (off) or `1` (on).
//! Anything else — `20k`, `1e6`, `-1`, `yes`, the empty string — is a
//! [`MopacError::Config`] naming the variable and the value, never a
//! silent fall back to the default.

use crate::error::{MopacError, MopacResult};

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

/// Parses an on/off flag knob: `value` is the raw value of the
/// environment variable `name`; unset and `0` mean off, `1` means on.
///
/// # Errors
///
/// Returns [`MopacError::Config`], naming the variable and the value,
/// for any other value (`true`, `yes`, `2` and the empty string are all
/// rejected).
pub fn parse_flag_knob(name: &str, value: Option<&str>) -> MopacResult<bool> {
    match value {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(MopacError::config(format!("{name}={v:?} is not 0 or 1"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn flag_knob_rejects_garbage() {
        let name = "MOPAC_METRICS";
        assert!(!parse_flag_knob(name, None).unwrap());
        assert!(!parse_flag_knob(name, Some("0")).unwrap());
        assert!(parse_flag_knob(name, Some("1")).unwrap());
        for bad in ["", "2", "true", "yes", "on", " 1", "1 ", "01"] {
            let err = parse_flag_knob(name, Some(bad)).unwrap_err();
            assert!(matches!(err, MopacError::Config { .. }), "{name}={bad:?}: {err:?}");
            assert!(err.to_string().contains(&format!("{name}={bad:?}")), "{err}");
        }
    }
}
