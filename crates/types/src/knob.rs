//! Strict parsing of `MOPAC_*` environment knobs.
//!
//! A numeric knob is either unset (the caller's default applies) or a
//! plain decimal integer. Anything else — `20k`, `1e6`, `-1`, the empty
//! string — is a [`MopacError::Config`] naming the variable and the
//! value, never a silent fall back to the default.

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
}
