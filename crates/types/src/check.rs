//! A tiny deterministic property-testing harness.
//!
//! The workspace's property tests originally used an external framework;
//! to keep the build self-contained they now run on this module. A
//! property is a closure that derives its inputs from a [`DetRng`] and
//! returns `Err(reason)` on failure. [`prop_check`] runs it for a fixed
//! number of cases with seeds derived deterministically from the property
//! name, so failures reproduce exactly and report the offending seed.
//!
//! Set `MOPAC_PROP_CASES` to override the case count (e.g. `=1000` for a
//! deeper local run); a value that is not a non-negative integer
//! panics rather than falling back to the default.
//!
//! # Examples
//!
//! ```
//! use mopac_types::check::prop_check;
//!
//! prop_check("addition commutes", 64, |rng| {
//!     let (a, b) = (rng.next_u64() >> 1, rng.next_u64() >> 1);
//!     if a + b == b + a {
//!         Ok(())
//!     } else {
//!         Err(format!("{a} + {b} mismatch"))
//!     }
//! });
//! ```

use crate::rng::DetRng;

/// Derives a stable 64-bit seed from a property name (FNV-1a).
#[must_use]
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of cases to run: `MOPAC_PROP_CASES` if set, else `cases`.
///
/// # Panics
///
/// Panics if `MOPAC_PROP_CASES` is not a non-negative integer that fits
/// a `u32`.
#[must_use]
fn case_count(cases: u32) -> u32 {
    let n = crate::knob::u64_knob("MOPAC_PROP_CASES", u64::from(cases))
        .unwrap_or_else(|e| panic!("{e}"));
    u32::try_from(n).unwrap_or_else(|_| panic!("MOPAC_PROP_CASES={n} does not fit in u32"))
}

/// Runs `property` for `cases` deterministic cases.
///
/// Each case gets an independent [`DetRng`] forked from a seed derived
/// from `name`, so adding or reordering other properties never perturbs
/// this one's inputs.
///
/// # Panics
///
/// Panics with the case index, seed, and the property's reason on the
/// first failing case — the panic message is everything needed to
/// reproduce (`DetRng::from_seed(<seed>)`).
pub fn prop_check<F>(name: &str, cases: u32, mut property: F)
where
    F: FnMut(&mut DetRng) -> Result<(), String>,
{
    let root = DetRng::from_seed(name_seed(name));
    for case in 0..case_count(cases) {
        let mut rng = root.fork(u64::from(case));
        let seed = rng.seed();
        if let Err(reason) = property(&mut rng) {
            panic!("property '{name}' failed on case {case} (seed {seed:#x}): {reason}");
        }
    }
}

/// Asserts a condition inside a property, formatting a reason on failure.
///
/// Mirrors `prop_assert!` from the external framework: returns early with
/// `Err` instead of panicking so the harness can attach seed context.
#[macro_export]
macro_rules! prop_ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
    ($cond:expr) => {
        if !$cond {
            return Err(format!("condition failed: {}", stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_trivial_property() {
        prop_check("trivially true", 32, |_rng| Ok(()));
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn reports_seed_on_failure() {
        prop_check("always fails", 4, |_rng| Err("nope".into()));
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        prop_check("collect", 8, |rng| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second: Vec<u64> = Vec::new();
        prop_check("collect", 8, |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
    }

    #[test]
    fn ensure_macro_formats() {
        let f = |x: u64| -> Result<(), String> {
            prop_ensure!(x < 10, "x was {x}");
            Ok(())
        };
        assert!(f(5).is_ok());
        assert_eq!(f(12).unwrap_err(), "x was 12");
    }
}
