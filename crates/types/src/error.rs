//! The workspace-wide typed error layer.
//!
//! Every fallible public API in `mopac-dram`, `mopac-memctrl`, and
//! `mopac-sim` returns [`MopacResult`]. The variants separate the
//! failure domains a campaign driver cares about: bad configuration
//! (caller error, not retryable), timing-protocol misuse (a command was
//! issued before the device allowed it — a simulator bug or an injected
//! fault surfacing), forward-progress failures (livelock, cycle-cap,
//! wall-clock timeout — retryable with a bumped seed), and structured
//! diagnostics from the Rowhammer oracle under fault injection.

use crate::time::Cycle;

/// Convenience alias used by all fallible MoPAC APIs.
pub type MopacResult<T> = Result<T, MopacError>;

/// The workspace error type.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MopacError {
    /// A configuration was inconsistent or out of the supported domain.
    Config {
        /// What was wrong.
        message: String,
    },
    /// A DRAM command was issued before its timing constraints allowed.
    ///
    /// In a healthy simulation this indicates a scheduler bug; under
    /// fault injection it is the structured surface of a fault that
    /// pushed a command past its window.
    TimingProtocol {
        /// The offending command mnemonic (`"ACT"`, `"RD"`, ...).
        command: &'static str,
        /// Sub-channel the command targeted.
        subchannel: u32,
        /// Bank the command targeted (`None` for channel-wide commands).
        bank: Option<u32>,
        /// Cycle the command was issued at.
        at: Cycle,
        /// Earliest legal issue cycle, if one exists.
        earliest: Option<Cycle>,
    },
    /// A trace record could not be produced or decoded.
    Trace {
        /// What was wrong.
        message: String,
    },
    /// A workload or mix name did not match any registered spec.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
        /// Every valid workload/mix name, for the error message.
        valid: Vec<String>,
    },
    /// The system stopped retiring instructions for a full watchdog
    /// window while work was still outstanding.
    Livelock {
        /// Cycle at which the watchdog fired.
        cycle: Cycle,
        /// Cycles since the last retired instruction.
        stalled_for: Cycle,
        /// Instructions retired before progress stopped.
        retired: u64,
    },
    /// The run hit the configured `max_cycles` cap before every core
    /// finished.
    CycleCapExceeded {
        /// The configured cap.
        cap: Cycle,
        /// Cores that had finished when the cap was hit.
        finished_cores: usize,
        /// Total cores in the run.
        total_cores: usize,
    },
    /// An experiment exceeded its wall-clock budget.
    Timeout {
        /// The budget in seconds.
        seconds: u64,
        /// The experiment label.
        experiment: String,
    },
    /// A deliberately injected fault made the run unrecoverable.
    InjectedFault {
        /// Description of the fault.
        description: String,
        /// Cycle at which the fault was applied.
        cycle: Cycle,
    },
    /// The Rowhammer oracle observed an escape (a row crossed the
    /// threshold without mitigation). Carried as data so fault campaigns
    /// can report it instead of aborting.
    OracleViolation {
        /// Number of distinct violations observed.
        violations: u64,
        /// Human-readable summary of the first recorded violations.
        detail: String,
    },
    /// An internal invariant failed in release mode.
    Internal {
        /// What was violated.
        message: String,
    },
    /// An I/O failure (persisting campaign results, reading traces).
    Io {
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// A snapshot could not be written or restored (bad magic, version
    /// mismatch, checksum failure, a device configuration other than the
    /// snapshot's, or a length or index out of bounds).
    Snapshot {
        /// What was wrong.
        message: String,
    },
    /// Every retry attempt of an isolated experiment failed.
    ///
    /// Carries the final underlying error so campaign reports keep the
    /// root cause while callers can still distinguish "ran out of
    /// retries" from a single hard failure.
    RetriesExhausted {
        /// The experiment label.
        label: String,
        /// Total attempts made (initial try plus retries).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<MopacError>,
    },
}

impl MopacError {
    /// Shorthand constructor for [`MopacError::Config`].
    #[must_use]
    pub fn config(message: impl Into<String>) -> Self {
        Self::Config {
            message: message.into(),
        }
    }

    /// Shorthand constructor for [`MopacError::Internal`].
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Self {
        Self::Internal {
            message: message.into(),
        }
    }

    /// Shorthand constructor for [`MopacError::Trace`].
    #[must_use]
    pub fn trace(message: impl Into<String>) -> Self {
        Self::Trace {
            message: message.into(),
        }
    }

    /// Shorthand constructor for [`MopacError::Snapshot`].
    #[must_use]
    pub fn snapshot(message: impl Into<String>) -> Self {
        Self::Snapshot {
            message: message.into(),
        }
    }

    /// Whether a retry with a bumped seed could plausibly succeed.
    ///
    /// Configuration and unknown-workload errors are deterministic caller
    /// errors; retrying them wastes a campaign slot.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::Livelock { .. }
                | Self::CycleCapExceeded { .. }
                | Self::Timeout { .. }
                | Self::InjectedFault { .. }
        )
    }
}

impl std::fmt::Display for MopacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config { message } => write!(f, "configuration error: {message}"),
            Self::TimingProtocol {
                command,
                subchannel,
                bank,
                at,
                earliest,
            } => {
                write!(f, "timing violation: {command} on sc{subchannel}")?;
                if let Some(b) = bank {
                    write!(f, " bank{b}")?;
                }
                write!(f, " at cycle {at}")?;
                match earliest {
                    Some(e) => write!(f, " (earliest legal: {e})"),
                    None => write!(f, " (no legal issue slot in this state)"),
                }
            }
            Self::Trace { message } => write!(f, "trace error: {message}"),
            Self::UnknownWorkload { name, valid } => {
                write!(f, "unknown workload '{name}'; valid names: {}", valid.join(", "))
            }
            Self::Livelock {
                cycle,
                stalled_for,
                retired,
            } => write!(
                f,
                "livelock: no instruction retired for {stalled_for} cycles \
                 (at cycle {cycle}, {retired} retired so far)"
            ),
            Self::CycleCapExceeded {
                cap,
                finished_cores,
                total_cores,
            } => write!(
                f,
                "cycle cap {cap} exceeded with {finished_cores}/{total_cores} cores finished"
            ),
            Self::Timeout { seconds, experiment } => {
                write!(f, "experiment '{experiment}' exceeded {seconds}s wall-clock budget")
            }
            Self::InjectedFault { description, cycle } => {
                write!(f, "injected fault at cycle {cycle}: {description}")
            }
            Self::OracleViolation { violations, detail } => {
                write!(f, "Rowhammer oracle reported {violations} violation(s): {detail}")
            }
            Self::Internal { message } => write!(f, "internal error: {message}"),
            Self::Io { message } => write!(f, "I/O error: {message}"),
            Self::Snapshot { message } => write!(f, "snapshot error: {message}"),
            Self::RetriesExhausted { label, attempts, last } => write!(
                f,
                "experiment '{label}' failed after {attempts} attempt(s); last error: {last}"
            ),
        }
    }
}

impl std::error::Error for MopacError {}

impl From<std::io::Error> for MopacError {
    fn from(e: std::io::Error) -> Self {
        Self::Io {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_timing_protocol() {
        let e = MopacError::TimingProtocol {
            command: "ACT",
            subchannel: 1,
            bank: Some(3),
            at: 100,
            earliest: Some(138),
        };
        let s = e.to_string();
        assert!(s.contains("ACT"), "{s}");
        assert!(s.contains("bank3"), "{s}");
        assert!(s.contains("138"), "{s}");
    }

    #[test]
    fn display_unknown_workload_lists_names() {
        let e = MopacError::UnknownWorkload {
            name: "bogus".into(),
            valid: vec!["lbm".into(), "mcf".into()],
        };
        let s = e.to_string();
        assert!(s.contains("bogus") && s.contains("lbm") && s.contains("mcf"), "{s}");
    }

    #[test]
    fn retryability_partition() {
        assert!(MopacError::Livelock {
            cycle: 1,
            stalled_for: 2,
            retired: 3
        }
        .is_retryable());
        assert!(!MopacError::config("bad").is_retryable());
        assert!(!MopacError::UnknownWorkload {
            name: "x".into(),
            valid: vec![]
        }
        .is_retryable());
    }

    #[test]
    fn io_conversion() {
        let ioe = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: MopacError = ioe.into();
        assert!(matches!(e, MopacError::Io { .. }));
    }
}
