//! Panic-isolated, timeout-guarded experiment execution.
//!
//! Long fault campaigns must not lose an evening of results to one bad
//! cell. [`IsolatedRunner`] executes each experiment on its own thread
//! with three layers of protection:
//!
//! 1. **Panic isolation** — the closure runs under
//!    [`std::panic::catch_unwind`]; a panicking experiment is reported
//!    as [`RunStatus::Panicked`] with the payload message, and the
//!    campaign continues.
//! 2. **Wall-clock timeout** — the parent waits on a channel with
//!    [`std::sync::mpsc::Receiver::recv_timeout`]; an experiment that
//!    exceeds its budget is reported as [`RunStatus::TimedOut`]. The
//!    worker thread itself cannot be killed and is *detached* — it
//!    keeps burning its CPU until it finishes or the process exits, so
//!    timeouts should be generous and timed-out work is never retried
//!    in-process with the same budget expectations.
//! 3. **Retry** — transient failures (panic, timeout, or an error for
//!    which [`MopacError::is_retryable`] holds, e.g. a livelock) are
//!    retried up to [`IsolatedRunner::retries`] times with the attempt
//!    index passed back to the closure so it can bump its seed;
//!    deterministic failures (bad config, unknown workload) are not
//!    retried. When a retryable failure survives every retry the final
//!    error is wrapped in the typed [`MopacError::RetriesExhausted`],
//!    preserving the last underlying error.

use mopac_types::error::{MopacError, MopacResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How an isolated experiment ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Finished and returned a value.
    Done,
    /// Returned a typed error.
    Failed,
    /// Panicked; the payload message is carried in the report.
    Panicked,
    /// Exceeded the wall-clock budget (worker left running, detached).
    TimedOut,
}

/// Outcome of one isolated experiment (after retries).
#[derive(Debug)]
pub struct RunReport<T> {
    /// Experiment label (used in errors and logs).
    pub label: String,
    /// Attempts made (1, or 2 after a retry).
    pub attempts: u32,
    /// Wall-clock time of the *final* attempt.
    pub elapsed: Duration,
    /// Terminal status of the final attempt.
    pub status: RunStatus,
    /// The value, if the final attempt succeeded.
    pub value: Option<T>,
    /// The error, if it failed / panicked / timed out.
    pub error: Option<MopacError>,
}

impl<T> RunReport<T> {
    /// Collapses the report into a plain `Result`.
    ///
    /// # Errors
    ///
    /// Returns the stored error when the final attempt did not finish.
    pub fn into_result(self) -> MopacResult<T> {
        match (self.value, self.error) {
            (Some(v), _) => Ok(v),
            (None, Some(e)) => Err(e),
            (None, None) => Err(MopacError::internal(format!(
                "experiment '{}' produced neither value nor error",
                self.label
            ))),
        }
    }
}

/// Executes experiments with panic isolation, timeouts and retries.
#[derive(Debug, Clone)]
pub struct IsolatedRunner {
    /// Wall-clock budget per attempt.
    pub timeout: Duration,
    /// Retries after a retryable failure (default 1).
    pub retries: u32,
}

impl Default for IsolatedRunner {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(600),
            retries: 1,
        }
    }
}

/// What a single attempt produced, as sent over the channel.
enum AttemptOutcome<T> {
    Value(MopacResult<T>),
    Panic(String),
}

impl IsolatedRunner {
    /// A runner with the given per-attempt budget and one retry.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            timeout,
            ..Self::default()
        }
    }

    /// Sets the retry budget (builder style).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Runs `work` in isolation. The closure receives the attempt index
    /// (0 on the first try, 1 on the retry) so it can derive a bumped
    /// seed; it must be `Send + 'static` because a timed-out attempt's
    /// thread outlives this call.
    pub fn run<T, F>(&self, label: &str, work: F) -> RunReport<T>
    where
        T: Send + 'static,
        F: Fn(u32) -> MopacResult<T> + Send + Sync + Clone + 'static,
    {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let attempt_idx = attempts - 1;
            let start = Instant::now();
            let (tx, rx) = mpsc::channel::<AttemptOutcome<T>>();
            let w = work.clone();
            // On spawn failure the closure (and `tx`) is dropped, which
            // surfaces below as a disconnected channel.
            let spawned = std::thread::Builder::new()
                .name(format!("mopac-exp-{label}-{attempt_idx}"))
                .spawn(move || {
                    let outcome = match catch_unwind(AssertUnwindSafe(|| w(attempt_idx))) {
                        Ok(r) => AttemptOutcome::Value(r),
                        Err(payload) => AttemptOutcome::Panic(panic_message(&*payload)),
                    };
                    // The parent may have timed out and gone away.
                    let _ = tx.send(outcome);
                });
            drop(spawned);
            let (status, value, error) = match rx.recv_timeout(self.timeout) {
                Ok(AttemptOutcome::Value(Ok(v))) => (RunStatus::Done, Some(v), None),
                Ok(AttemptOutcome::Value(Err(e))) => (RunStatus::Failed, None, Some(e)),
                Ok(AttemptOutcome::Panic(msg)) => (
                    RunStatus::Panicked,
                    None,
                    Some(MopacError::internal(format!(
                        "experiment '{label}' panicked: {msg}"
                    ))),
                ),
                Err(mpsc::RecvTimeoutError::Timeout | mpsc::RecvTimeoutError::Disconnected) => (
                    RunStatus::TimedOut,
                    None,
                    Some(MopacError::Timeout {
                        seconds: self.timeout.as_secs(),
                        experiment: label.to_string(),
                    }),
                ),
            };
            let retryable = match (&status, &error) {
                (RunStatus::Done, _) => false,
                (RunStatus::Panicked | RunStatus::TimedOut, _) => true,
                (RunStatus::Failed, Some(e)) => e.is_retryable(),
                (RunStatus::Failed, None) => false,
            };
            if status == RunStatus::Done || !retryable || attempts > self.retries {
                // A retryable failure that survived every retry gets the
                // typed wrapper; a first-attempt failure with no retry
                // budget keeps its raw error (nothing was exhausted).
                let error = match error {
                    Some(e) if retryable && attempts > 1 => Some(MopacError::RetriesExhausted {
                        label: label.to_string(),
                        attempts,
                        last: Box::new(e),
                    }),
                    other => other,
                };
                return RunReport {
                    label: label.to_string(),
                    attempts,
                    elapsed: start.elapsed(),
                    status,
                    value,
                    error,
                };
            }
        }
    }
}

/// Extracts the human message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload.downcast_ref::<&'static str>().map_or_else(
        || {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string())
        },
        |s| (*s).to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn runner() -> IsolatedRunner {
        IsolatedRunner::with_timeout(Duration::from_secs(5))
    }

    #[test]
    fn success_passes_value_through() {
        let r = runner().run("ok", |attempt| Ok(40 + attempt));
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.into_result().unwrap(), 40);
    }

    #[test]
    fn panic_is_caught_and_retried_with_bumped_attempt() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let r = runner().run("flaky", move |attempt| {
            c.fetch_add(1, Ordering::SeqCst);
            assert!(attempt != 0, "deliberate first-attempt panic");
            Ok(attempt)
        });
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(r.attempts, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(r.value, Some(1));
    }

    #[test]
    fn persistent_panic_reports_payload() {
        let r: RunReport<()> = runner().run("boom", |_| panic!("kaboom {}", 7));
        assert_eq!(r.status, RunStatus::Panicked);
        assert_eq!(r.attempts, 2);
        let msg = r.error.unwrap().to_string();
        assert!(msg.contains("kaboom 7"), "{msg}");
    }

    #[test]
    fn deterministic_error_is_not_retried() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let r: RunReport<()> = runner().run("bad-config", move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            Err(MopacError::config("nope"))
        });
        assert_eq!(r.status, RunStatus::Failed);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn livelock_error_is_retried() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let r: RunReport<()> = runner().run("livelocked", move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            Err(MopacError::Livelock {
                cycle: 100,
                stalled_for: 50,
                retired: 0,
            })
        });
        assert_eq!(r.status, RunStatus::Failed);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn timeout_fires_and_leaves_worker_detached() {
        let runner = IsolatedRunner::with_timeout(Duration::from_millis(50)).with_retries(0);
        let r: RunReport<()> = runner.run("sleepy", |_| {
            std::thread::sleep(Duration::from_secs(30));
            Ok(())
        });
        assert_eq!(r.status, RunStatus::TimedOut);
        // No retry budget: the raw error comes back un-wrapped.
        assert!(matches!(
            r.error,
            Some(MopacError::Timeout { seconds: 0, .. })
        ));
    }

    #[test]
    fn exhausted_retries_yield_typed_error() {
        let r: RunReport<()> = runner().with_retries(2).run("stuck", |_| {
            Err(MopacError::Livelock {
                cycle: 100,
                stalled_for: 50,
                retired: 0,
            })
        });
        assert_eq!(r.status, RunStatus::Failed);
        assert_eq!(r.attempts, 3);
        match r.error {
            Some(MopacError::RetriesExhausted {
                label,
                attempts,
                last,
            }) => {
                assert_eq!(label, "stuck");
                assert_eq!(attempts, 3);
                assert!(matches!(*last, MopacError::Livelock { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}
