//! Cooperative cancellation for campaign execution.
//!
//! A [`CancelToken`] is the engine's graceful-shutdown surface: the
//! executor asks it before starting each run (never mid-run), so a
//! cancelled campaign finishes the runs already in flight, flushes
//! every completed record to the journal, and reports the partial
//! tallies it has with an explicit [`CompletionStatus::Interrupted`].
//! The `repro` CLI wires Ctrl-C to one token shared by every campaign
//! of the invocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Did the executor drain the whole plan, or was it cancelled first?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Every scheduled run completed (executed or resumed).
    Complete,
    /// A cancel request stopped the campaign before the plan drained;
    /// tallies cover only the runs that finished.
    Interrupted,
}

impl CompletionStatus {
    /// Did the plan drain fully?
    pub fn is_complete(self) -> bool {
        matches!(self, CompletionStatus::Complete)
    }
}

/// Cooperative cancellation flag, consulted by the executor before
/// each run starts.
///
/// Two trip mechanisms:
/// * [`CancelToken::cancel`] — external request (signal handler, test).
/// * [`CancelToken::after_runs`] — a budget of run *starts*, the
///   deterministic stand-in for "killed mid-campaign" that the
///   resume-law tests and proptests use (no processes, no signals).
///   Gating starts, not completions, is what makes the count exact
///   under parallelism: a worker cannot begin run `n + 1` while run
///   `n` is still in flight.
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    /// Run-start tickets left; `u64::MAX` = unlimited.
    tickets: AtomicU64,
}

impl CancelToken {
    /// A token that trips only on an explicit [`CancelToken::cancel`].
    pub fn new() -> Arc<Self> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            tickets: AtomicU64::new(u64::MAX),
        })
    }

    /// A token that lets exactly `runs` runs start and then trips
    /// itself — deterministic mid-campaign interruption for tests.
    pub fn after_runs(runs: u64) -> Arc<Self> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(runs == 0),
            tickets: AtomicU64::new(runs),
        })
    }

    /// Request cancellation. Idempotent; the executor stops *starting*
    /// runs, it never aborts one mid-flight.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Executor gate: may one more run start? `false` once the token
    /// is cancelled. An [`CancelToken::after_runs`] token hands out
    /// its tickets atomically — each start takes one, and taking the
    /// last one trips the token — so exactly that many runs execute
    /// however many workers race here.
    pub fn try_start_run(&self) -> bool {
        if self.is_cancelled() {
            return false;
        }
        if self.tickets.load(Ordering::SeqCst) == u64::MAX {
            return true;
        }
        match self.tickets.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| t.checked_sub(1)) {
            Ok(1) => {
                self.cancel();
                true
            }
            Ok(_) => true,
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_token_trips_only_on_cancel() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        for _ in 0..100 {
            assert!(t.try_start_run());
        }
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.try_start_run());
    }

    #[test]
    fn countdown_token_trips_after_n_runs() {
        let t = CancelToken::after_runs(3);
        assert!(t.try_start_run());
        assert!(t.try_start_run());
        assert!(!t.is_cancelled());
        assert!(t.try_start_run(), "the third ticket still starts its run");
        assert!(t.is_cancelled());
        assert!(!t.try_start_run());
    }

    #[test]
    fn zero_countdown_starts_cancelled() {
        let t = CancelToken::after_runs(0);
        assert!(t.is_cancelled());
        assert!(!t.try_start_run());
    }

    #[test]
    fn completion_status_predicates() {
        assert!(CompletionStatus::Complete.is_complete());
        assert!(!CompletionStatus::Interrupted.is_complete());
    }
}
