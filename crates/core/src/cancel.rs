//! Cooperative cancellation for analysis runs.
//!
//! A [`CancelToken`] is a cheap, `Send + Sync` handle shared between the
//! thread running a prover and any number of controllers (a portfolio driver
//! racing engines, a deadline watchdog, a user-facing Ctrl-C handler). The
//! provers poll [`CancelToken::is_cancelled`] at every counterexample-guided
//! iteration / lexicographic level, so cancellation latency is one SMT→LP
//! round trip, not one whole analysis.
//!
//! A cancelled run reports [`TerminationVerdict::Unknown`]: cancellation is
//! indistinguishable from "gave up", never from a proof.
//!
//! [`TerminationVerdict::Unknown`]: crate::TerminationVerdict::Unknown

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cancel/deadline flag polled by the provers.
///
/// Tokens form a hierarchy: [`child`](Self::child) tokens observe their
/// ancestors' cancellation but cancelling a child never propagates upwards.
/// A portfolio driver gives every raced engine a child of the job token: the
/// first proof cancels the *siblings* (via the shared child flag) while the
/// batch-level token stays usable for the remaining jobs.
#[derive(Clone)]
pub struct CancelToken {
    own: Arc<AtomicBool>,
    ancestors: Vec<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh token that never fires until [`cancel`](Self::cancel) is
    /// called.
    pub fn new() -> Self {
        CancelToken {
            own: Arc::new(AtomicBool::new(false)),
            ancestors: Vec::new(),
            deadline: None,
        }
    }

    /// A fresh token that additionally fires once `budget` has elapsed. A
    /// budget too large to represent as an [`Instant`] means no deadline.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            own: Arc::new(AtomicBool::new(false)),
            ancestors: Vec::new(),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// A token that fires when this one fires, but whose own
    /// [`cancel`](Self::cancel) does not propagate back to `self`.
    pub fn child(&self) -> CancelToken {
        let mut ancestors = self.ancestors.clone();
        ancestors.push(self.own.clone());
        CancelToken {
            own: Arc::new(AtomicBool::new(false)),
            ancestors,
            deadline: self.deadline,
        }
    }

    /// A child token with an additional deadline (the tighter of `budget` and
    /// any inherited deadline wins). A budget too large to represent as an
    /// [`Instant`] adds no deadline of its own.
    pub fn child_with_deadline(&self, budget: Duration) -> CancelToken {
        let mut token = self.child();
        if let Some(candidate) = Instant::now().checked_add(budget) {
            token.deadline = Some(match token.deadline {
                Some(inherited) => inherited.min(candidate),
                None => candidate,
            });
        }
        token
    }

    /// Requests cancellation; every clone and child of this token observes
    /// it. Ancestors do not.
    pub fn cancel(&self) {
        self.own.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) was called on any clone of this
    /// token or an ancestor, or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.own.load(Ordering::Acquire)
            || self.ancestors.iter().any(|a| a.load(Ordering::Acquire))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// This token as a [`termite_lp::Interrupt`], the handle the simplex
    /// pivot loops (and the SMT theory solver above them) poll.
    pub fn interrupt(&self) -> termite_lp::Interrupt {
        let token = self.clone();
        termite_lp::Interrupt::new(move || token.is_cancelled())
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// Tokens are control infrastructure, not configuration: two tokens compare
/// equal when they would behave the same right now (same deadline, same
/// current cancellation state). This keeps `AnalysisOptions` comparable.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.is_cancelled() == other.is_cancelled()
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn cancel_is_visible_through_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn elapsed_deadline_fires() {
        let t = CancelToken::with_deadline(Duration::from_secs(0));
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn overlong_deadline_means_no_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(u64::MAX));
        assert!(!t.is_cancelled());
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Duration::from_millis(u64::MAX));
        assert!(!child.is_cancelled());
    }

    #[test]
    fn default_tokens_compare_equal() {
        assert_eq!(CancelToken::new(), CancelToken::new());
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_ne!(CancelToken::new(), cancelled);
    }

    #[test]
    fn token_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert!(
            !parent.is_cancelled(),
            "cancelling a child must not cancel the parent"
        );

        let parent2 = CancelToken::new();
        let child2 = parent2.child();
        parent2.cancel();
        assert!(child2.is_cancelled());
    }

    #[test]
    fn child_deadline_takes_the_tighter_bound() {
        let parent = CancelToken::with_deadline(Duration::from_secs(3600));
        let child = parent.child_with_deadline(Duration::from_secs(0));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
    }
}
