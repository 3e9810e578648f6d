//! Progress-based stuck-domain detection.
//!
//! The watchdog tracks the last simulated instant the server domain made
//! observable progress (completed a request, started service). When that
//! timestamp falls more than `timeout` behind the clock the domain is
//! declared stuck; the chaos world then restarts it, paying the
//! platform's full spawn cost and recording the detection-to-recovery
//! latency. Progress-based (rather than flag-based) detection means the
//! watchdog also catches stalls nobody explicitly signalled.

use xc_sim::time::Nanos;

/// Tracks one domain's progress timestamp against a stuck timeout.
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: Nanos,
    last_progress: Nanos,
}

impl Watchdog {
    /// A watchdog over a fresh domain (progress at time zero) with the
    /// given stuck `timeout`.
    pub fn new(timeout: Nanos) -> Self {
        Watchdog {
            timeout,
            last_progress: Nanos::ZERO,
        }
    }

    /// Records that the domain made progress at `now`. The timestamp is
    /// monotonic: an out-of-order note never moves it backwards.
    pub fn note_progress(&mut self, now: Nanos) {
        self.last_progress = self.last_progress.max(now);
    }

    /// The last instant the domain made progress.
    pub fn last_progress(&self) -> Nanos {
        self.last_progress
    }

    /// Whether the domain has gone at least the timeout without progress.
    pub fn is_stuck(&self, now: Nanos) -> bool {
        now.saturating_sub(self.last_progress) >= self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_domains_become_stuck_only_after_timeout() {
        let wd = Watchdog::new(Nanos::from_millis(10));
        assert!(!wd.is_stuck(Nanos::from_millis(9)));
        assert!(wd.is_stuck(Nanos::from_millis(10)));
    }

    #[test]
    fn progress_resets_the_clock_per_domain() {
        let mut wd = Watchdog::new(Nanos::from_millis(5));
        assert!(wd.is_stuck(Nanos::from_millis(10)));
        wd.note_progress(Nanos::from_millis(8));
        assert!(!wd.is_stuck(Nanos::from_millis(10)));
        assert!(wd.is_stuck(Nanos::from_millis(13)));
        assert_eq!(wd.last_progress(), Nanos::from_millis(8));
    }

    #[test]
    fn progress_is_monotonic() {
        let mut wd = Watchdog::new(Nanos::from_millis(5));
        wd.note_progress(Nanos::from_millis(7));
        wd.note_progress(Nanos::from_millis(3)); // stale note, ignored
        assert_eq!(wd.last_progress(), Nanos::from_millis(7));
    }
}
