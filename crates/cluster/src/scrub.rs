//! Background-scrub scheduling and findings accounting.
//!
//! The storage layer's scrubber (`cnr_storage::scrub`) knows how to
//! validate and repair objects; this module decides *when* sweeps run and
//! remembers *what* they found. The split mirrors the rest of the
//! workspace: `cnr_storage` depends on this crate for [`crate::SimClock`],
//! so the scheduling/accounting side is storage-agnostic — a sweep's
//! findings arrive here as plain counts ([`ScrubFindings`]).
//!
//! A scrub sweep competes with no one in simulated time: like checkpoint
//! uploads (§4.2 of the paper), scrubbing is background work on spare
//! cycles. The scheduler only answers "is a sweep due at time `t`?" on a
//! fixed cadence, and the log keeps the per-sweep history that run-level
//! statistics aggregate.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Plain-count findings of one scrub sweep (the storage layer's report,
/// stripped of key-level detail).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubFindings {
    /// Objects examined.
    pub scanned: u64,
    /// Objects that verified clean on first read.
    pub clean: u64,
    /// Objects whose envelope failed verification.
    pub corrupt_detected: u64,
    /// Corrupt objects healed from a replica and written back.
    pub repaired: u64,
    /// Corrupt objects no source could produce clean.
    pub unrepairable: u64,
    /// Keys skipped because a lazy restore had fetches in flight on them
    /// (the sweep never races an on-demand fault-in; the next sweep
    /// revisits them).
    #[serde(default)]
    pub skipped_in_flight: u64,
}

impl ScrubFindings {
    /// Component-wise sum.
    pub fn accumulate(&mut self, other: ScrubFindings) {
        self.scanned += other.scanned;
        self.clean += other.clean;
        self.corrupt_detected += other.corrupt_detected;
        self.repaired += other.repaired;
        self.unrepairable += other.unrepairable;
        self.skipped_in_flight += other.skipped_in_flight;
    }
}

/// One recorded sweep: when it ran and what it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubSweep {
    /// Simulated time at which the sweep ran.
    pub at: Duration,
    /// The sweep's findings.
    pub findings: ScrubFindings,
}

/// Fixed-cadence sweep scheduler plus findings log.
#[derive(Debug, Clone)]
pub struct ScrubScheduler {
    interval: Duration,
    next_due: Duration,
    sweeps: Vec<ScrubSweep>,
}

impl ScrubScheduler {
    /// A scheduler whose first sweep is due one full `interval` after
    /// time zero (a freshly written checkpoint has nothing to scrub).
    pub fn new(interval: Duration) -> Self {
        assert!(interval > Duration::ZERO, "scrub interval must be positive");
        Self {
            interval,
            next_due: interval,
            sweeps: Vec::new(),
        }
    }

    /// The configured sweep cadence.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// True when a sweep is due at simulated time `now`.
    pub fn due(&self, now: Duration) -> bool {
        now >= self.next_due
    }

    /// Records a completed sweep at `now` and schedules the next one a
    /// full interval later (sweeps do not bunch up after an idle stretch).
    pub fn record(&mut self, now: Duration, findings: ScrubFindings) {
        self.sweeps.push(ScrubSweep { at: now, findings });
        self.next_due = now + self.interval;
    }

    /// Every recorded sweep, in execution order.
    pub fn sweeps(&self) -> &[ScrubSweep] {
        &self.sweeps
    }

    /// Aggregate findings across all recorded sweeps.
    pub fn totals(&self) -> ScrubFindings {
        let mut total = ScrubFindings::default();
        for sweep in &self.sweeps {
            total.accumulate(sweep.findings);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(corrupt: u64, repaired: u64) -> ScrubFindings {
        ScrubFindings {
            scanned: 10,
            clean: 10 - corrupt,
            corrupt_detected: corrupt,
            repaired,
            ..ScrubFindings::default()
        }
    }

    #[test]
    fn sweeps_come_due_on_the_cadence() {
        let mut s = ScrubScheduler::new(Duration::from_secs(60));
        assert!(!s.due(Duration::ZERO), "nothing to scrub at t=0");
        assert!(!s.due(Duration::from_secs(59)));
        assert!(s.due(Duration::from_secs(60)));
        s.record(Duration::from_secs(60), ScrubFindings::default());
        assert!(!s.due(Duration::from_secs(119)));
        assert!(s.due(Duration::from_secs(120)));
    }

    #[test]
    fn late_sweeps_do_not_bunch_up() {
        let mut s = ScrubScheduler::new(Duration::from_secs(60));
        // The job was busy; the sweep runs late at t=200.
        s.record(Duration::from_secs(200), ScrubFindings::default());
        assert!(!s.due(Duration::from_secs(259)), "next due a full interval later");
        assert!(s.due(Duration::from_secs(260)));
    }

    #[test]
    fn log_keeps_order_and_totals() {
        let mut s = ScrubScheduler::new(Duration::from_secs(1));
        s.record(Duration::from_secs(1), findings(3, 3));
        s.record(Duration::from_secs(2), findings(1, 0));
        assert_eq!(s.sweeps().len(), 2);
        assert_eq!(s.sweeps()[0].at, Duration::from_secs(1));
        let t = s.totals();
        assert_eq!(t.scanned, 20);
        assert_eq!(t.corrupt_detected, 4);
        assert_eq!(t.repaired, 3);
        assert_eq!(t.clean, 16);
    }
}
