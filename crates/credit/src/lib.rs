//! Baseline incentive mechanisms for comparison with exchange-based incentives.
//!
//! Section II of the paper surveys the incentive mechanisms deployed or
//! proposed at the time.  To compare the exchange mechanism against something
//! concrete (and to support the ablation benchmarks), this crate implements
//! the survey's main alternatives as *upload schedulers*: given the requests
//! waiting in a provider's incoming-request queue, each mechanism scores them
//! and the provider serves the highest-scoring request first.
//!
//! [`UploadScheduler`] is the one scheduler type, a closed enum with one
//! variant per mechanism:
//!
//! * `Fifo` — no incentive at all: serve the longest-waiting request
//!   (the paper's "no exchange" baseline).
//! * `EmuleCredit` ([`EmuleCredit`]) — the eMule-style pairwise credit
//!   system: a requester's queue rank grows with its waiting time, scaled by
//!   a credit modifier derived from the data volumes previously exchanged
//!   between the two peers.
//! * `TitForTat` ([`TitForTat`]) — a BitTorrent-style reciprocation
//!   heuristic: prefer requesters that recently uploaded to *you*, with a
//!   small optimistic allowance for strangers.
//! * `ParticipationLevel` — the KaZaA-style self-reported participation
//!   level, read from [`QueuedRequest::participation`]; trivially
//!   subvertible because peers report their own score.
//! * `ExchangePriority` — the exchange preference adapted to queue ordering:
//!   requesters that could reciprocate in kind are served first.
//!
//! [`SchedulerKind`] names each mechanism in configurations and builds the
//! matching scheduler for a run.  Only eMule credit and tit-for-tat keep
//! history; the other three score each request from the request alone.
//!
//! # Example
//!
//! ```
//! use credit::{QueuedRequest, SchedulerKind};
//!
//! let mut credit = SchedulerKind::EmuleCredit.build::<u32>();
//! // Peer 7 has uploaded a lot to us (peer 0) in the past; peer 8 nothing.
//! credit.record_transfer(7, 0, 50_000_000);
//!
//! let queue = [QueuedRequest::new(8, 100.0), QueuedRequest::new(7, 100.0)];
//! assert_eq!(credit.pick(0, &queue), Some(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod emule;
mod scheduler;
mod tit_for_tat;

pub use emule::EmuleCredit;
pub use scheduler::{SchedulerKind, UploadScheduler};
pub use tit_for_tat::TitForTat;

/// A request waiting in a provider's incoming-request queue, as seen by an
/// incentive mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest<P> {
    /// The peer that issued the request.
    pub requester: P,
    /// How long the request has been waiting, in seconds.
    pub waiting_secs: f64,
    /// Whether the requester could reciprocate: it stores an object the
    /// provider currently wants (read by the exchange-priority scheduler).
    pub reciprocal: bool,
    /// The participation level the requester announces for itself, honest
    /// or not (read by the participation-level scheduler).  Always finite
    /// and non-negative; see [`with_participation`](Self::with_participation).
    pub participation: f64,
}

impl<P> QueuedRequest<P> {
    /// Creates a queued request with no reciprocation opportunity.
    #[must_use]
    pub fn new(requester: P, waiting_secs: f64) -> Self {
        QueuedRequest {
            requester,
            waiting_secs,
            reciprocal: false,
            participation: 0.0,
        }
    }

    /// Sets whether the requester could reciprocate.
    #[must_use]
    pub fn with_reciprocal(mut self, reciprocal: bool) -> Self {
        self.reciprocal = reciprocal;
        self
    }

    /// Sets the participation level the requester announces.
    ///
    /// Announcements are sanitised so scoring never sees a non-finite
    /// value: NaN collapses to 0, negative levels clamp to 0, and
    /// infinities clamp to `f64::MAX` (a cheater announcing `inf` would
    /// otherwise poison score comparisons).
    #[must_use]
    pub fn with_participation(mut self, level: f64) -> Self {
        self.participation = if level.is_nan() {
            0.0
        } else {
            level.clamp(0.0, f64::MAX)
        };
        self
    }
}
