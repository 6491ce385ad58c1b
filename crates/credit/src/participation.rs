//! The KaZaA-style self-reported participation level.

use std::collections::HashMap;

use exchange::Key;

use crate::QueuedRequest;

/// Self-reported participation levels, as used by KaZaA.
///
/// Each peer announces its own "participation level" (nominally a function of
/// its uptime and upload/download volumes) and providers prioritise peers
/// with higher announced levels.  The mechanism is trivially subverted — a
/// modified client can announce any value — which is exactly why the paper
/// dismisses it.  Announcements arrive through
/// [`UploadScheduler::report_participation`](crate::UploadScheduler::report_participation),
/// so a simulation can model both honest and cheating peers.
///
/// # Example
///
/// ```
/// use credit::{QueuedRequest, SchedulerKind};
///
/// let mut pl = SchedulerKind::ParticipationLevel.build::<u32>();
/// pl.report_participation(1, 10.0);   // honest, modest contributor
/// pl.report_participation(2, 1000.0); // cheater announcing a huge level
/// let queue = [QueuedRequest::new(1, 60.0), QueuedRequest::new(2, 1.0)];
/// assert_eq!(pl.pick(0, &queue), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipationLevel<P: Key> {
    reported: HashMap<P, f64>,
    honest_volume: HashMap<P, u64>,
}

/// Sorted `(peer, announced_level)` rows, as exported by
/// [`ParticipationLevel::export_levels`].
pub type ReportedLevels<P> = Vec<(P, f64)>;

/// Sorted `(peer, honest_bytes)` rows, as exported by
/// [`ParticipationLevel::export_levels`].
pub type HonestVolumes<P> = Vec<(P, u64)>;

impl<P: Key> ParticipationLevel<P> {
    /// Creates the mechanism with no reports.
    pub(crate) fn new() -> Self {
        ParticipationLevel {
            reported: HashMap::new(),
            honest_volume: HashMap::new(),
        }
    }

    /// Records the level `peer` announces for itself (honest or not).
    ///
    /// Announcements are sanitised so downstream scoring never sees a
    /// non-finite value: NaN collapses to 0, negative levels clamp to 0,
    /// and infinities clamp to `f64::MAX` (a cheater announcing `inf` would
    /// otherwise poison score comparisons).
    pub(crate) fn report(&mut self, peer: P, level: f64) {
        let sanitised = if level.is_nan() {
            0.0
        } else {
            level.clamp(0.0, f64::MAX)
        };
        self.reported.insert(peer, sanitised);
    }

    /// The level `peer` currently announces (0 if it never reported).
    fn reported_level(&self, peer: P) -> f64 {
        self.reported.get(&peer).copied().unwrap_or(0.0)
    }

    /// The level `peer`'s recorded uploads honestly justify (MiB uploaded).
    fn honest_level(&self, peer: P) -> f64 {
        self.honest_volume.get(&peer).copied().unwrap_or(0) as f64 / 1_048_576.0
    }

    /// Both tables as sorted rows (`(peer, announced_level)` and
    /// `(peer, honest_bytes)`) — a canonical export for checkpointing.
    #[must_use]
    pub fn export_levels(&self) -> (ReportedLevels<P>, HonestVolumes<P>) {
        // exchange-lint: allow(D001, reason = "collected and sorted by key before any caller sees it")
        let mut reported: Vec<(P, f64)> = self.reported.iter().map(|(p, l)| (*p, *l)).collect();
        reported.sort_unstable_by_key(|(p, _)| *p);
        // exchange-lint: allow(D001, reason = "collected and sorted by key before any caller sees it")
        let mut honest: Vec<(P, u64)> = self.honest_volume.iter().map(|(p, b)| (*p, *b)).collect();
        honest.sort_unstable_by_key(|(p, _)| *p);
        (reported, honest)
    }

    /// Replaces both tables with previously exported rows.
    pub fn import_levels(&mut self, reported: Vec<(P, f64)>, honest: Vec<(P, u64)>) {
        // exchange-lint: allow(D001, reason = "iterates the sorted Vec argument, not a map")
        self.reported = reported.into_iter().collect();
        self.honest_volume = honest.into_iter().collect();
    }

    /// The announced level dominates; waiting time only breaks ties.
    pub(crate) fn score(&self, request: &QueuedRequest<P>) -> f64 {
        self.reported_level(request.requester) * 1e6 + request.waiting_secs
    }

    /// Records that `uploader` uploaded `bytes` more.  Peers continuously
    /// re-announce their participation level, and an uploader's announcement
    /// tracks the volume it actually uploaded: the honest client.  (Only a
    /// peer that never uploads can keep an inflated announcement.)
    pub(crate) fn record_transfer(&mut self, uploader: P, bytes: u64) {
        *self.honest_volume.entry(uploader).or_insert(0) += bytes;
        self.report(uploader, self.honest_level(uploader));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UploadScheduler;

    #[test]
    fn unreported_peers_have_zero_level() {
        let pl: ParticipationLevel<u32> = ParticipationLevel::new();
        assert_eq!(pl.reported_level(5), 0.0);
        assert_eq!(pl.honest_level(5), 0.0);
    }

    #[test]
    fn cheater_outranks_honest_contributor() {
        let mut pl: ParticipationLevel<u32> = ParticipationLevel::new();
        // Peer 1 really contributes; peer 2 lies.
        pl.record_transfer(1, 500 * 1_048_576);
        assert_eq!(pl.reported_level(1), 500.0, "uploading re-announces");
        pl.report(1, 50.0);
        pl.report(2, 10_000.0);
        let honest = QueuedRequest::new(1u32, 500.0);
        let cheater = QueuedRequest::new(2u32, 1.0);
        assert!(pl.score(&cheater) > pl.score(&honest));
        assert!(pl.honest_level(2) < pl.honest_level(1));
    }

    #[test]
    fn negative_reports_are_clamped() {
        let mut pl: ParticipationLevel<u32> = ParticipationLevel::new();
        pl.report(1, -5.0);
        assert_eq!(pl.reported_level(1), 0.0);
    }

    #[test]
    fn nan_and_infinite_reports_are_sanitised() {
        let mut pl: ParticipationLevel<u32> = ParticipationLevel::new();
        pl.report(1, f64::NAN);
        assert_eq!(pl.reported_level(1), 0.0);
        pl.report(2, f64::INFINITY);
        assert_eq!(pl.reported_level(2), f64::MAX);
        pl.report(3, f64::NEG_INFINITY);
        assert_eq!(pl.reported_level(3), 0.0);
        // Scores stay comparable (pick() asserts on NaN scores).
        let queue = vec![QueuedRequest::new(1u32, 1.0), QueuedRequest::new(2, 1.0)];
        let pl = UploadScheduler::ParticipationLevel(pl);
        assert_eq!(pl.pick(0, &queue), Some(1));
    }

    #[test]
    fn waiting_time_breaks_ties() {
        let mut pl: ParticipationLevel<u32> = ParticipationLevel::new();
        pl.report(1, 5.0);
        pl.report(2, 5.0);
        let queue = vec![QueuedRequest::new(1u32, 10.0), QueuedRequest::new(2, 20.0)];
        assert_eq!(
            UploadScheduler::ParticipationLevel(pl).pick(0, &queue),
            Some(1)
        );
    }
}
