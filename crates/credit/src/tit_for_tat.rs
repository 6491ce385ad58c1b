//! A BitTorrent-style reciprocation heuristic.

use std::collections::HashMap;

use exchange::Key;

use crate::QueuedRequest;

/// Prefer requesters that have recently uploaded to this provider.
///
/// BitTorrent's choking algorithm reciprocates within a single file swarm;
/// here the idea is transplanted to whole-object requests: a provider scores
/// each requester by the bytes that requester has uploaded *to it*, with a
/// small "optimistic unchoke" bonus proportional to waiting time so that
/// strangers are not starved forever.
#[derive(Debug, Clone, PartialEq)]
pub struct TitForTat<P: Key> {
    received_from: HashMap<(P, P), u64>,
}

/// Score per second of waiting (the optimistic-unchoke bonus), against
/// 1,000 per megabyte reciprocated.
const OPTIMISTIC_WEIGHT: f64 = 1.0;

impl<P: Key> TitForTat<P> {
    /// Creates the mechanism with no recorded transfers.
    pub(crate) fn new() -> Self {
        TitForTat {
            received_from: HashMap::new(),
        }
    }

    /// Bytes `requester` has uploaded to `provider` so far.
    fn received(&self, provider: P, requester: P) -> u64 {
        self.received_from
            .get(&(provider, requester))
            .copied()
            .unwrap_or(0)
    }

    /// Every recorded pair as `(provider, requester, bytes)`, sorted by key —
    /// a canonical export for checkpointing.
    #[must_use]
    pub fn export_received(&self) -> Vec<(P, P, u64)> {
        let mut rows: Vec<(P, P, u64)> = self
            .received_from
            // exchange-lint: allow(D001, reason = "collected and sorted by key before any caller sees it")
            .iter()
            .map(|((p, r), bytes)| (*p, *r, *bytes))
            .collect();
        rows.sort_unstable_by_key(|(p, r, _)| (*p, *r));
        rows
    }

    /// Replaces the reciprocation table with previously exported rows.
    pub fn import_received(&mut self, rows: Vec<(P, P, u64)>) {
        self.received_from = rows.into_iter().map(|(p, r, b)| ((p, r), b)).collect();
    }

    /// Reciprocated megabytes dominate; waiting time adds the optimistic
    /// allowance.
    pub(crate) fn score(&self, provider: P, request: &QueuedRequest<P>) -> f64 {
        let reciprocation_mb = self.received(provider, request.requester) as f64 / 1_048_576.0;
        reciprocation_mb * 1_000.0 + OPTIMISTIC_WEIGHT * request.waiting_secs
    }

    /// Records that `uploader` transferred `bytes` to `downloader`.
    pub(crate) fn record_transfer(&mut self, uploader: P, downloader: P, bytes: u64) {
        *self
            .received_from
            .entry((downloader, uploader))
            .or_insert(0) += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocation_dominates_waiting_time() {
        let mut tft: TitForTat<u32> = TitForTat::new();
        tft.record_transfer(1, 0, 10 * 1_048_576);
        let generous = QueuedRequest::new(1u32, 0.0);
        let patient = QueuedRequest::new(2u32, 500.0);
        assert!(tft.score(0, &generous) > tft.score(0, &patient));
    }

    #[test]
    fn optimistic_unchoke_eventually_serves_strangers() {
        let mut tft: TitForTat<u32> = TitForTat::new();
        tft.record_transfer(1, 0, 1_048_576); // small contribution
        let generous = QueuedRequest::new(1u32, 0.0);
        let very_patient = QueuedRequest::new(2u32, 10_000.0);
        assert!(tft.score(0, &very_patient) > tft.score(0, &generous));
    }

    #[test]
    fn reciprocation_is_per_provider() {
        let mut tft: TitForTat<u32> = TitForTat::new();
        tft.record_transfer(1, 0, 5 * 1_048_576);
        assert_eq!(tft.received(0, 1), 5 * 1_048_576);
        assert_eq!(
            tft.received(2, 1),
            0,
            "credit with peer 0 does not transfer to peer 2"
        );
    }
}
