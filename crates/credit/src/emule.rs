//! The eMule-style pairwise credit system.

use std::collections::HashMap;

use exchange::Key;

use crate::QueuedRequest;

/// Pairwise upload/download volumes between a provider and one requester.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairVolumes {
    /// Bytes the requester has uploaded *to the provider*.
    uploaded_to_me: u64,
    /// Bytes the provider has uploaded *to the requester*.
    downloaded_from_me: u64,
}

/// The eMule credit system (Section II of the paper).
///
/// Each provider keeps, per remote peer, how much that peer has uploaded to it
/// and downloaded from it.  A request's *queue rank* is its waiting time
/// multiplied by a credit modifier derived from those volumes; the modifier is
/// clamped to `[1, 10]` as in eMule, so peers without credit can still be
/// served if they wait long enough — exactly the weakness the paper points
/// out.
#[derive(Debug, Clone, PartialEq)]
pub struct EmuleCredit<P: Key> {
    volumes: HashMap<(P, P), PairVolumes>,
}

impl<P: Key> EmuleCredit<P> {
    /// Creates an empty credit table.
    pub(crate) fn new() -> Self {
        EmuleCredit {
            volumes: HashMap::new(),
        }
    }

    /// The credit modifier the eMule scoring function applies for requests
    /// from `requester` at `provider`, clamped to `[1, 10]`.
    ///
    /// Following eMule's documented rule, the modifier is the smaller of
    /// `2 × uploaded / downloaded` and `sqrt(uploaded_MB + 2)`, computed from
    /// the pair's history; peers that never uploaded anything get 1.
    pub(crate) fn modifier(&self, provider: P, requester: P) -> f64 {
        let Some(v) = self.volumes.get(&(provider, requester)) else {
            return 1.0;
        };
        if v.uploaded_to_me == 0 {
            return 1.0;
        }
        let uploaded_mb = v.uploaded_to_me as f64 / 1_048_576.0;
        let ratio = if v.downloaded_from_me == 0 {
            10.0
        } else {
            2.0 * v.uploaded_to_me as f64 / v.downloaded_from_me as f64
        };
        let cap = (uploaded_mb + 2.0).sqrt();
        ratio.min(cap).clamp(1.0, 10.0)
    }

    /// Every recorded pair as `(provider, requester, uploaded_to_me,
    /// downloaded_from_me)`, sorted by key — a canonical export for
    /// checkpointing.
    #[must_use]
    pub fn export_volumes(&self) -> Vec<(P, P, u64, u64)> {
        let mut rows: Vec<(P, P, u64, u64)> = self
            .volumes
            // exchange-lint: allow(D001, reason = "collected and sorted by key before any caller sees it")
            .iter()
            .map(|((p, r), v)| (*p, *r, v.uploaded_to_me, v.downloaded_from_me))
            .collect();
        rows.sort_unstable_by_key(|(p, r, _, _)| (*p, *r));
        rows
    }

    /// Replaces the credit table with previously exported rows.
    pub fn import_volumes(&mut self, rows: Vec<(P, P, u64, u64)>) {
        self.volumes = rows
            .into_iter()
            .map(|(p, r, up, down)| {
                (
                    (p, r),
                    PairVolumes {
                        uploaded_to_me: up,
                        downloaded_from_me: down,
                    },
                )
            })
            .collect();
    }

    /// A request's queue rank: its waiting time scaled by the requester's
    /// credit modifier at `provider`.
    pub(crate) fn score(&self, provider: P, request: &QueuedRequest<P>) -> f64 {
        request.waiting_secs * self.modifier(provider, request.requester)
    }

    /// Records that `uploader` transferred `bytes` to `downloader`.
    pub(crate) fn record_transfer(&mut self, uploader: P, downloader: P, bytes: u64) {
        // From the downloader's point of view, the uploader earned credit.
        self.volumes
            .entry((downloader, uploader))
            .or_default()
            .uploaded_to_me += bytes;
        // From the uploader's point of view, the downloader consumed credit.
        self.volumes
            .entry((uploader, downloader))
            .or_default()
            .downloaded_from_me += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UploadScheduler;

    #[test]
    fn unknown_peer_has_unit_modifier() {
        let credit: EmuleCredit<u32> = EmuleCredit::new();
        assert_eq!(credit.modifier(0, 1), 1.0);
        assert!(credit.export_volumes().is_empty());
    }

    #[test]
    fn uploading_earns_credit_with_the_receiver() {
        let mut credit: EmuleCredit<u32> = EmuleCredit::new();
        credit.record_transfer(1, 0, 20 * 1_048_576);
        assert!(
            credit.modifier(0, 1) > 1.0,
            "peer 1 should have credit at peer 0"
        );
        assert_eq!(
            credit.modifier(1, 0),
            1.0,
            "peer 0 earned nothing at peer 1"
        );
        assert_eq!(
            credit.export_volumes(),
            vec![(0, 1, 20 * 1_048_576, 0), (1, 0, 0, 20 * 1_048_576)]
        );
    }

    #[test]
    fn modifier_is_clamped_to_ten() {
        let mut credit: EmuleCredit<u32> = EmuleCredit::new();
        credit.record_transfer(1, 0, 10_000 * 1_048_576);
        assert!(credit.modifier(0, 1) <= 10.0);
        assert!(credit.modifier(0, 1) >= 1.0);
    }

    #[test]
    fn balanced_exchange_limits_modifier() {
        let mut credit: EmuleCredit<u32> = EmuleCredit::new();
        // Peer 1 uploaded 10 MB to 0 but also downloaded 10 MB from 0:
        // ratio = 2.0, below the sqrt cap.
        credit.record_transfer(1, 0, 10 * 1_048_576);
        credit.record_transfer(0, 1, 10 * 1_048_576);
        let m = credit.modifier(0, 1);
        assert!(
            (m - 2.0).abs() < 1e-9,
            "expected ratio-based modifier, got {m}"
        );
    }

    #[test]
    fn small_upload_is_capped_by_sqrt_rule() {
        let mut credit: EmuleCredit<u32> = EmuleCredit::new();
        // 1 MB uploaded, nothing downloaded: ratio says 10, cap says sqrt(3) ≈ 1.73.
        credit.record_transfer(1, 0, 1_048_576);
        let m = credit.modifier(0, 1);
        assert!((m - 3f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn score_scales_waiting_time_by_modifier() {
        let mut credit: EmuleCredit<u32> = EmuleCredit::new();
        credit.record_transfer(1, 0, 100 * 1_048_576);
        let with_credit = QueuedRequest::new(1u32, 10.0);
        let without = QueuedRequest::new(2u32, 10.0);
        assert!(credit.score(0, &with_credit) > credit.score(0, &without));
        // But a patient stranger eventually overtakes: the paper's criticism.
        let patient_stranger = QueuedRequest::new(2u32, 1_000.0);
        assert!(credit.score(0, &patient_stranger) > credit.score(0, &with_credit));
    }

    #[test]
    fn pick_prefers_contributors_at_equal_waiting_time() {
        let mut credit: EmuleCredit<u32> = EmuleCredit::new();
        credit.record_transfer(2, 0, 50 * 1_048_576);
        let queue = vec![QueuedRequest::new(1u32, 30.0), QueuedRequest::new(2, 30.0)];
        assert_eq!(
            UploadScheduler::EmuleCredit(credit).pick(0, &queue),
            Some(1)
        );
    }
}
