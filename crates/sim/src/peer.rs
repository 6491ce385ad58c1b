//! Per-peer simulation state.

use std::collections::BTreeMap;

use des::SimTime;
use netsim::SlotPool;
use workload::{ObjectId, PeerId, PeerInterests, Storage};

use crate::{BehaviorKind, CapacityClass, PeerClass};

/// The state of one pending download (one "outstanding request").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WantState {
    /// When the request was issued (used for waiting- and download-time
    /// metrics).
    pub issued_at: SimTime,
    /// Bytes of the object received so far, across all sessions.
    pub received_bytes: u64,
}

impl WantState {
    /// Creates a fresh want issued at `issued_at`, with nothing received.
    /// (Who was asked lives in the request graph's edges; the sessions
    /// delivering the object, in the simulation's download index.)
    #[must_use]
    pub fn new(issued_at: SimTime) -> Self {
        WantState {
            issued_at,
            received_bytes: 0,
        }
    }
}

/// The complete state of one peer.
#[derive(Debug, Clone)]
pub struct PeerState {
    /// The peer's identifier.
    pub id: PeerId,
    /// The peer's strategic behavior, fixed for the run; the event loop
    /// consults its [`BehaviorKind`] methods.
    pub behavior: BehaviorKind,
    /// Whether the peer uploads at all: [`BehaviorKind::uploads`] of
    /// `behavior`, stored beside it because the scheduling hot paths read
    /// it constantly.
    pub sharing: bool,
    /// Whether the peer is currently in the system.  Always `true` without
    /// churn; a departed peer holds no slots, no transfers, no request-graph
    /// edges and no holders-index entries until it rejoins.
    pub online: bool,
    /// The peer's access-link capacity class: a multiplier on the per-slot
    /// rate of its uploads (assigned from [`crate::ClassMix`] at setup).
    pub capacity: CapacityClass,
    /// The categories the peer is interested in.
    pub interests: PeerInterests,
    /// The objects the peer currently stores.
    pub storage: Storage,
    /// Upload transfer slots.
    pub upload_slots: SlotPool,
    /// Download transfer slots.
    pub download_slots: SlotPool,
    /// Outstanding downloads, keyed by object.
    pub wants: BTreeMap<ObjectId, WantState>,
    /// Total bytes this peer has downloaded over the run (for Figure 10).
    pub downloaded_bytes: u64,
    /// Total bytes this peer has uploaded over the run.
    pub uploaded_bytes: u64,
    /// Bytes received that turned out to be junk (a cheating uploader).
    pub junk_bytes: u64,
    /// Bytes received that the peer can never decrypt (a middleman under
    /// [`crate::Protection::Mediated`]).
    pub ciphertext_bytes: u64,
}

impl PeerState {
    /// The peer's class label for reporting.
    #[must_use]
    pub fn class(&self) -> PeerClass {
        self.behavior.class()
    }

    /// Bytes received as genuine, decryptable content.
    #[must_use]
    pub fn usable_bytes(&self) -> u64 {
        self.downloaded_bytes
            .saturating_sub(self.junk_bytes)
            .saturating_sub(self.ciphertext_bytes)
    }

    /// The participation level the peer announces: its behavior applied to
    /// the MiB it has actually uploaded (the KaZaA self-report of Section
    /// II, which participation cheaters inflate).
    pub(crate) fn announced_participation(&self) -> f64 {
        self.behavior
            .reported_participation(self.uploaded_bytes as f64 / (1024.0 * 1024.0))
    }

    /// Whether the peer can accept one more outstanding download.
    #[must_use]
    pub fn can_issue_request(&self, max_pending: usize) -> bool {
        self.wants.len() < max_pending
    }

    /// Whether the peer already stores or is already downloading `object`.
    #[must_use]
    pub fn has_or_wants(&self, object: ObjectId) -> bool {
        self.storage.contains(object) || self.wants.contains_key(&object)
    }

    /// The objects this peer currently wants, in id order.
    #[must_use]
    pub fn wanted_objects(&self) -> Vec<ObjectId> {
        self.wants.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::DetRng;
    use workload::{Catalog, WorkloadConfig};

    fn test_peer(behavior: BehaviorKind) -> PeerState {
        let config = WorkloadConfig::small();
        let mut rng = DetRng::seed_from(1);
        let catalog = Catalog::generate(&config, &mut rng);
        let interests = PeerInterests::generate(&catalog, &config, &mut rng);
        PeerState {
            id: PeerId::new(0),
            behavior,
            sharing: behavior.uploads(),
            online: true,
            capacity: CapacityClass::Medium,
            interests,
            storage: Storage::new(5),
            upload_slots: SlotPool::new(8),
            download_slots: SlotPool::new(80),
            wants: BTreeMap::new(),
            downloaded_bytes: 0,
            uploaded_bytes: 0,
            junk_bytes: 0,
            ciphertext_bytes: 0,
        }
    }

    #[test]
    fn class_follows_behavior() {
        assert_eq!(test_peer(BehaviorKind::Honest).class(), PeerClass::Sharing);
        assert_eq!(
            test_peer(BehaviorKind::FreeRider).class(),
            PeerClass::NonSharing
        );
        assert_eq!(
            test_peer(BehaviorKind::Middleman).class(),
            PeerClass::Sharing
        );
        assert!(test_peer(BehaviorKind::JunkSender).sharing);
        assert!(!test_peer(BehaviorKind::ParticipationCheater).sharing);
    }

    #[test]
    fn usable_bytes_subtract_junk_and_ciphertext() {
        let mut peer = test_peer(BehaviorKind::Honest);
        peer.downloaded_bytes = 100;
        peer.junk_bytes = 30;
        peer.ciphertext_bytes = 20;
        assert_eq!(peer.usable_bytes(), 50);
        peer.junk_bytes = 200; // defensive: never underflows
        assert_eq!(peer.usable_bytes(), 0);
    }

    #[test]
    fn pending_request_budget() {
        let mut peer = test_peer(BehaviorKind::Honest);
        assert!(peer.can_issue_request(2));
        peer.wants
            .insert(ObjectId::new(1), WantState::new(SimTime::ZERO));
        peer.wants
            .insert(ObjectId::new(2), WantState::new(SimTime::ZERO));
        assert!(!peer.can_issue_request(2));
        assert!(peer.can_issue_request(3));
    }

    #[test]
    fn has_or_wants_covers_storage_and_pending() {
        let mut peer = test_peer(BehaviorKind::Honest);
        peer.storage.insert(ObjectId::new(7));
        peer.wants
            .insert(ObjectId::new(9), WantState::new(SimTime::ZERO));
        assert!(peer.has_or_wants(ObjectId::new(7)));
        assert!(peer.has_or_wants(ObjectId::new(9)));
        assert!(!peer.has_or_wants(ObjectId::new(11)));
        assert_eq!(peer.wanted_objects(), vec![ObjectId::new(9)]);
    }

    #[test]
    fn want_state_starts_clean() {
        let want = WantState::new(SimTime::from_secs_f64(5.0));
        assert_eq!(want.issued_at, SimTime::from_secs_f64(5.0));
        assert_eq!(want.received_bytes, 0);
    }
}
