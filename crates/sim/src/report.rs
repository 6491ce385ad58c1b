//! Run-level measurements collected by the simulator.

use std::collections::BTreeMap;

use metrics::{Cdf, ClassTally, OnlineStats, SampleSet};

use crate::simulation::{record_codec, RingCacheStats};
use crate::{BehaviorKind, CapacityClass, PeerClass, SessionEnd, SessionKind};

/// Per-behavior measurements of one run: what each strategic population
/// contributed, gained, and got caught doing (the paper's Section III-B
/// question: how much does each cheater gain under a given scheduler ×
/// protection combination?).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BehaviorStats {
    /// Number of peers with this behavior.
    pub peers: usize,
    /// Total bytes uploaded by these peers (junk and relays included).
    pub uploaded_bytes: u64,
    /// Total bytes downloaded by these peers, of any quality.
    pub downloaded_bytes: u64,
    /// Downloaded bytes that turned out to be junk.
    pub junk_bytes: u64,
    /// Downloaded bytes these peers can never decrypt (middlemen under
    /// [`crate::Protection::Mediated`]).
    pub ciphertext_bytes: u64,
    /// Downloads completed as genuine, usable objects.
    pub completed_downloads: u64,
    /// Downloads that completed as undecryptable ciphertext (not counted in
    /// `completed_downloads` or the class download-time statistics).
    pub ciphertext_downloads: u64,
    /// Times an uploader of this behavior was caught serving junk.
    pub cheat_detections: u64,
    /// Download-time statistics (minutes) of the usable completions.
    pub download_time_min: OnlineStats,
}

impl BehaviorStats {
    /// Downloaded bytes that are genuine, decryptable content.
    #[must_use]
    pub fn usable_bytes(&self) -> u64 {
        self.downloaded_bytes
            .saturating_sub(self.junk_bytes)
            .saturating_sub(self.ciphertext_bytes)
    }

    /// Mean usable megabytes downloaded per peer of this behavior, if any
    /// peers carry it.
    #[must_use]
    pub fn mean_usable_mb_per_peer(&self) -> Option<f64> {
        if self.peers == 0 {
            return None;
        }
        Some(self.usable_bytes() as f64 / (1024.0 * 1024.0) / self.peers as f64)
    }

    /// Mean download time in minutes of the usable completions, if any.
    #[must_use]
    pub fn mean_download_time_min(&self) -> Option<f64> {
        if self.download_time_min.is_empty() {
            None
        } else {
            Some(self.download_time_min.mean())
        }
    }
}

/// Everything a finished simulation run reports.
///
/// All quantities map directly onto the paper's figures:
///
/// * mean download time per peer class (Figures 4, 6, 9, 12) and their ratio
///   (Figure 11);
/// * the fraction of sessions that are exchange transfers (Figure 5);
/// * per-session transferred bytes and waiting times broken down by session
///   type (Figures 7 and 8);
/// * per-peer downloaded volume by class (Figure 10);
/// * per-behavior gains, losses and cheat detections (Section III-B), via
///   [`SimReport::behavior_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    download_time_min: ClassTally<PeerClass>,
    /// Download-time samples per capacity class — the per-class fairness
    /// distributions (the Fig. 7/8-style CDFs under heterogeneous links).
    capacity_download_min: BTreeMap<CapacityClass, SampleSet>,
    waiting_secs: BTreeMap<SessionKind, SampleSet>,
    session_bytes: BTreeMap<SessionKind, SampleSet>,
    session_counts: BTreeMap<SessionKind, u64>,
    session_ends: BTreeMap<SessionEnd, u64>,
    volume_per_peer_mb: ClassTally<PeerClass>,
    behaviors: BTreeMap<BehaviorKind, BehaviorStats>,
    completed_downloads: u64,
    rings_formed: BTreeMap<usize, u64>,
    token_declines: u64,
    rings_dissolved_at_activation: u64,
    preemptions: u64,
    ring_cache: RingCacheStats,
    sim_seconds: f64,
    peers: usize,
}

impl SimReport {
    /// Creates an empty report for a run over `peers` peers.
    #[must_use]
    pub fn new(peers: usize) -> Self {
        SimReport {
            download_time_min: ClassTally::new(),
            capacity_download_min: BTreeMap::new(),
            waiting_secs: BTreeMap::new(),
            session_bytes: BTreeMap::new(),
            session_counts: BTreeMap::new(),
            session_ends: BTreeMap::new(),
            volume_per_peer_mb: ClassTally::new(),
            behaviors: BTreeMap::new(),
            completed_downloads: 0,
            rings_formed: BTreeMap::new(),
            token_declines: 0,
            rings_dissolved_at_activation: 0,
            preemptions: 0,
            ring_cache: RingCacheStats::default(),
            sim_seconds: 0.0,
            peers,
        }
    }

    // ---- recording (used by the simulator) ---------------------------------

    /// Records one completed, usable download by a peer of `class`,
    /// `behavior` and `capacity`, in minutes.
    pub fn record_download(
        &mut self,
        class: PeerClass,
        behavior: BehaviorKind,
        capacity: CapacityClass,
        minutes: f64,
    ) {
        self.download_time_min.record(class, minutes);
        self.capacity_download_min
            .entry(capacity)
            .or_insert_with(|| SampleSet::with_capacity(200_000))
            .record(minutes);
        self.completed_downloads += 1;
        let stats = self.behaviors.entry(behavior).or_default();
        stats.completed_downloads += 1;
        stats.download_time_min.record(minutes);
    }

    /// Records a download that completed as undecryptable ciphertext (a
    /// middleman under [`crate::Protection::Mediated`]).  Kept out of the
    /// class download-time statistics: the peer assembled garbage.
    pub fn record_ciphertext_download(&mut self, behavior: BehaviorKind) {
        self.behaviors
            .entry(behavior)
            .or_default()
            .ciphertext_downloads += 1;
    }

    /// Records that an uploader of `behavior` was caught serving junk.
    pub fn record_cheat_detection(&mut self, behavior: BehaviorKind) {
        self.behaviors.entry(behavior).or_default().cheat_detections += 1;
    }

    /// Records one peer's end-of-run byte totals under its behavior.
    pub fn record_peer_behavior_totals(
        &mut self,
        behavior: BehaviorKind,
        uploaded_bytes: u64,
        downloaded_bytes: u64,
        junk_bytes: u64,
        ciphertext_bytes: u64,
    ) {
        let stats = self.behaviors.entry(behavior).or_default();
        stats.peers += 1;
        stats.uploaded_bytes += uploaded_bytes;
        stats.downloaded_bytes += downloaded_bytes;
        stats.junk_bytes += junk_bytes;
        stats.ciphertext_bytes += ciphertext_bytes;
    }

    /// Records the waiting time (request → first byte of a session) of one
    /// session of the given kind.
    pub fn record_waiting(&mut self, kind: SessionKind, seconds: f64) {
        self.waiting_secs
            .entry(kind)
            .or_insert_with(|| SampleSet::with_capacity(200_000))
            .record(seconds);
    }

    /// Records a finished session: its kind, the bytes it carried, and why
    /// it ended.
    pub fn record_session(&mut self, kind: SessionKind, bytes: u64, end: SessionEnd) {
        self.session_bytes
            .entry(kind)
            .or_insert_with(|| SampleSet::with_capacity(200_000))
            .record(bytes as f64);
        *self.session_counts.entry(kind).or_insert(0) += 1;
        *self.session_ends.entry(end).or_insert(0) += 1;
    }

    /// Records the activation of an exchange ring of `size` peers.
    pub fn record_ring(&mut self, size: usize) {
        *self.rings_formed.entry(size).or_insert(0) += 1;
    }

    /// Records a ring proposal that failed token validation.
    pub fn record_token_decline(&mut self) {
        self.token_declines += 1;
    }

    /// Records a ring that passed token validation but fell apart while its
    /// transfers were being activated (a member became infeasible in
    /// between).  Kept separate from token declines so the Fig. 5/6 failure
    /// statistics do not conflate the two modes.
    pub fn record_ring_dissolved_at_activation(&mut self) {
        self.rings_dissolved_at_activation += 1;
    }

    /// Records the preemption of a non-exchange upload.
    pub fn record_preemption(&mut self) {
        self.preemptions += 1;
    }

    /// Records one peer's total downloaded volume at the end of the run.
    pub fn record_peer_volume(&mut self, class: PeerClass, downloaded_bytes: u64) {
        self.volume_per_peer_mb
            .record(class, downloaded_bytes as f64 / (1024.0 * 1024.0));
    }

    /// Stamps the virtual duration the run actually covered.
    pub fn set_sim_seconds(&mut self, seconds: f64) {
        self.sim_seconds = seconds;
    }

    /// Stamps the ring-candidate cache counters of the finished run.
    pub fn set_ring_cache_stats(&mut self, stats: RingCacheStats) {
        self.ring_cache = stats;
    }

    // ---- queries (used by figures, examples and tests) ---------------------

    /// Number of peers in the run.
    #[must_use]
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// Virtual seconds the run covered.
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        self.sim_seconds
    }

    /// Number of downloads completed across all peers.
    #[must_use]
    pub fn completed_downloads(&self) -> u64 {
        self.completed_downloads
    }

    /// Mean download time in minutes for a peer class, if any download of
    /// that class completed.
    #[must_use]
    pub fn mean_download_time_min(&self, class: PeerClass) -> Option<f64> {
        self.download_time_min.mean(&class)
    }

    /// Ratio of non-sharing to sharing mean download time (> 1 means sharers
    /// are better off), if both classes completed downloads.
    #[must_use]
    pub fn download_time_ratio(&self) -> Option<f64> {
        self.download_time_min
            .ratio(PeerClass::NonSharing, PeerClass::Sharing)
    }

    /// Fraction of all sessions that were exchange transfers (Figure 5).
    #[must_use]
    pub fn exchange_session_fraction(&self) -> f64 {
        let total: u64 = self.session_counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let exchange: u64 = self
            .session_counts
            .iter()
            .filter(|(k, _)| k.is_exchange())
            .map(|(_, c)| *c)
            .sum();
        exchange as f64 / total as f64
    }

    /// Number of sessions of each kind.
    #[must_use]
    pub fn session_counts(&self) -> &BTreeMap<SessionKind, u64> {
        &self.session_counts
    }

    /// Total number of sessions of any kind.
    #[must_use]
    pub fn total_sessions(&self) -> u64 {
        self.session_counts.values().sum()
    }

    /// Empirical CDF of bytes carried per session of `kind` (Figure 7).
    #[must_use]
    pub fn session_bytes_cdf(&self, kind: SessionKind) -> Option<Cdf> {
        self.session_bytes.get(&kind).map(SampleSet::cdf)
    }

    /// Mean bytes carried per session of `kind`.
    #[must_use]
    pub fn mean_session_bytes(&self, kind: SessionKind) -> Option<f64> {
        self.session_bytes.get(&kind).map(SampleSet::mean)
    }

    /// Empirical CDF of waiting times (seconds) per session of `kind`
    /// (Figure 8).
    #[must_use]
    pub fn waiting_cdf(&self, kind: SessionKind) -> Option<Cdf> {
        self.waiting_secs.get(&kind).map(SampleSet::cdf)
    }

    /// Mean waiting time in seconds per session of `kind`.
    #[must_use]
    pub fn mean_waiting_secs(&self, kind: SessionKind) -> Option<f64> {
        self.waiting_secs.get(&kind).map(SampleSet::mean)
    }

    /// The session kinds observed during the run, in deterministic order.
    #[must_use]
    pub fn observed_kinds(&self) -> Vec<SessionKind> {
        self.session_counts.keys().copied().collect()
    }

    /// The capacity classes that completed at least one usable download, in
    /// deterministic (Fast < Medium < Slow) order.
    #[must_use]
    pub fn observed_capacity_classes(&self) -> Vec<CapacityClass> {
        self.capacity_download_min.keys().copied().collect()
    }

    /// Empirical CDF of download times (minutes) for peers of capacity
    /// `class` — the per-class fairness distribution.
    #[must_use]
    pub fn capacity_fairness_cdf(&self, class: CapacityClass) -> Option<Cdf> {
        self.capacity_download_min.get(&class).map(SampleSet::cdf)
    }

    /// Mean download time in minutes of capacity `class`, if it completed
    /// any downloads.
    #[must_use]
    pub fn mean_download_time_by_capacity(&self, class: CapacityClass) -> Option<f64> {
        self.capacity_download_min.get(&class).map(SampleSet::mean)
    }

    /// The `p`-th percentile (nearest-rank, `0.0..=1.0`) of capacity
    /// `class`'s download times in minutes — the quantiles the fairness
    /// exports publish.
    #[must_use]
    pub fn capacity_download_percentile(&self, class: CapacityClass, p: f64) -> Option<f64> {
        self.capacity_fairness_cdf(class)
            .map(|cdf| cdf.percentile(p))
    }

    /// Mean downloaded volume per peer of `class`, in megabytes (Figure 10).
    #[must_use]
    pub fn mean_volume_per_peer_mb(&self, class: PeerClass) -> Option<f64> {
        self.volume_per_peer_mb.mean(&class)
    }

    /// How many rings of each size were activated.
    #[must_use]
    pub fn rings_formed(&self) -> &BTreeMap<usize, u64> {
        &self.rings_formed
    }

    /// Total number of rings activated.
    #[must_use]
    pub fn total_rings(&self) -> u64 {
        self.rings_formed.values().sum()
    }

    /// Number of ring proposals rejected during token circulation.
    #[must_use]
    pub fn token_declines(&self) -> u64 {
        self.token_declines
    }

    /// Number of rings that dissolved during activation, after passing token
    /// validation.
    #[must_use]
    pub fn rings_dissolved_at_activation(&self) -> u64 {
        self.rings_dissolved_at_activation
    }

    /// Hit/miss/invalidation counters of the ring-candidate cache over the
    /// run (all zero when the cache was disabled).
    #[must_use]
    pub fn ring_cache_stats(&self) -> RingCacheStats {
        self.ring_cache
    }

    /// Number of non-exchange uploads preempted by exchanges.
    #[must_use]
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// The per-behavior breakdown of the run, keyed by [`BehaviorKind`].
    #[must_use]
    pub fn behavior_breakdown(&self) -> &BTreeMap<BehaviorKind, BehaviorStats> {
        &self.behaviors
    }

    /// The stats of one behavior, if any peer carried it.
    #[must_use]
    pub fn behavior_stats(&self, behavior: BehaviorKind) -> Option<&BehaviorStats> {
        self.behaviors.get(&behavior)
    }

    /// Mean usable megabytes downloaded per peer of `behavior` — the
    /// quantity Section III-B's attacks try to maximise.
    #[must_use]
    pub fn mean_usable_mb_per_peer(&self, behavior: BehaviorKind) -> Option<f64> {
        self.behaviors
            .get(&behavior)
            .and_then(BehaviorStats::mean_usable_mb_per_peer)
    }

    /// Total times a cheating uploader was caught, across behaviors.
    #[must_use]
    pub fn cheat_detections(&self) -> u64 {
        self.behaviors.values().map(|s| s.cheat_detections).sum()
    }

    /// How many recorded sessions ended for each reason.
    #[must_use]
    pub fn session_end_counts(&self) -> &BTreeMap<SessionEnd, u64> {
        &self.session_ends
    }
}

// The snapshot's report section (see `simulation::snapshot`): every
// accumulator, in declaration order.

record_codec!(BehaviorStats {
    peers: usize,
    uploaded_bytes: u64,
    downloaded_bytes: u64,
    junk_bytes: u64,
    ciphertext_bytes: u64,
    completed_downloads: u64,
    ciphertext_downloads: u64,
    cheat_detections: u64,
    download_time_min: OnlineStats,
});

record_codec!(SimReport {
    download_time_min: ClassTally<PeerClass>,
    capacity_download_min: BTreeMap<CapacityClass, SampleSet>,
    waiting_secs: BTreeMap<SessionKind, SampleSet>,
    session_bytes: BTreeMap<SessionKind, SampleSet>,
    session_counts: BTreeMap<SessionKind, u64>,
    session_ends: BTreeMap<SessionEnd, u64>,
    volume_per_peer_mb: ClassTally<PeerClass>,
    behaviors: BTreeMap<BehaviorKind, BehaviorStats>,
    completed_downloads: u64,
    rings_formed: BTreeMap<usize, u64>,
    token_declines: u64,
    rings_dissolved_at_activation: u64,
    preemptions: u64,
    ring_cache: RingCacheStats,
    sim_seconds: f64,
    peers: usize,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_neutral() {
        let r = SimReport::new(10);
        assert_eq!(r.peers(), 10);
        assert_eq!(r.completed_downloads(), 0);
        assert_eq!(r.exchange_session_fraction(), 0.0);
        assert!(r.mean_download_time_min(PeerClass::Sharing).is_none());
        assert!(r.download_time_ratio().is_none());
        assert_eq!(r.total_sessions(), 0);
        assert_eq!(r.total_rings(), 0);
    }

    #[test]
    fn download_metrics_accumulate() {
        let mut r = SimReport::new(2);
        r.record_download(
            PeerClass::Sharing,
            BehaviorKind::Honest,
            CapacityClass::Fast,
            10.0,
        );
        r.record_download(
            PeerClass::Sharing,
            BehaviorKind::Honest,
            CapacityClass::Fast,
            20.0,
        );
        r.record_download(
            PeerClass::NonSharing,
            BehaviorKind::FreeRider,
            CapacityClass::Slow,
            60.0,
        );
        assert_eq!(r.completed_downloads(), 3);
        assert_eq!(r.mean_download_time_min(PeerClass::Sharing), Some(15.0));
        assert_eq!(r.download_time_ratio(), Some(4.0));
    }

    #[test]
    fn capacity_fairness_distributions_split_by_class() {
        let mut r = SimReport::new(3);
        for minutes in [10.0, 20.0, 30.0] {
            r.record_download(
                PeerClass::Sharing,
                BehaviorKind::Honest,
                CapacityClass::Fast,
                minutes,
            );
        }
        r.record_download(
            PeerClass::Sharing,
            BehaviorKind::Honest,
            CapacityClass::Slow,
            90.0,
        );
        assert_eq!(
            r.observed_capacity_classes(),
            vec![CapacityClass::Fast, CapacityClass::Slow]
        );
        assert_eq!(
            r.mean_download_time_by_capacity(CapacityClass::Fast),
            Some(20.0)
        );
        let cdf = r.capacity_fairness_cdf(CapacityClass::Fast).unwrap();
        assert_eq!(cdf.len(), 3);
        assert_eq!(
            r.capacity_download_percentile(CapacityClass::Fast, 0.5),
            Some(20.0)
        );
        assert_eq!(
            r.capacity_download_percentile(CapacityClass::Slow, 0.9),
            Some(90.0)
        );
        assert!(r.capacity_fairness_cdf(CapacityClass::Medium).is_none());
        assert!(r
            .mean_download_time_by_capacity(CapacityClass::Medium)
            .is_none());
    }

    #[test]
    fn session_fraction_counts_exchanges() {
        let mut r = SimReport::new(2);
        r.record_session(SessionKind::NonExchange, 100, SessionEnd::DownloadComplete);
        r.record_session(
            SessionKind::Exchange { ring_size: 2 },
            200,
            SessionEnd::DownloadComplete,
        );
        r.record_session(
            SessionKind::Exchange { ring_size: 3 },
            300,
            SessionEnd::DownloadComplete,
        );
        r.record_session(
            SessionKind::Exchange { ring_size: 2 },
            400,
            SessionEnd::DownloadComplete,
        );
        assert_eq!(r.total_sessions(), 4);
        assert!((r.exchange_session_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(
            r.session_counts()[&SessionKind::Exchange { ring_size: 2 }],
            2
        );
        assert_eq!(r.observed_kinds().len(), 3);
    }

    #[test]
    fn cdfs_reflect_recorded_samples() {
        let mut r = SimReport::new(2);
        for b in [100.0, 200.0, 300.0] {
            r.record_session(
                SessionKind::NonExchange,
                b as u64,
                SessionEnd::DownloadComplete,
            );
        }
        r.record_waiting(SessionKind::NonExchange, 5.0);
        r.record_waiting(SessionKind::NonExchange, 15.0);
        let bytes = r.session_bytes_cdf(SessionKind::NonExchange).unwrap();
        assert_eq!(bytes.len(), 3);
        let waits = r.waiting_cdf(SessionKind::NonExchange).unwrap();
        assert_eq!(waits.len(), 2);
        assert_eq!(r.mean_waiting_secs(SessionKind::NonExchange), Some(10.0));
        assert!(r
            .session_bytes_cdf(SessionKind::Exchange { ring_size: 2 })
            .is_none());
        assert_eq!(r.mean_session_bytes(SessionKind::NonExchange), Some(200.0));
    }

    #[test]
    fn ring_and_preemption_counters() {
        let mut r = SimReport::new(2);
        r.record_ring(2);
        r.record_ring(2);
        r.record_ring(4);
        r.record_token_decline();
        r.record_ring_dissolved_at_activation();
        r.record_ring_dissolved_at_activation();
        r.record_preemption();
        assert_eq!(r.total_rings(), 3);
        assert_eq!(r.rings_formed()[&2], 2);
        assert_eq!(r.token_declines(), 1);
        assert_eq!(r.rings_dissolved_at_activation(), 2);
        assert_eq!(r.preemptions(), 1);
    }

    #[test]
    fn ring_cache_stats_are_stamped() {
        let mut r = SimReport::new(2);
        assert_eq!(r.ring_cache_stats(), RingCacheStats::default());
        let stats = RingCacheStats {
            hits: 5,
            misses: 2,
            invalidations: 1,
        };
        r.set_ring_cache_stats(stats);
        assert_eq!(r.ring_cache_stats(), stats);
    }

    #[test]
    fn per_peer_volume_by_class() {
        let mut r = SimReport::new(2);
        r.record_peer_volume(PeerClass::Sharing, 100 * 1024 * 1024);
        r.record_peer_volume(PeerClass::NonSharing, 10 * 1024 * 1024);
        assert_eq!(r.mean_volume_per_peer_mb(PeerClass::Sharing), Some(100.0));
        assert_eq!(r.mean_volume_per_peer_mb(PeerClass::NonSharing), Some(10.0));
        r.set_sim_seconds(3_600.0);
        assert_eq!(r.sim_seconds(), 3_600.0);
    }

    #[test]
    fn behavior_breakdown_accumulates_gains_and_detections() {
        let mut r = SimReport::new(3);
        let mb = 1024 * 1024;
        r.record_peer_behavior_totals(BehaviorKind::Middleman, 5 * mb, 10 * mb, 0, 4 * mb);
        r.record_peer_behavior_totals(BehaviorKind::Honest, 20 * mb, 8 * mb, 2 * mb, 0);
        r.record_peer_behavior_totals(BehaviorKind::Honest, 0, 0, 0, 0);
        r.record_cheat_detection(BehaviorKind::JunkSender);
        r.record_cheat_detection(BehaviorKind::JunkSender);
        r.record_ciphertext_download(BehaviorKind::Middleman);

        let middleman = r.behavior_stats(BehaviorKind::Middleman).unwrap();
        assert_eq!(middleman.peers, 1);
        assert_eq!(middleman.usable_bytes(), 6 * mb);
        assert_eq!(middleman.mean_usable_mb_per_peer(), Some(6.0));
        assert_eq!(middleman.ciphertext_downloads, 1);

        let honest = r.behavior_stats(BehaviorKind::Honest).unwrap();
        assert_eq!(honest.peers, 2);
        assert_eq!(honest.usable_bytes(), 6 * mb);
        assert_eq!(r.mean_usable_mb_per_peer(BehaviorKind::Honest), Some(3.0));

        assert_eq!(r.cheat_detections(), 2);
        assert_eq!(
            r.behavior_stats(BehaviorKind::JunkSender)
                .unwrap()
                .cheat_detections,
            2
        );
        assert!(r.behavior_stats(BehaviorKind::FreeRider).is_none());
        assert_eq!(r.behavior_breakdown().len(), 3);
    }

    #[test]
    fn session_ends_are_counted_per_reason() {
        let mut r = SimReport::new(2);
        r.record_session(SessionKind::NonExchange, 10, SessionEnd::DownloadComplete);
        r.record_session(
            SessionKind::Exchange { ring_size: 2 },
            20,
            SessionEnd::CheatDetected,
        );
        r.record_session(
            SessionKind::Exchange { ring_size: 2 },
            30,
            SessionEnd::RingDissolved,
        );
        assert_eq!(r.session_end_counts()[&SessionEnd::CheatDetected], 1);
        assert_eq!(r.session_end_counts()[&SessionEnd::RingDissolved], 1);
        assert!(!r.session_end_counts().contains_key(&SessionEnd::Preempted));
    }

    #[test]
    fn download_times_split_by_behavior() {
        let mut r = SimReport::new(2);
        r.record_download(
            PeerClass::Sharing,
            BehaviorKind::Honest,
            CapacityClass::Medium,
            10.0,
        );
        r.record_download(
            PeerClass::Sharing,
            BehaviorKind::JunkSender,
            CapacityClass::Medium,
            30.0,
        );
        let honest = r.behavior_stats(BehaviorKind::Honest).unwrap();
        assert_eq!(honest.mean_download_time_min(), Some(10.0));
        assert_eq!(honest.completed_downloads, 1);
        let junk = r.behavior_stats(BehaviorKind::JunkSender).unwrap();
        assert_eq!(junk.mean_download_time_min(), Some(30.0));
        // The class tally still aggregates both (both upload, hence Sharing).
        assert_eq!(r.mean_download_time_min(PeerClass::Sharing), Some(20.0));
    }
}
