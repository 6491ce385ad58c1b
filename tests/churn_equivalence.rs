//! Population dynamics must be invisible to the caching machinery: for
//! arbitrary churn processes (random mean session/downtime, i.e. random
//! join/leave traces), a cache-backed run is bit-identical to an uncached
//! run.

use p2p_exchange::sim::{
    CapacityClass, ChurnConfig, ClassMix, PeerClass, SessionKind, SimConfig, SimReport, Simulation,
};
use proptest::prelude::*;

/// An exhaustive comparable fingerprint of one run, down to the ring-cache
/// counters (which only match when every lookup, store and invalidation
/// replays in the sequential order).
fn fingerprint(report: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (
        (
            report.completed_downloads(),
            report.total_sessions(),
            report.session_counts().clone(),
            report.session_end_counts().clone(),
            report.observed_kinds(),
        ),
        (
            report.total_rings(),
            report.rings_formed().clone(),
            report.token_declines(),
            report.rings_dissolved_at_activation(),
            report.preemptions(),
        ),
        (
            report.mean_download_time_min(PeerClass::Sharing),
            report.mean_download_time_min(PeerClass::NonSharing),
            report.mean_waiting_secs(SessionKind::NonExchange),
            report.mean_session_bytes(SessionKind::NonExchange),
        ),
    )
}

fn churny_config(mean_session_s: f64, mean_downtime_s: f64) -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 14;
    config.sim_duration_s = 900.0;
    config.churn = Some(ChurnConfig {
        mean_session_s,
        mean_downtime_s,
    });
    config.classes = ClassMix::weighted([
        (CapacityClass::Fast, 0.25),
        (CapacityClass::Medium, 0.5),
        (CapacityClass::Slow, 0.25),
    ]);
    config
}

proptest! {
    /// Cached == fresh across random join/leave traces: the churn process
    /// (drawn from random means) drives arbitrary departures and rejoins,
    /// and the ring-candidate cache must stay a pure memoisation through
    /// every teardown and re-index.
    #[test]
    fn cached_runs_equal_uncached_runs_across_random_churn_traces(
        session_scale in 1u32..40,
        downtime_scale in 1u32..20,
        seed in 0u64..1_000,
    ) {
        let mean_session_s = f64::from(session_scale) * 25.0;
        let mean_downtime_s = f64::from(downtime_scale) * 15.0;
        let config = churny_config(mean_session_s, mean_downtime_s);

        let mut uncached = config.clone();
        uncached.ring_candidate_cache = false;
        let fresh = Simulation::new(uncached, seed).run();
        let memoised = Simulation::new(config, seed).run();
        // The stub's prop_assert_eq! takes no context message; the
        // deterministic case seeding makes failures reproducible anyway.
        prop_assert_eq!(fingerprint(&memoised), fingerprint(&fresh));
    }
}
