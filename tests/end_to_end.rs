//! Cross-crate integration tests: whole simulations run end to end and the
//! headline properties of the paper hold qualitatively.

use p2p_exchange::exchange::ExchangePolicy;
use p2p_exchange::sim::{PeerClass, SessionKind, SimConfig, Simulation};

/// A moderately loaded configuration where the exchange incentive should be
/// clearly visible: more outstanding demand than upload slots.
fn loaded_config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 60;
    config.max_pending_objects = 6;
    config.link.upload_kbps = 40.0;
    config.sim_duration_s = 8_000.0;
    config
}

fn run(policy: ExchangePolicy, seed: u64) -> p2p_exchange::sim::SimReport {
    let mut config = loaded_config();
    config.discipline = policy;
    Simulation::new(config, seed).run()
}

#[test]
fn downloads_complete_under_every_discipline() {
    for policy in ExchangePolicy::paper_set() {
        let report = run(policy, 1);
        assert!(
            report.completed_downloads() > 50,
            "{} should complete a healthy number of downloads, got {}",
            policy.label(),
            report.completed_downloads()
        );
    }
}

#[test]
fn exchange_disciplines_reward_sharing_peers() {
    let report = run(ExchangePolicy::two_five_way(), 2);
    let sharing = report
        .mean_download_time_min(PeerClass::Sharing)
        .expect("sharing downloads completed");
    let non_sharing = report
        .mean_download_time_min(PeerClass::NonSharing)
        .expect("non-sharing downloads completed");
    assert!(
        non_sharing > sharing,
        "free-riders should wait longer (sharing {sharing:.1} min vs non-sharing {non_sharing:.1} min)"
    );
}

#[test]
fn no_exchange_baseline_treats_classes_roughly_equally() {
    let report = run(ExchangePolicy::NoExchange, 3);
    let ratio = report
        .download_time_ratio()
        .expect("both classes completed");
    assert!(
        (0.8..1.25).contains(&ratio),
        "without exchanges the class ratio should be near 1, got {ratio:.2}"
    );
    assert_eq!(report.exchange_session_fraction(), 0.0);
}

#[test]
fn exchange_discipline_beats_no_exchange_for_sharers() {
    let baseline = run(ExchangePolicy::NoExchange, 4);
    let exchange = run(ExchangePolicy::two_five_way(), 4);
    let baseline_sharing = baseline.mean_download_time_min(PeerClass::Sharing).unwrap();
    let exchange_sharing = exchange.mean_download_time_min(PeerClass::Sharing).unwrap();
    assert!(
        exchange_sharing < baseline_sharing * 1.05,
        "sharers should not be worse off with exchanges \
         (no-exchange {baseline_sharing:.1} min, 2-5-way {exchange_sharing:.1} min)"
    );
}

#[test]
fn ring_size_bound_is_respected_and_pairwise_uses_only_two_way() {
    let pairwise = run(ExchangePolicy::Pairwise, 5);
    for kind in pairwise.observed_kinds() {
        if let SessionKind::Exchange { ring_size } = kind {
            assert_eq!(ring_size, 2);
        }
    }
    let bounded = run(ExchangePolicy::PreferShorter { max_ring: 3 }, 5);
    for size in bounded.rings_formed().keys() {
        assert!(
            *size <= 3,
            "ring of size {size} exceeds the configured bound"
        );
    }
}

#[test]
fn exchange_fraction_grows_with_load() {
    let mut light = loaded_config();
    light.link.upload_kbps = 140.0;
    light.discipline = ExchangePolicy::two_five_way();
    let light_report = Simulation::new(light, 6).run();

    let mut heavy = loaded_config();
    heavy.link.upload_kbps = 40.0;
    heavy.discipline = ExchangePolicy::two_five_way();
    let heavy_report = Simulation::new(heavy, 6).run();

    assert!(
        heavy_report.exchange_session_fraction() >= light_report.exchange_session_fraction(),
        "a more loaded system should devote at least as large a share of sessions to exchanges \
         (heavy {:.2} vs light {:.2})",
        heavy_report.exchange_session_fraction(),
        light_report.exchange_session_fraction()
    );
}

#[test]
fn non_exchange_sessions_wait_longer_than_exchange_sessions() {
    let report = run(ExchangePolicy::two_five_way(), 7);
    let non_exchange = report.mean_waiting_secs(SessionKind::NonExchange);
    let pairwise = report.mean_waiting_secs(SessionKind::Exchange { ring_size: 2 });
    if let (Some(ne), Some(pw)) = (non_exchange, pairwise) {
        assert!(
            ne >= pw,
            "non-exchange sessions should not wait less than exchange sessions \
             (non-exchange {ne:.0}s vs pairwise {pw:.0}s)"
        );
    }
}

#[test]
fn runs_are_deterministic_across_identical_configs() {
    let a = run(ExchangePolicy::five_two_way(), 8);
    let b = run(ExchangePolicy::five_two_way(), 8);
    assert_eq!(a.completed_downloads(), b.completed_downloads());
    assert_eq!(a.total_sessions(), b.total_sessions());
    assert_eq!(a.total_rings(), b.total_rings());
    assert_eq!(
        a.mean_download_time_min(PeerClass::NonSharing),
        b.mean_download_time_min(PeerClass::NonSharing)
    );
}

/// With `--features audit`, one loaded end-to-end run is driven through the
/// between-events invariant checker: every event must leave slot accounting,
/// transfer provision, ring structure, byte conservation and the ring-cache
/// entries consistent, and the final report must balance.
#[cfg(feature = "audit")]
#[test]
fn loaded_run_survives_the_invariant_audit() {
    let mut config = loaded_config();
    config.num_peers = 24;
    config.sim_duration_s = 1_200.0;
    config.discipline = ExchangePolicy::two_five_way();
    let report = Simulation::new(config, 11).run_audited();
    assert!(report.completed_downloads() > 0);
}

#[test]
fn all_sharing_population_still_functions() {
    let mut config = loaded_config();
    config.behaviors = p2p_exchange::sim::BehaviorMix::honest();
    config.discipline = ExchangePolicy::two_five_way();
    let report = Simulation::new(config, 9).run();
    assert!(report.completed_downloads() > 0);
    assert!(report
        .mean_download_time_min(PeerClass::NonSharing)
        .is_none());
}
