//! Integration tests of the workload model and metric plumbing as used by
//! the simulator: catalog statistics, storage behaviour under the simulated
//! maintenance policy, and report/CDF consistency.

use p2p_exchange::des::DetRng;
use p2p_exchange::sim::{
    CapacityClass, CatastropheConfig, ClassMix, FlashCrowdConfig, PeerClass, SessionKind,
    SimConfig, Simulation,
};
use p2p_exchange::workload::{Catalog, PeerInterests, RequestGenerator, WorkloadConfig};

#[test]
fn paper_catalog_has_the_expected_scale() {
    let config = WorkloadConfig::paper_defaults();
    let catalog = Catalog::generate(&config, &mut DetRng::seed_from(1));
    assert_eq!(catalog.num_categories(), 300);
    // Expected objects: 300 categories × uniform(1,300) ≈ 45k on average.
    assert!(catalog.num_objects() > 20_000);
    assert!(catalog.num_objects() < 80_000);
    assert!(catalog.iter().all(|o| o.size_bytes == 20 * 1024 * 1024));
}

#[test]
fn request_stream_respects_interests_and_popularity_direction() {
    let mut config = WorkloadConfig::paper_defaults();
    config.object_popularity_factor = 1.0;
    config.category_popularity_factor = 1.0;
    let mut rng = DetRng::seed_from(2);
    let catalog = Catalog::generate(&config, &mut rng);
    let interests = PeerInterests::generate(&catalog, &config, &mut rng);
    let generator = RequestGenerator::new();

    let mut rank_sum = 0u64;
    let mut samples = 0u64;
    for _ in 0..2_000 {
        let object = generator
            .next_request(&catalog, &interests, &mut rng, |_| false)
            .unwrap();
        let info = catalog.object(object);
        assert!(interests.is_interested_in(info.category));
        rank_sum += u64::from(info.rank_in_category);
        samples += 1;
    }
    let mean_rank = rank_sum as f64 / samples as f64;
    // With a Zipf-like factor, requests concentrate on the top ranks; the
    // average category holds ~150 objects, so the mean requested rank should
    // sit well below the middle.
    assert!(
        mean_rank < 60.0,
        "mean requested rank {mean_rank:.1} is not concentrated on popular objects"
    );
}

#[test]
fn report_distributions_are_consistent_with_counters() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 40;
    config.sim_duration_s = 5_000.0;
    let report = Simulation::new(config, 3).run();

    // Every observed session kind must expose a CDF whose sample count
    // matches the session counter for that kind.
    for kind in report.observed_kinds() {
        let count = report.session_counts()[&kind];
        let cdf = report.session_bytes_cdf(kind).expect("kind was observed");
        assert_eq!(cdf.len() as u64, count);
        assert!(report.mean_session_bytes(kind).unwrap() > 0.0);
    }
    // Exchange fraction is consistent with the counters.
    let exchange: u64 = report
        .session_counts()
        .iter()
        .filter(|(k, _)| k.is_exchange())
        .map(|(_, c)| *c)
        .sum();
    let expected = exchange as f64 / report.total_sessions() as f64;
    assert!((report.exchange_session_fraction() - expected).abs() < 1e-12);
}

#[test]
fn per_peer_volume_accounts_for_every_class_present() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 30;
    config.behaviors = p2p_exchange::sim::BehaviorMix::with_freeriders(0.5);
    let report = Simulation::new(config, 4).run();
    // Volumes are recorded for every peer at the end of the run, so both
    // classes must be present (even if some peers downloaded nothing).
    assert!(report.mean_volume_per_peer_mb(PeerClass::Sharing).is_some());
    assert!(report
        .mean_volume_per_peer_mb(PeerClass::NonSharing)
        .is_some());
}

#[test]
fn waiting_time_cdfs_are_nonnegative_and_bounded_by_run_length() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 40;
    config.sim_duration_s = 4_000.0;
    let duration = config.sim_duration_s;
    let report = Simulation::new(config, 5).run();
    for kind in [
        SessionKind::NonExchange,
        SessionKind::Exchange { ring_size: 2 },
        SessionKind::Exchange { ring_size: 3 },
    ] {
        if let Some(cdf) = report.waiting_cdf(kind) {
            assert!(cdf.percentile(0.0) >= 0.0);
            assert!(cdf.percentile(1.0) <= duration);
        }
    }
}

#[test]
fn population_scenarios_report_per_class_fairness_cdfs() {
    // Catastrophe-only and flash-crowd-only scenarios must each surface the
    // per-capacity-class download-time CDFs of paper Figures 7–8.
    let mut base = SimConfig::quick_test();
    base.num_peers = 40;
    base.sim_duration_s = 2_000.0;
    base.classes = ClassMix::weighted([
        (CapacityClass::Fast, 0.25),
        (CapacityClass::Medium, 0.5),
        (CapacityClass::Slow, 0.25),
    ]);
    let mut catastrophe = base.clone();
    catastrophe.catastrophe = Some(CatastropheConfig {
        at_s: 800.0,
        top_k: 4,
    });
    let mut flash = base;
    flash.flash_crowd = Some(FlashCrowdConfig {
        at_s: 1_000.0,
        requesters: 12,
        seed_holders: 2,
    });
    for (name, config) in [("catastrophe", catastrophe), ("flash-crowd", flash)] {
        let report = Simulation::new(config, 3).run();
        let classes = report.observed_capacity_classes();
        assert!(
            classes.len() >= 2,
            "{name}: a mixed-class run must finish downloads in 2+ classes, got {classes:?}"
        );
        for class in classes {
            let cdf = report
                .capacity_fairness_cdf(class)
                .unwrap_or_else(|| panic!("{name}: class {class:?} observed but has no CDF"));
            assert!(!cdf.is_empty(), "{name}: empty CDF for {class:?}");
            assert!(
                report.capacity_download_percentile(class, 0.5).is_some(),
                "{name}: no median for {class:?}"
            );
        }
    }
}
