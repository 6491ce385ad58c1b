//! Sharded scheduling must be invisible in the results: for every shard
//! count, cache setting, behavior mix, protection and scheduler, a
//! sharded run's report — ring-cache hit/miss/invalidation counters
//! included — is bit-identical to the sequential engine on the same seed.
//! The shards knob buys wall-clock on multi-core hosts, never accuracy.

use p2p_exchange::exchange::ExchangePolicy;
use p2p_exchange::sim::{
    BehaviorKind, BehaviorMix, CapacityClass, CatastropheConfig, ChurnConfig, ClassMix,
    FlashCrowdConfig, PeerClass, Protection, SchedulerKind, SessionKind, SimConfig, SimReport,
    SimSetup, Simulation,
};

/// An exhaustive comparable fingerprint of one run, down to the cache
/// counters (which only match if the merge replays the exact sequential
/// order of lookups, stores and invalidations).
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
            report.ring_cache_stats(),
        ),
        (
            report.mean_download_time_min(PeerClass::Sharing),
            report.mean_download_time_min(PeerClass::NonSharing),
            report.mean_volume_per_peer_mb(PeerClass::Sharing),
            report.mean_volume_per_peer_mb(PeerClass::NonSharing),
            report.mean_waiting_secs(SessionKind::NonExchange),
            report.mean_session_bytes(SessionKind::NonExchange),
        ),
    )
}

fn run_with_shards(mut config: SimConfig, shards: usize, seed: u64) -> SimReport {
    config.shards = shards;
    Simulation::new(config, seed).run()
}

/// A configuration busy enough that batches actually reach the fan-out
/// threshold (several same-timestamp TrySchedule events per lookup).
fn busy_config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 40;
    config.sim_duration_s = 2_000.0;
    config
}

#[test]
fn sharded_runs_are_bit_identical_across_shard_counts() {
    for seed in [1, 17] {
        let sequential = run_with_shards(busy_config(), 1, seed);
        for shards in [2, 3, 8] {
            let sharded = run_with_shards(busy_config(), shards, seed);
            assert_eq!(
                fingerprint(&sharded),
                fingerprint(&sequential),
                "shards={shards} seed={seed}"
            );
        }
    }
}

#[test]
fn sharded_equivalence_holds_cached_and_uncached() {
    let sequential = run_with_shards(busy_config(), 1, 5);
    let sharded = run_with_shards(busy_config(), 4, 5);
    assert_eq!(fingerprint(&sharded), fingerprint(&sequential), "cached");
    assert!(
        sharded.ring_cache_stats().hits > 0,
        "the sharded run must actually exercise the cache"
    );
    let mut config = busy_config();
    config.ring_candidate_cache = false;
    let sequential = run_with_shards(config.clone(), 1, 5);
    let sharded = run_with_shards(config, 4, 5);
    assert_eq!(fingerprint(&sharded), fingerprint(&sequential), "uncached");
}

#[test]
fn sharded_equivalence_holds_for_a_paper_sweep_job() {
    // The Fig. 4/5 grid's 2-5-way job at 40 kbit/s on 200 Table II peers
    // (20 MiB objects, duration scale 0.05, setup seed 0, run seed 1).  It
    // has a sharded batch whose first provider never reaches a ring search,
    // so the graph's dirty log must be drained where the sequential engine
    // drains it, not when the batch is planned, or the invalidation counts
    // differ.
    let mut config = SimConfig::paper_defaults().with_duration_scale(0.05);
    config.num_peers = 200;
    config.workload.object_size_bytes = 20 * 1024 * 1024;
    config.link = config.link.with_upload_kbps(40.0);
    config.discipline = ExchangePolicy::two_five_way();
    let setup = SimSetup::generate(&config, 0);
    let sequential = Simulation::from_setup(config.clone(), &setup, 1).run();
    config.shards = 2;
    let sharded = Simulation::from_setup(config, &setup, 1).run();
    assert_eq!(fingerprint(&sharded), fingerprint(&sequential));
}

#[test]
fn sharded_equivalence_holds_under_adversarial_mixes_and_protections() {
    let adversarial = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.4),
        (BehaviorKind::FreeRider, 0.2),
        (BehaviorKind::JunkSender, 0.15),
        (BehaviorKind::ParticipationCheater, 0.1),
        (BehaviorKind::Middleman, 0.15),
    ]);
    for protection in [
        Protection::None,
        Protection::Windowed { max_window: 4 },
        Protection::Mediated,
    ] {
        let mut config = busy_config();
        config.behaviors = adversarial.clone();
        config.protection = protection;
        let sequential = run_with_shards(config.clone(), 1, 9);
        let sharded = run_with_shards(config, 3, 9);
        assert_eq!(
            fingerprint(&sharded),
            fingerprint(&sequential),
            "{protection:?}"
        );
    }
}

#[test]
fn sharded_equivalence_holds_under_every_scheduler_and_discipline() {
    for kind in SchedulerKind::all() {
        let mut config = busy_config();
        config.sim_duration_s = 1_200.0;
        config.scheduler = kind;
        let sequential = run_with_shards(config.clone(), 1, 11);
        let sharded = run_with_shards(config, 2, 11);
        assert_eq!(
            fingerprint(&sharded),
            fingerprint(&sequential),
            "{}",
            kind.label()
        );
    }
    for discipline in [
        ExchangePolicy::NoExchange,
        ExchangePolicy::Pairwise,
        ExchangePolicy::five_two_way(),
    ] {
        let mut config = busy_config();
        config.sim_duration_s = 1_200.0;
        config.discipline = discipline;
        let sequential = run_with_shards(config.clone(), 1, 13);
        let sharded = run_with_shards(config, 4, 13);
        assert_eq!(
            fingerprint(&sharded),
            fingerprint(&sequential),
            "{}",
            discipline.label()
        );
    }
}

/// The busy configuration under full population dynamics: churn departures
/// and rejoins land mid-batch, a catastrophe rips out the top uploaders, a
/// flash crowd releases a new object, and the peers span all three capacity
/// classes.
fn churny_config() -> SimConfig {
    let mut config = busy_config();
    config.churn = Some(ChurnConfig {
        mean_session_s: 400.0,
        mean_downtime_s: 150.0,
    });
    config.catastrophe = Some(CatastropheConfig {
        at_s: 800.0,
        top_k: 4,
    });
    config.flash_crowd = Some(FlashCrowdConfig {
        at_s: 1_000.0,
        requesters: 12,
        seed_holders: 2,
    });
    config.classes = ClassMix::weighted([
        (CapacityClass::Fast, 0.25),
        (CapacityClass::Medium, 0.5),
        (CapacityClass::Slow, 0.25),
    ]);
    config
}

#[test]
fn sharded_runs_are_bit_identical_under_population_dynamics() {
    // Mid-batch departures must split batches exactly where the sequential
    // engine would: the fingerprint includes the ring-cache counters, which
    // only match if every departure's invalidations replay in order.
    for seed in [1, 17] {
        let sequential = run_with_shards(churny_config(), 1, seed);
        assert!(
            sequential
                .session_end_counts()
                .keys()
                .any(|end| { format!("{end:?}").contains("PeerDeparted") }),
            "seed {seed}: churn must actually cut sessions for this test to bite"
        );
        for shards in [4, 8] {
            let sharded = run_with_shards(churny_config(), shards, seed);
            assert_eq!(
                fingerprint(&sharded),
                fingerprint(&sequential),
                "shards={shards} seed={seed}"
            );
        }
    }
}

#[test]
fn population_scenarios_report_per_class_fairness_cdfs() {
    // Catastrophe-only and flash-crowd-only scenarios must each surface the
    // per-capacity-class download-time CDFs of paper Figures 7–8.
    let mut catastrophe = churny_config();
    catastrophe.churn = None;
    catastrophe.flash_crowd = None;
    let mut flash = churny_config();
    flash.churn = None;
    flash.catastrophe = None;
    for (name, config) in [("catastrophe", catastrophe), ("flash-crowd", flash)] {
        let report = run_with_shards(config, 1, 3);
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

#[test]
fn sharded_profiled_runs_report_identical_results() {
    let mut config = busy_config();
    config.shards = 3;
    let (report, profile) = Simulation::new(config.clone(), 21).run_profiled();
    config.shards = 1;
    let (sequential, _) = Simulation::new(config, 21).run_profiled();
    assert_eq!(fingerprint(&report), fingerprint(&sequential));
    assert!(profile.events > 0);
    assert!(
        profile.shard_planning > std::time::Duration::ZERO,
        "batches above the fan-out threshold must exist in this workload"
    );
}
