//! Between-events invariant audits of whole simulation runs
//! (`cargo test --features audit --test invariant_audit`).
//!
//! Every run here goes through `Simulation::run_audited`, which re-checks the
//! simulator's structural invariants after every single event — slot
//! accounting, transfer provision, ring cycle structure, byte conservation,
//! and the exactness of every live ring-cache entry against a fresh traced
//! search — and the report-level accounting identities after finalisation.
#![cfg(feature = "audit")]

use p2p_exchange::exchange::ExchangePolicy;
use p2p_exchange::sim::{
    audit, BehaviorKind, BehaviorMix, CapacityClass, CatastropheConfig, ChurnConfig, ClassMix,
    FlashCrowdConfig, Protection, SchedulerKind, SimConfig, Simulation,
};

/// A small but busy configuration: enough contention for exchanges, rings,
/// preemption and evictions to all occur, small enough that per-event audits
/// (which re-run every cached search) stay fast.
fn audit_config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 14;
    config.sim_duration_s = 600.0;
    config.discipline = ExchangePolicy::two_five_way();
    config
}

#[test]
fn audited_run_passes_and_matches_the_unaudited_run() {
    let mut config = audit_config();
    config.sim_duration_s = 1_000.0;
    let audited = Simulation::new(config.clone(), 1).run_audited();
    let plain = Simulation::new(config, 1).run();
    assert_eq!(audited.completed_downloads(), plain.completed_downloads());
    assert_eq!(audited.total_sessions(), plain.total_sessions());
    assert_eq!(audited.total_rings(), plain.total_rings());
    assert!(
        audited.completed_downloads() > 0,
        "the run must do something"
    );
}

#[test]
fn audit_passes_under_every_behavior_mix() {
    let mixes = [
        BehaviorMix::honest(),
        BehaviorMix::with_freeriders(0.5),
        BehaviorMix::honest().and(BehaviorKind::JunkSender, 0.25),
        BehaviorMix::honest().and(BehaviorKind::Middleman, 0.25),
        BehaviorMix::honest().and(BehaviorKind::ParticipationCheater, 0.25),
        BehaviorMix::weighted([
            (BehaviorKind::Honest, 0.4),
            (BehaviorKind::FreeRider, 0.2),
            (BehaviorKind::JunkSender, 0.1),
            (BehaviorKind::ParticipationCheater, 0.1),
            (BehaviorKind::Middleman, 0.2),
        ]),
    ];
    for (index, mix) in mixes.into_iter().enumerate() {
        let mut config = audit_config();
        config.behaviors = mix;
        let report = Simulation::new(config, 40 + index as u64).run_audited();
        assert!(report.total_sessions() > 0, "mix {index} must move data");
    }
}

#[test]
fn audit_passes_under_every_protection_mode() {
    for (index, protection) in Protection::all_basic().into_iter().enumerate() {
        let mut config = audit_config();
        config.behaviors = BehaviorMix::honest()
            .and(BehaviorKind::JunkSender, 0.2)
            .and(BehaviorKind::Middleman, 0.2);
        config.protection = protection;
        let report = Simulation::new(config, 50 + index as u64).run_audited();
        assert!(report.total_sessions() > 0);
    }
}

#[test]
fn audit_passes_cached_and_uncached() {
    let _ = Simulation::new(audit_config(), 7).run_audited();
    let mut config = audit_config();
    config.ring_candidate_cache = false;
    let _ = Simulation::new(config, 7).run_audited();
}

#[test]
fn audit_passes_under_every_scheduler() {
    for (index, kind) in SchedulerKind::all().into_iter().enumerate() {
        let mut config = audit_config();
        config.sim_duration_s = 400.0;
        config.scheduler = kind;
        let _ = Simulation::new(config, 60 + index as u64).run_audited();
    }
}

#[test]
fn audit_passes_for_sharded_runs_and_matches_sequential() {
    // The audited sharded loop re-checks every invariant after each merged
    // event — including cache-vs-fresh exactness right after a precomputed
    // trace was substituted, and the maintenance-wheel capacity invariant.
    let mut config = audit_config();
    config.num_peers = 24;
    config.shards = 3;
    let sharded = Simulation::new(config.clone(), 4).run_audited();
    config.shards = 1;
    let sequential = Simulation::new(config, 4).run_audited();
    assert_eq!(
        sharded.completed_downloads(),
        sequential.completed_downloads()
    );
    assert_eq!(sharded.total_sessions(), sequential.total_sessions());
    assert_eq!(sharded.total_rings(), sequential.total_rings());
    assert_eq!(sharded.ring_cache_stats(), sequential.ring_cache_stats());
    assert!(sharded.total_sessions() > 0);
}

/// `audit_config` plus the full population dynamics: churn, a mid-run
/// catastrophe, a flash crowd, and a heterogeneous class mix.  The audit
/// re-checks every invariant after every event — including the new offline
/// invariants (departed peers hold no slots, transfers, wants, graph edges,
/// holders entries or live cache references) and byte conservation across
/// the departure teardowns.
fn churny_audit_config() -> SimConfig {
    let mut config = audit_config();
    config.churn = Some(ChurnConfig {
        mean_session_s: 200.0,
        mean_downtime_s: 80.0,
    });
    config.catastrophe = Some(CatastropheConfig {
        at_s: 250.0,
        top_k: 2,
    });
    config.flash_crowd = Some(FlashCrowdConfig {
        at_s: 350.0,
        requesters: 6,
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
fn audit_passes_under_population_dynamics_and_matches_the_unaudited_run() {
    // Milder churn on a longer horizon than `churny_audit_config`: in the
    // 14-peer quick-test workload a download outlasts a short churn session,
    // so this variant is tuned to both *complete* downloads (for the
    // per-class fairness assertion) and *cut* sessions (for the teardown
    // paths) — the heavy-churn configs below stress teardown alone.
    let mut config = churny_audit_config();
    config.sim_duration_s = 1_000.0;
    config.churn = Some(ChurnConfig {
        mean_session_s: 2_000.0,
        mean_downtime_s: 100.0,
    });
    config.catastrophe = Some(CatastropheConfig {
        at_s: 700.0,
        top_k: 2,
    });
    config.flash_crowd = Some(FlashCrowdConfig {
        at_s: 800.0,
        requesters: 6,
        seed_holders: 2,
    });
    let audited = Simulation::new(config.clone(), 1).run_audited();
    let plain = Simulation::new(config, 1).run();
    assert_eq!(audited.completed_downloads(), plain.completed_downloads());
    assert_eq!(audited.total_sessions(), plain.total_sessions());
    assert_eq!(audited.total_rings(), plain.total_rings());
    assert!(
        audited.completed_downloads() > 0,
        "the run must do something"
    );
    assert!(
        !audited.observed_capacity_classes().is_empty(),
        "a mixed-class run must record per-class fairness samples"
    );
}

#[test]
fn audit_passes_under_churn_with_adversarial_mixes_and_protections() {
    for (index, protection) in Protection::all_basic().into_iter().enumerate() {
        let mut config = churny_audit_config();
        config.behaviors = BehaviorMix::honest()
            .and(BehaviorKind::FreeRider, 0.2)
            .and(BehaviorKind::JunkSender, 0.15)
            .and(BehaviorKind::Middleman, 0.15);
        config.protection = protection;
        let report = Simulation::new(config, 70 + index as u64).run_audited();
        assert!(report.total_sessions() > 0);
    }
}

#[test]
fn audit_passes_under_churn_cached_uncached_and_under_every_scheduler() {
    let _ = Simulation::new(churny_audit_config(), 8).run_audited();
    let mut uncached = churny_audit_config();
    uncached.ring_candidate_cache = false;
    let _ = Simulation::new(uncached, 8).run_audited();
    for (index, kind) in SchedulerKind::all().into_iter().enumerate() {
        let mut config = churny_audit_config();
        config.sim_duration_s = 400.0;
        config.scheduler = kind;
        let _ = Simulation::new(config, 80 + index as u64).run_audited();
    }
}

#[test]
fn audit_passes_for_sharded_churny_runs_and_matches_sequential() {
    let mut config = churny_audit_config();
    config.num_peers = 24;
    config.catastrophe = Some(CatastropheConfig {
        at_s: 250.0,
        top_k: 3,
    });
    config.shards = 3;
    let sharded = Simulation::new(config.clone(), 4).run_audited();
    config.shards = 1;
    let sequential = Simulation::new(config, 4).run_audited();
    assert_eq!(
        sharded.completed_downloads(),
        sequential.completed_downloads()
    );
    assert_eq!(sharded.total_sessions(), sequential.total_sessions());
    assert_eq!(sharded.total_rings(), sequential.total_rings());
    assert_eq!(sharded.ring_cache_stats(), sequential.ring_cache_stats());
}

#[test]
fn check_report_validates_finished_runs() {
    let report = Simulation::new(audit_config(), 2).run();
    audit::check_report(&report).expect("a finished run's report must balance");
}
