//! Resume-equivalence properties for `sim::snapshot` (ISSUE 9).
//!
//! The contract under test: checkpointing a run at time `T/2`, restoring the
//! snapshot, and running to the horizon produces a [`SimReport`] **bit
//! identical** (via `PartialEq`, which compares every `f64` exactly) to the
//! uninterrupted run — including [`sim::RingCacheStats`] — across random
//! schedulers × protections × behavior mixes × churn.
//! A second property chains a checkpoint/restore round trip at *every event
//! boundary* of a small scenario and still demands the identical report.

use proptest::prelude::*;
use sim::{
    BehaviorKind, BehaviorMix, ChurnConfig, ExchangeDiscipline, FlashCrowdConfig, Protection,
    SchedulerKind, SimConfig, SimReport, SimTime, Simulation,
};

/// One sampled run shape: indexes into the fixed option sets plus the
/// numeric knobs, kept small enough that 64 cases × 2 runs stay fast.
#[derive(Debug, Clone, Copy)]
struct RunShape {
    peers: usize,
    duration_s: f64,
    scheduler: usize,
    protection: usize,
    mix: usize,
    churn: bool,
    seed: u64,
}

fn shape_strategy() -> impl Strategy<Value = RunShape> {
    (
        (
            10usize..28,     // peers
            300.0f64..700.0, // duration_s
            0usize..64,      // scheduler index (wrapped onto the option set)
        ),
        (
            0usize..64, // protection index (wrapped onto the option set)
            0usize..4,  // behavior mix
            proptest::bool::ANY,
        ),
        0u64..1_000,
    )
        .prop_map(
            |((peers, duration_s, scheduler), (protection, mix, churn), seed)| RunShape {
                peers,
                duration_s,
                scheduler,
                protection,
                mix,
                churn,
                seed,
            },
        )
}

fn config_for(shape: RunShape) -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = shape.peers;
    config.sim_duration_s = shape.duration_s;
    config.warmup_s = shape.duration_s / 4.0;
    let schedulers = SchedulerKind::all();
    config.scheduler = schedulers[shape.scheduler % schedulers.len()];
    let protections = Protection::all_basic();
    config.protection = protections[shape.protection % protections.len()];
    config.behaviors = match shape.mix {
        0 => BehaviorMix::honest(),
        1 => BehaviorMix::with_freeriders(0.3),
        2 => BehaviorMix::weighted([
            (BehaviorKind::Honest, 0.7),
            (BehaviorKind::JunkSender, 0.15),
            (BehaviorKind::ParticipationCheater, 0.15),
        ]),
        _ => BehaviorMix::weighted([
            (BehaviorKind::Honest, 0.6),
            (BehaviorKind::FreeRider, 0.2),
            (BehaviorKind::Middleman, 0.2),
        ]),
    };
    config.churn = shape.churn.then(|| ChurnConfig {
        mean_session_s: shape.duration_s / 2.0,
        mean_downtime_s: shape.duration_s / 8.0,
    });
    config.validate().expect("sampled config is valid");
    config
}

/// Checkpoints `sim` into bytes and restores a fresh simulation from them.
fn round_trip(sim: &Simulation, config: &SimConfig) -> Simulation {
    let mut bytes = Vec::new();
    sim.checkpoint(&mut bytes)
        .expect("serializing into a Vec cannot fail");
    Simulation::restore(&mut &bytes[..], config).expect("a fresh checkpoint restores")
}

/// The uninterrupted report and the checkpoint-at-T/2-resume report.
fn straight_and_resumed(config: &SimConfig, seed: u64) -> (SimReport, SimReport) {
    let straight = Simulation::new(config.clone(), seed).run();
    let mut live = Simulation::new(config.clone(), seed);
    live.run_until(SimTime::from_secs_f64(config.sim_duration_s / 2.0));
    let resumed = round_trip(&live, config).run();
    (straight, resumed)
}

proptest! {
    #[test]
    fn resume_at_half_horizon_is_bit_identical(shape in shape_strategy()) {
        let config = config_for(shape);
        let (straight, resumed) = straight_and_resumed(&config, shape.seed);
        prop_assert!(
            straight.ring_cache_stats() == resumed.ring_cache_stats(),
            "ring-cache stats diverged for {shape:?}"
        );
        prop_assert!(straight == resumed, "reports diverged for {shape:?}");
    }
}

/// Exchange disciplines beyond the quick-test default also resume exactly
/// (the search policy shapes the ring-candidate cache contents).
#[test]
fn every_paper_discipline_resumes_exactly() {
    for discipline in ExchangeDiscipline::paper_set() {
        let mut config = SimConfig::quick_test();
        config.num_peers = 16;
        config.sim_duration_s = 700.0;
        config.discipline = discipline;
        let (straight, resumed) = straight_and_resumed(&config, 11);
        assert_eq!(straight, resumed, "discipline {:?}", config.discipline);
    }
}

/// A flash crowd releases an object into a category that is already as long
/// as any in the catalog, so the release grows the catalog's shared object
/// popularity table.  Restore regenerates the setup catalog and replays the
/// release, and the restored run must go on drawing from the grown table
/// exactly as the uninterrupted run does.
#[test]
fn resume_after_a_release_that_grows_the_popularity_table_is_exact() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 20;
    config.sim_duration_s = 2_000.0;
    config.warmup_s = 500.0;
    config.workload.objects_per_category = (3, 3);
    config.flash_crowd = Some(FlashCrowdConfig::new(400.0, 4));
    let straight = Simulation::new(config.clone(), 13).run();
    let mut live = Simulation::new(config.clone(), 13);
    live.run_until(SimTime::from_secs_f64(1_000.0));
    let resumed = round_trip(&live, &config).run();
    assert_eq!(straight.ring_cache_stats(), resumed.ring_cache_stats());
    assert_eq!(straight, resumed);
}

/// Checkpoint + restore at **every event boundary**: before each event the
/// simulation is serialized and replaced by its own restored snapshot, so
/// any state the format dropped or mangled would corrupt the very next
/// event.  The final report must still match the straight run exactly.
#[test]
fn checkpoint_at_every_event_matches_straight_run() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 10;
    config.sim_duration_s = 300.0;
    config.warmup_s = 75.0;
    let straight = Simulation::new(config.clone(), 7).run();

    let mut chained = Simulation::new(config.clone(), 7);
    let mut steps = 0u64;
    loop {
        chained = round_trip(&chained, &config);
        if chained.step().is_none() {
            break;
        }
        steps += 1;
    }
    assert!(steps > 100, "scenario too small to be meaningful: {steps}");
    let resumed = chained.run();
    assert_eq!(straight.ring_cache_stats(), resumed.ring_cache_stats());
    assert_eq!(straight, resumed);
}
