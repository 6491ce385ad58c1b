//! The paper's qualitative findings as multi-seed claims: each test runs a
//! small `Scenario` over five seeds and asserts that the 95% confidence
//! intervals of the compared means do not overlap.  README's claim → test
//! → status table lists every claim here.

use p2p_exchange::exchange::ExchangePolicy;
use p2p_exchange::sim::{
    Aggregate, BehaviorKind, BehaviorMix, Scenario, SchedulerKind, SimConfig, SweepGrid,
};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// Mean download time (minutes) of `behavior` at the grid point whose
/// discipline is labelled `discipline`, over the seeds.
fn download_time(grid: &SweepGrid, discipline: &str, behavior: BehaviorKind) -> Aggregate {
    grid.aggregate_where(&[("discipline", discipline)], |report| {
        (report.behavior_stats(behavior)).and_then(|stats| stats.mean_download_time_min())
    })
    .unwrap_or_else(|| panic!("no {behavior:?} download completed under {discipline}"))
}

/// Asserts that `faster`'s interval lies wholly below `slower`'s.
fn assert_separated(faster: Aggregate, slower: Aggregate, claim: &str) {
    assert!(
        faster.mean + faster.ci95 < slower.mean - slower.ci95,
        "{claim}: {:.1} ± {:.1} min is not below {:.1} ± {:.1} min",
        faster.mean,
        faster.ci95,
        slower.mean,
        slower.ci95
    );
}

/// Section II on KaZaA: a self-reported participation level is trivially
/// subverted.  Without exchanges, peers that inflate their announcement
/// download faster than honest sharers; with `2-5-way` exchange the
/// sharers' reciprocation outweighs the cheat and the order flips.
#[test]
fn participation_cheaters_win_without_exchange_and_lose_with_it() {
    // The loaded system of `end_to_end.rs`: more outstanding demand than
    // upload slots, so queue order decides who waits.
    let mut base = SimConfig::quick_test();
    base.num_peers = 60;
    base.max_pending_objects = 6;
    base.link.upload_kbps = 40.0;
    base.sim_duration_s = 8_000.0;
    base.scheduler = SchedulerKind::ParticipationLevel;
    base.behaviors = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.25),
        (BehaviorKind::ParticipationCheater, 0.25),
    ]);
    let grid = Scenario::from(base)
        .disciplines([ExchangePolicy::NoExchange, ExchangePolicy::two_five_way()])
        .seeds(SEEDS)
        .run();

    let honest = |discipline| download_time(&grid, discipline, BehaviorKind::Honest);
    let cheater = |discipline| download_time(&grid, discipline, BehaviorKind::ParticipationCheater);
    assert_separated(
        cheater("no-exchange"),
        honest("no-exchange"),
        "without exchange, cheaters finish faster than honest sharers",
    );
    assert_separated(
        honest("2-5-way"),
        cheater("2-5-way"),
        "under 2-5-way exchange, honest sharers finish faster than cheaters",
    );
}
