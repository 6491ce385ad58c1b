//! The paper's qualitative findings as multi-seed claims: each test runs a
//! small `Scenario` over five seeds and asserts that the 95% confidence
//! intervals of the compared means do not overlap.  Where they overlap,
//! README records the claim as diverging and the test pins only what does
//! hold.  README's claim → test → status table lists every claim here.

use p2p_exchange::exchange::ExchangePolicy;
use p2p_exchange::sim::experiment::cheating_scenario;
use p2p_exchange::sim::{
    Aggregate, BehaviorKind, BehaviorMix, Protection, Scenario, SchedulerKind, SimConfig, SweepGrid,
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

/// Mean usable megabytes per peer of `behavior` at the grid point whose
/// protection is labelled `protection`, over the seeds.
fn usable_mb(grid: &SweepGrid, protection: &str, behavior: BehaviorKind) -> Aggregate {
    grid.aggregate_where(&[("protection", protection)], |report| {
        report.mean_usable_mb_per_peer(behavior)
    })
    .unwrap_or_else(|| panic!("no {behavior:?} peer under protection {protection}"))
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

/// Section III-B (Table 3): exchange priority rewards faking an exchange.
/// Unprotected, a middleman relaying between peers that could trade
/// directly, and a junk sender uploading garbage, both get more usable data
/// than a passive free-rider.  The trusted mediator releases keys only to
/// the peers the true senders named, so the middleman is left with
/// ciphertext alone.
///
/// Over these five seeds the unprotected intervals overlap, so README
/// records the separation as diverging; this test pins the order of the
/// means.  The mediated half holds exactly, on every seed.
#[test]
fn middlemen_and_junk_senders_out_earn_freeriders_and_mediation_zeroes_the_middleman() {
    // The adversarial mix of `behavior_mixes.rs`, under exchange priority.
    let mut base = SimConfig::quick_test();
    base.num_peers = 40;
    base.sim_duration_s = 6_000.0;
    base.discipline = ExchangePolicy::two_five_way();
    base.scheduler = SchedulerKind::ExchangePriority;
    let adversarial = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.15),
        (BehaviorKind::JunkSender, 0.1),
        (BehaviorKind::ParticipationCheater, 0.1),
        (BehaviorKind::Middleman, 0.15),
    ]);
    let grid = cheating_scenario(
        &base,
        &[adversarial],
        &[Protection::None, Protection::Mediated],
    )
    .seeds(SEEDS)
    .run();

    let freerider = usable_mb(&grid, "none", BehaviorKind::FreeRider);
    for cheat in [BehaviorKind::Middleman, BehaviorKind::JunkSender] {
        let gained = usable_mb(&grid, "none", cheat);
        assert!(
            gained.mean > freerider.mean,
            "unprotected, {cheat:?} gets {:.1} ± {:.1} usable MB/peer, \
             not more than the free-rider's {:.1} ± {:.1}",
            gained.mean,
            gained.ci95,
            freerider.mean,
            freerider.ci95
        );
    }

    let mut mediated_runs = 0;
    for row in grid.rows() {
        if grid.point(row.point).value("protection") != Some("mediated") {
            continue;
        }
        mediated_runs += 1;
        let middleman = row
            .report
            .behavior_stats(BehaviorKind::Middleman)
            .expect("the mix has middlemen");
        assert_eq!(
            middleman.usable_bytes(),
            0,
            "seed {}: a mediated middleman can never decrypt what it relays",
            row.seed
        );
        assert!(middleman.ciphertext_bytes > 0, "seed {}", row.seed);
    }
    assert_eq!(mediated_runs, SEEDS.count());
}
