//! The incremental ring-search engine must be a pure memoisation: a
//! cache-backed query answers exactly what a fresh-scratch search would,
//! across arbitrary graph and holdings deltas.  A full simulation run
//! produces an identical report with the cache on or off.

use std::collections::{BTreeMap, BTreeSet};

use p2p_exchange::exchange::{
    ExchangePolicy, RequestGraph, RingPreference, RingSearch, SearchPolicy, SearchScratch,
};
use p2p_exchange::sim::{
    PeerClass, RingCandidateCache, SchedulerKind, SessionKind, SimConfig, SimReport, Simulation,
};
use p2p_exchange::workload::{ObjectId, PeerId};
use proptest::prelude::*;

// ---- property: cache-backed queries equal fresh searches --------------------

/// One mutable world the deltas act on: the request graph plus the provision
/// state (who shares, who stores what) backing the `provides` oracle.
struct World {
    graph: RequestGraph<PeerId, ObjectId>,
    sharing: Vec<bool>,
    owned: BTreeMap<PeerId, BTreeSet<ObjectId>>,
}

impl World {
    fn new(peers: usize) -> Self {
        World {
            graph: RequestGraph::new(),
            sharing: vec![true; peers],
            owned: BTreeMap::new(),
        }
    }

    fn provides(&self) -> impl Fn(&PeerId, &ObjectId) -> bool + '_ {
        |peer, object| {
            self.sharing[peer.as_usize()]
                && self
                    .owned
                    .get(peer)
                    .is_some_and(|objs| objs.contains(object))
        }
    }
}

/// A delta drawn by the property: (op, peer a, (peer b, object)).
type Delta = (u8, u8, (u8, u8));

/// Applies one delta, reporting provision changes to the cache exactly the
/// way the simulation does: graph changes flow through the graph's dirty
/// log, sharing toggles through the coarse `invalidate_peer`, and per-object
/// holdings changes through `invalidate_holding`.
fn apply_delta(world: &mut World, cache: &mut RingCandidateCache, delta: Delta) {
    let (op, a, (b, o)) = delta;
    let (pa, pb) = (PeerId::new(u32::from(a)), PeerId::new(u32::from(b)));
    let object = ObjectId::new(u32::from(o));
    match op % 4 {
        0 => {
            if pa != pb {
                world.graph.add_request(pa, pb, object);
            }
        }
        1 => {
            world.graph.remove_request(pa, pb, object);
        }
        2 => {
            world.sharing[pa.as_usize()] = !world.sharing[pa.as_usize()];
            cache.invalidate_peer(pa);
        }
        _ => {
            let objs = world.owned.entry(pa).or_default();
            if !objs.insert(object) {
                objs.remove(&object);
            }
            cache.invalidate_holding(pa, object);
        }
    }
}

proptest! {
    #[test]
    fn cached_queries_equal_fresh_searches_under_random_deltas(
        deltas in proptest::collection::vec((0u8..4, 0u8..8, (0u8..8, 0u8..6)), 1..40),
        max_ring in 2usize..5,
        longer in proptest::bool::ANY,
    ) {
        const PEERS: usize = 8;
        let preference = if longer { RingPreference::LongerFirst } else { RingPreference::ShorterFirst };
        let search = RingSearch::new(SearchPolicy::new(max_ring, preference));
        // Every peer permanently wants two objects; the cache must key
        // entries so this never goes stale.
        let wants: Vec<Vec<ObjectId>> = (0..PEERS as u32)
            .map(|p| vec![ObjectId::new(p % 6), ObjectId::new((p + 3) % 6)])
            .collect();

        let mut cache = RingCandidateCache::new();
        let mut world = World::new(PEERS);
        for delta in deltas {
            apply_delta(&mut world, &mut cache, delta);
            // Query every root after every delta, exactly like a scheduling
            // round: drain deltas, consult the cache, verify against a fresh
            // search, store on miss.
            cache.drain_graph(&mut world.graph, usize::MAX, true);
            for root in 0..PEERS as u32 {
                let root = PeerId::new(root);
                let want = &wants[root.as_usize()];
                let trace = search.find_traced_in(
                    &mut SearchScratch::new(),
                    &world.graph,
                    root,
                    want,
                    world.provides(),
                );
                let cached = cache.lookup(root, want).map(<[_]>::to_vec);
                match cached {
                    Some(rings) => prop_assert_eq!(rings, trace.rings.clone()),
                    None => cache.store(root, want.clone(), trace),
                }
            }
        }
        // A closing round with no delta: every root stored or confirmed an
        // entry in the last round, so every lookup must hit, and each hit
        // must still equal a fresh search.
        cache.drain_graph(&mut world.graph, usize::MAX, true);
        for root in 0..PEERS as u32 {
            let root = PeerId::new(root);
            let want = &wants[root.as_usize()];
            let trace = search.find_traced_in(
                &mut SearchScratch::new(),
                &world.graph,
                root,
                want,
                world.provides(),
            );
            let cached = cache.lookup(root, want).map(<[_]>::to_vec);
            prop_assert!(cached.is_some(), "root {:?} missed in a round with no delta", root);
            prop_assert_eq!(cached.unwrap_or_default(), trace.rings);
        }
        // The property is only meaningful if entries actually get reused.
        prop_assert!(cache.stats().hits > 0, "no cache hit in the whole sequence");
    }
}

// ---- determinism: identical reports with the cache on and off ---------------

/// An exhaustive comparable fingerprint of one run.
fn fingerprint(report: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (
        (
            report.completed_downloads(),
            report.total_sessions(),
            report.session_counts().clone(),
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
            report.mean_volume_per_peer_mb(PeerClass::Sharing),
            report.mean_volume_per_peer_mb(PeerClass::NonSharing),
            report.mean_waiting_secs(SessionKind::NonExchange),
            report.mean_session_bytes(SessionKind::NonExchange),
        ),
    )
}

fn run(mut config: SimConfig, cached: bool, seed: u64) -> SimReport {
    config.ring_candidate_cache = cached;
    Simulation::new(config, seed).run()
}

#[test]
fn cached_and_uncached_runs_produce_identical_reports() {
    for discipline in [
        ExchangePolicy::two_five_way(),
        ExchangePolicy::five_two_way(),
        ExchangePolicy::Pairwise,
    ] {
        for seed in [7, 21] {
            let mut config = SimConfig::quick_test();
            config.discipline = discipline;
            let without_cache = run(config.clone(), false, seed);
            let with_cache = run(config, true, seed);
            assert_eq!(
                fingerprint(&with_cache),
                fingerprint(&without_cache),
                "cache must not change the run ({} seed {seed})",
                discipline.label()
            );
            assert!(
                with_cache.ring_cache_stats().hits > 0,
                "the cached run must actually reuse entries ({} seed {seed})",
                discipline.label()
            );
            assert_eq!(
                without_cache.ring_cache_stats().hits,
                0,
                "the uncached run must never consult the cache"
            );
        }
    }
}

#[test]
fn cache_equivalence_holds_for_reciprocal_schedulers_too() {
    // ExchangePriority exercises the reciprocal flag in the serve queue, the
    // other code path the scheduling loop reuses across iterations.
    let mut config = SimConfig::quick_test();
    config.scheduler = SchedulerKind::ExchangePriority;
    let with_cache = run(config.clone(), true, 13);
    let without_cache = run(config, false, 13);
    assert_eq!(fingerprint(&with_cache), fingerprint(&without_cache));
}

#[test]
fn ring_attempts_knob_changes_behaviour_only_when_lowered() {
    // The default (8) must reproduce the former hard-coded constant; a
    // drastically lower setting throttles ring formation.
    let mut config = SimConfig::quick_test();
    config.discipline = ExchangePolicy::two_five_way();
    assert_eq!(config.ring_attempts_per_schedule, 8);
    let default_run = Simulation::new(config.clone(), 5).run();
    config.ring_attempts_per_schedule = 1;
    let throttled = Simulation::new(config, 5).run();
    assert!(default_run.total_rings() >= throttled.total_rings());
}
