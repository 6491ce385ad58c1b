//! Micro-benchmarks of the exchange ring search on synthetic request graphs,
//! including the cached-vs-fresh comparison of the incremental engine and
//! the traced search at the 10k-peer scale.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use des::DetRng;
use exchange::{RequestGraph, RingPreference, RingSearch, SearchPolicy, SearchScratch};
use sim::RingCandidateCache;
use workload::{ObjectId, PeerId};

/// Builds a random request graph with `peers` peers and `edges` requests.
fn random_graph(peers: u32, edges: usize, seed: u64) -> RequestGraph<u32, u32> {
    let mut rng = DetRng::seed_from(seed);
    let mut graph = RequestGraph::new();
    while graph.len() < edges {
        let requester = rng.gen_range(0..peers);
        let provider = rng.gen_range(0..peers);
        if requester == provider {
            continue;
        }
        let object = rng.gen_range(0u32..1_000);
        graph.add_request(requester, provider, object);
    }
    graph
}

fn bench_ring_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_search");
    group.sample_size(20);
    for &(peers, edges) in &[(50u32, 300usize), (200, 1_200), (200, 6_000)] {
        let graph = random_graph(peers, edges, 7);
        let wants: Vec<u32> = (0..6).map(|i| i * 37 % 1_000).collect();
        for max_ring in [2usize, 5] {
            let policy = SearchPolicy::new(max_ring, RingPreference::ShorterFirst);
            let search = RingSearch::new(policy)
                .with_expansion_budget(6_000)
                .with_fanout(16);
            group.bench_with_input(
                BenchmarkId::new(
                    format!("peers{peers}_edges{edges}"),
                    format!("max_ring{max_ring}"),
                ),
                &graph,
                |b, graph| {
                    b.iter(|| {
                        // Ownership oracle: a third of peers "own" any given object.
                        let mut scratch = SearchScratch::new();
                        search
                            .find_traced_in(&mut scratch, graph, 0, &wants, |p, o| (p + o) % 3 == 0)
                    });
                },
            );
        }
    }
    group.finish();
}

/// The `paper-sweep` search shape (200 peers, 6,000 requests, budget 6,000,
/// fanout 16) under an ownership oracle backed by per-peer `BTreeSet`
/// storage, the way the simulator's claims oracle looks objects up, instead
/// of arithmetic on the ids.  Each iteration searches from ten roots.  The
/// `cap8` case stops each search at 8 rings, as the simulation does at its
/// default `ring_attempts_per_schedule`; the uncapped `max_ring5` case
/// beside it is the same search run to its budget.
fn bench_stored_oracle(c: &mut Criterion) {
    const PEERS: u32 = 200;
    const STORED_PER_PEER: usize = 150;
    let graph = random_graph(PEERS, 6_000, 7);
    let mut rng = DetRng::seed_from(13);
    let storage: Vec<BTreeSet<u32>> = (0..PEERS)
        .map(|_| {
            let mut objects = BTreeSet::new();
            while objects.len() < STORED_PER_PEER {
                objects.insert(rng.gen_range(0u32..1_000));
            }
            objects
        })
        .collect();
    let wants: Vec<Vec<u32>> = (0..PEERS)
        .map(|p| (0..6).map(|i| (p * 37 + i * 91) % 1_000).collect())
        .collect();
    let provides = |p: &u32, o: &u32| storage[*p as usize].contains(o);
    let roots: Vec<u32> = (0..10).map(|i| i * 19 % PEERS).collect();

    let mut group = c.benchmark_group("ring_search_stored");
    group.sample_size(20);
    for (max_ring, max_rings) in [(2usize, None), (5, None), (5, Some(8))] {
        let policy = SearchPolicy::new(max_ring, RingPreference::ShorterFirst);
        let search = RingSearch::new(policy)
            .with_expansion_budget(6_000)
            .with_fanout(16)
            .with_max_rings(max_rings.unwrap_or(usize::MAX));
        let case = match max_rings {
            Some(cap) => format!("max_ring{max_ring}_cap{cap}"),
            None => format!("max_ring{max_ring}"),
        };
        group.bench_function(BenchmarkId::new("peers200_edges6000", case), |b| {
            b.iter(|| {
                roots
                    .iter()
                    .map(|&root| {
                        let want = &wants[root as usize];
                        search
                            .find_traced_in(&mut SearchScratch::new(), &graph, root, want, provides)
                            .rings
                            .len()
                    })
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

/// Builds a random request graph over typed ids (the cache is typed to the
/// simulator's `PeerId`/`ObjectId`).
fn random_typed_graph(peers: u32, edges: usize, seed: u64) -> RequestGraph<PeerId, ObjectId> {
    let mut rng = DetRng::seed_from(seed);
    let mut graph = RequestGraph::new();
    while graph.len() < edges {
        let requester = rng.gen_range(0..peers);
        let provider = rng.gen_range(0..peers);
        if requester == provider {
            continue;
        }
        let object = rng.gen_range(0u32..1_000);
        graph.add_request(
            PeerId::new(requester),
            PeerId::new(provider),
            ObjectId::new(object),
        );
    }
    graph.take_dirty_edges();
    graph
}

/// Scheduling-round workload: repeated ring queries at rotating providers
/// (three per round, like the scheduling loop probing a provider more than
/// once) interleaved with request-graph deltas every few rounds.  Compares
/// a fresh BFS per query against the `RingCandidateCache`.
fn bench_cached_vs_fresh(c: &mut Criterion) {
    const PEERS: u32 = 200;
    const EDGES: usize = 6_000; // paper-sized IRQ load (Table II scale)
    const ROUNDS: usize = 200;
    const QUERIES_PER_ROUND: usize = 3;
    const DELTA_EVERY: usize = 8;

    let base = random_typed_graph(PEERS, EDGES, 7);
    let wants: Vec<Vec<ObjectId>> = (0..PEERS)
        .map(|p| {
            (0..6)
                .map(|i| ObjectId::new((p * 37 + i * 91) % 1_000))
                .collect()
        })
        .collect();
    // Ownership oracle: a third of (peer, object) pairs provide.
    let provides = |p: &PeerId, o: &ObjectId| (p.as_usize() + o.as_usize()) % 3 == 0;
    // Pre-drawn deltas so both variants replay the identical mutation stream.
    let mut rng = DetRng::seed_from(11);
    let deltas: Vec<(PeerId, PeerId, ObjectId)> = (0..ROUNDS / DELTA_EVERY + 1)
        .map(|_| {
            let requester = rng.gen_range(0..PEERS);
            let provider = (requester + 1 + rng.gen_range(0..PEERS - 1)) % PEERS;
            (
                PeerId::new(requester),
                PeerId::new(provider),
                ObjectId::new(rng.gen_range(0u32..1_000)),
            )
        })
        .collect();
    let search = RingSearch::new(SearchPolicy::new(5, RingPreference::ShorterFirst))
        .with_expansion_budget(6_000)
        .with_fanout(16);

    let mut group = c.benchmark_group("ring_search_rounds");
    group.sample_size(10);
    group.bench_function("fresh_per_query", |b| {
        b.iter(|| {
            let mut graph = base.clone();
            let mut total = 0usize;
            for round in 0..ROUNDS {
                if round % DELTA_EVERY == 0 {
                    let (r, p, o) = deltas[round / DELTA_EVERY];
                    if !graph.remove_request(r, p, o) {
                        graph.add_request(r, p, o);
                    }
                }
                let provider = PeerId::new((round as u32 * 7) % PEERS);
                for _ in 0..QUERIES_PER_ROUND {
                    let want = &wants[provider.as_usize()];
                    total += search
                        .find_traced_in(&mut SearchScratch::new(), &graph, provider, want, provides)
                        .rings
                        .len();
                }
            }
            total
        });
    });
    group.bench_function("candidate_cache", |b| {
        b.iter(|| {
            let mut graph = base.clone();
            let mut cache = RingCandidateCache::new();
            let mut total = 0usize;
            for round in 0..ROUNDS {
                if round % DELTA_EVERY == 0 {
                    let (r, p, o) = deltas[round / DELTA_EVERY];
                    if !graph.remove_request(r, p, o) {
                        graph.add_request(r, p, o);
                    }
                }
                let provider = PeerId::new((round as u32 * 7) % PEERS);
                let want = &wants[provider.as_usize()];
                for _ in 0..QUERIES_PER_ROUND {
                    cache.drain_graph(&mut graph, usize::MAX, true);
                    if let Some(rings) = cache.lookup(provider, want) {
                        total += rings.len();
                    } else {
                        let mut scratch = SearchScratch::new();
                        let trace =
                            search.find_traced_in(&mut scratch, &graph, provider, want, provides);
                        total += trace.rings.len();
                        cache.store(provider, want.clone(), trace);
                    }
                }
            }
            total
        });
    });
    group.finish();
}

/// The `scale-10k` search shape (10k peers, budget 512, fanout 8) on the
/// traced path: one warm scratch runs `find_traced_in` from rotating roots,
/// so every search also assembles its dependency sets.  Holdings are
/// sparse — about one (peer, object) pair in 97 provides — so most searches
/// find no ring, as in the simulation.  Each iteration searches from 100
/// roots.
fn bench_traced_search(c: &mut Criterion) {
    const PEERS: u32 = 10_000;
    const ROOTS_PER_ITER: usize = 100;
    let graph = random_typed_graph(PEERS, 60_000, 7);
    let wants: Vec<ObjectId> = (0..6).map(|i| ObjectId::new(i * 167 % 1_000)).collect();
    let provides = |p: &PeerId, o: &ObjectId| (p.as_usize() * 31 + o.as_usize()) % 97 == 0;
    let search = RingSearch::new(SearchPolicy::new(5, RingPreference::ShorterFirst))
        .with_expansion_budget(512)
        .with_fanout(8);
    let mut scratch = SearchScratch::new();
    let mut root = 0u32;

    let mut group = c.benchmark_group("ring_search_traced");
    group.sample_size(20);
    group.bench_function("peers10k_budget512_fanout8", |b| {
        b.iter(|| {
            let mut deps = 0usize;
            for _ in 0..ROOTS_PER_ITER {
                root = (root + 7_919) % PEERS;
                deps += search
                    .find_traced_in(&mut scratch, &graph, PeerId::new(root), &wants, provides)
                    .deps
                    .len();
            }
            deps
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ring_search,
    bench_stored_oracle,
    bench_cached_vs_fresh,
    bench_traced_search
);
criterion_main!(benches);
