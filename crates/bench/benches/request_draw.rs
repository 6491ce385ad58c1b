//! Micro-benchmarks of the workload's popularity draws on the Table II
//! catalog (300 categories of 1–300 objects, object popularity factor 0.2):
//! initial storage placement and request generation, each timed as one pass
//! over 200 peers.  Request draws reject objects the peer already stores, as
//! the simulator does, so the retry loop runs at its real rate.  A third
//! group times the within-category rank draw alone.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use des::DetRng;
use workload::{
    Catalog, PeerInterests, PowerLawWeights, RequestGenerator, Storage, WorkloadConfig,
};

const PEERS: usize = 200;

struct Peer {
    interests: PeerInterests,
    capacity: usize,
    storage: Storage,
}

fn table2_peers(rng: &mut DetRng) -> (Catalog, Vec<Peer>) {
    let config = WorkloadConfig::paper_defaults();
    let catalog = Catalog::generate(&config, rng);
    let (cap_lo, cap_hi) = config.storage_capacity_objects;
    let peers = (0..PEERS)
        .map(|_| {
            let interests = PeerInterests::generate(&catalog, &config, rng);
            let capacity = rng.gen_range(cap_lo..=cap_hi) as usize;
            let storage = Storage::initial_placement(capacity, &catalog, &interests, rng);
            Peer {
                interests,
                capacity,
                storage,
            }
        })
        .collect();
    (catalog, peers)
}

fn bench_draws(c: &mut Criterion) {
    let mut rng = DetRng::seed_from(17);
    let (catalog, peers) = table2_peers(&mut rng);
    let generator = RequestGenerator::new();
    let mut group = c.benchmark_group("request_draw");
    group.sample_size(30);
    group.bench_function("initial_placement_200_peers", |b| {
        b.iter(|| {
            peers
                .iter()
                .map(|p| Storage::initial_placement(p.capacity, &catalog, &p.interests, &mut rng))
                .map(|s| s.len())
                .sum::<usize>()
        });
    });
    group.bench_function("next_request_200_peers", |b| {
        b.iter(|| {
            peers
                .iter()
                .filter_map(|p| {
                    generator
                        .next_request(&catalog, &p.interests, &mut rng, |o| p.storage.contains(o))
                })
                .count()
        });
    });
    group.finish();
}

/// `PowerLawWeights::sample_first` over the Table II category shape: four
/// uniform draws at every category size from 1 to 300, factor 0.2.
fn bench_rank_draw(c: &mut Criterion) {
    let weights = PowerLawWeights::new(300, 0.2);
    let mut rng = DetRng::seed_from(23);
    let draws: Vec<(usize, f64)> = (1..=300)
        .flat_map(|n| [n; 4])
        .map(|n| (n, rng.gen_unit()))
        .collect();
    let mut group = c.benchmark_group("rank_draw");
    group.sample_size(30);
    group.bench_function("sample_first_n_1_to_300", |b| {
        b.iter(|| {
            black_box(&draws)
                .iter()
                .map(|&(n, u)| weights.sample_first(n, u))
                .sum::<usize>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_draws, bench_rank_draw);
criterion_main!(benches);
