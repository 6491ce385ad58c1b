//! Ablation benchmarks for three design choices: preemption on/off,
//! ring-search fanout, and the five upload schedulers that `SchedulerKind`
//! selects.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim::{SchedulerKind, SimConfig, Simulation};

fn bench_config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 40;
    config.sim_duration_s = 2_000.0;
    config
}

fn bench_preemption(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_preemption");
    group.sample_size(10);
    for preemption in [true, false] {
        group.bench_with_input(
            BenchmarkId::new("enabled", preemption),
            &preemption,
            |b, preemption| {
                b.iter(|| {
                    let mut config = bench_config();
                    config.preemption = *preemption;
                    Simulation::new(config, 7).run()
                });
            },
        );
    }
    group.finish();
}

fn bench_search_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ring_search_fanout");
    group.sample_size(10);
    for fanout in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("fanout", fanout), &fanout, |b, fanout| {
            b.iter(|| {
                let mut config = bench_config();
                config.ring_search_fanout = *fanout;
                Simulation::new(config, 9).run()
            });
        });
    }
    group.finish();
}

fn bench_upload_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_upload_scheduler");
    group.sample_size(10);
    for kind in SchedulerKind::all() {
        group.bench_with_input(
            BenchmarkId::new("scheduler", kind.label()),
            &kind,
            |b, kind| {
                b.iter(|| {
                    let mut config = bench_config();
                    config.scheduler = *kind;
                    Simulation::new(config, 11).run()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_preemption,
    bench_search_fanout,
    bench_upload_schedulers
);
criterion_main!(benches);
