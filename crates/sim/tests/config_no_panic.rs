//! No-panic property for configurations: every [`SimConfig`] either fails
//! [`SimConfig::validate`] or runs to its horizon without panicking.
//!
//! Each case draws every field `validate` checks, the nested workload, link,
//! behavior, protection, churn, catastrophe, flash-crowd and class values
//! included, plus the discipline's ring bound.  A per-case "wildness" sets
//! how often a field takes an edge value instead of a typical one: 0,
//! negatives, NaN, ±∞, tiny and huge values.  Systems stay small (at most 24
//! peers, horizons of at most 600 simulated seconds) so the property fits
//! the per-change suite.  Edge values that are legal but only make a run
//! long (one-byte objects or blocks) are not drawn.

use des::DetRng;
use exchange::ExchangePolicy;
use proptest::prelude::*;
use sim::{
    BehaviorKind, BehaviorMix, CapacityClass, CatastropheConfig, ChurnConfig, ClassMix,
    FlashCrowdConfig, Protection, SimConfig, Simulation,
};

const EDGE_REALS: [f64; 11] = [
    0.0,
    -0.0,
    -1.0,
    -1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    1e-9,
    1e300,
    f64::MAX,
];

/// Draws typical field values, or with probability `wild` an edge value.
struct Draw {
    rng: DetRng,
    wild: f64,
}

impl Draw {
    fn is_wild(&mut self) -> bool {
        self.rng.gen_bool(self.wild)
    }

    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        if self.is_wild() {
            EDGE_REALS[self.rng.gen_range(0..EDGE_REALS.len())]
        } else {
            self.rng.gen_range(lo..hi)
        }
    }

    fn int(&mut self, lo: u64, hi: u64, edges: &[u64]) -> u64 {
        if self.is_wild() {
            edges[self.rng.gen_range(0..edges.len())]
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// A count in `lo..=hi`, or 0, 1 or `usize::MAX`.
    fn count(&mut self, lo: usize, hi: usize) -> usize {
        let max = u64::try_from(usize::MAX).expect("64-bit usize");
        usize::try_from(self.int(lo as u64, hi as u64, &[0, 1, max])).expect("fits usize")
    }

    fn small(&mut self, lo: u32, hi: u32) -> u32 {
        u32::try_from(self.int(lo.into(), hi.into(), &[0, 1])).expect("fits u32")
    }

    /// An inclusive `(lo, hi)` range inside `1..=hi_max`, or an empty one.
    fn range(&mut self, hi_max: u32) -> (u32, u32) {
        if self.is_wild() {
            [(0, 0), (0, hi_max), (2, 1)][self.rng.gen_range(0..3usize)]
        } else {
            let lo = self.rng.gen_range(1..=hi_max);
            (lo, self.rng.gen_range(lo..=hi_max))
        }
    }

    /// Weighted mix entries over a shuffled subset of `all`: sometimes none,
    /// sometimes a duplicate.
    fn mix<T: Copy>(&mut self, mut all: Vec<T>) -> Vec<(T, f64)> {
        self.rng.shuffle(&mut all);
        let n = if self.is_wild() {
            0
        } else {
            self.rng.gen_range(1..=all.len())
        };
        let mut entries: Vec<(T, f64)> =
            all[..n].iter().map(|&k| (k, self.real(0.0, 4.0))).collect();
        if n > 0 && self.is_wild() {
            entries.push(entries[0]);
        }
        entries
    }
}

fn any_config(seed: u64) -> SimConfig {
    let mut rng = DetRng::seed_from(seed);
    let wild = [0.0, 0.01, 0.03, 0.3][rng.gen_range(0..4usize)];
    let d = &mut Draw { rng, wild };
    let mut c = SimConfig::quick_test();
    c.num_peers = usize::try_from(d.int(2, 24, &[0, 1])).expect("small");
    c.behaviors = BehaviorMix::weighted(d.mix(BehaviorKind::all()));
    c.protection = match d.rng.gen_range(0..3u32) {
        0 => Protection::None,
        1 => Protection::Windowed {
            max_window: d.small(1, 16),
        },
        _ => Protection::Mediated,
    };
    c.rtt_s = d.real(0.001, 2.0);
    let w = &mut c.workload;
    w.num_categories = d.small(1, 30);
    w.objects_per_category = d.range(30);
    w.categories_per_peer = d.range(w.num_categories.clamp(1, 8));
    w.storage_capacity_objects = d.range(12);
    w.category_popularity_factor = d.real(0.0, 2.0);
    w.object_popularity_factor = d.real(0.0, 2.0);
    w.object_size_bytes = d.int(64 << 10, 2 << 20, &[0, u64::MAX]);
    c.link.download_kbps = d.real(10.0, 1000.0);
    c.link.upload_kbps = d.real(40.0, 200.0);
    c.link.slot_kbps = d.real(5.0, 40.0);
    c.discipline = match d.rng.gen_range(0..4u32) {
        0 => ExchangePolicy::NoExchange,
        1 => ExchangePolicy::Pairwise,
        2 => ExchangePolicy::PreferLonger {
            max_ring: d.count(2, 6),
        },
        _ => ExchangePolicy::PreferShorter {
            max_ring: d.count(2, 6),
        },
    };
    c.scheduler = credit::SchedulerKind::all()[d.rng.gen_range(0..5usize)];
    c.preemption = d.rng.gen_bool(0.5);
    c.max_pending_objects = d.count(1, 6);
    c.irq_capacity = d.count(1, 200);
    c.lookup_max_providers = d.count(1, 10);
    c.block_bytes = d.int(16 << 10, 1 << 20, &[0, u64::MAX]);
    c.ring_search_budget = d.count(1, 4_000);
    c.ring_search_fanout = d.count(1, 16);
    c.ring_attempts_per_schedule = d.count(1, 8);
    c.ring_candidate_cache = d.rng.gen_bool(0.5);
    c.shards = usize::try_from(d.int(1, 1, &[0, 2])).expect("small");
    // Capped at 600 s; NaN, negatives and zero pass through.
    let horizon = d.real(30.0, 600.0);
    c.sim_duration_s = if horizon > 600.0 { 600.0 } else { horizon };
    c.warmup_s = if d.rng.gen_bool(0.5) {
        0.0
    } else {
        d.real(0.0, c.sim_duration_s.max(1.0))
    };
    c.storage_maintenance_interval_s = d.real(10.0, 600.0);
    c.request_retry_interval_s = d.real(10.0, 600.0);
    c.churn = d
        .rng
        .gen_bool(0.3)
        .then(|| ChurnConfig::new(d.real(30.0, 600.0), d.real(10.0, 300.0)));
    c.catastrophe = d
        .rng
        .gen_bool(0.3)
        .then(|| CatastropheConfig::new(d.real(0.0, 600.0), d.count(1, 4)));
    c.flash_crowd = d.rng.gen_bool(0.3).then(|| {
        FlashCrowdConfig::new(d.real(0.0, 600.0), d.count(1, 12)).with_seed_holders(d.count(1, 3))
    });
    c.classes = ClassMix::weighted(d.mix(CapacityClass::all().to_vec()));
    c
}

proptest! {
    #[test]
    fn every_config_is_rejected_or_runs_without_panicking(seed in 0u64..u64::MAX) {
        let config = any_config(seed);
        if config.validate().is_ok() {
            let report = Simulation::new(config, seed).run();
            prop_assert!(report.peers() >= 2);
        }
    }
}
