//! Bit-identity of the shared within-category popularity table.
//!
//! A catalog samples every category from one `PowerLawWeights` as long as
//! its longest category, scanning only the first `n` ranks of a category of
//! `n` objects.  These tests pin that each such draw returns exactly the
//! rank a freshly built `n`-rank distribution returns, for every `n` and at
//! the draws where rounding could tell them apart, including after a
//! flash-crowd release has grown the table past its setup length.

use des::DetRng;
use proptest::prelude::*;
use workload::{Catalog, CategoryId, PowerLawWeights, WorkloadConfig};

const FACTORS: [f64; 4] = [0.0, 0.2, 1.0, 1.5];

/// The per-draw sampler the table replaced, kept as the reference: build
/// and normalise an `n`-rank weight vector, then subtract and compare.
struct Rebuilt(Vec<f64>);

impl Rebuilt {
    fn new(n: usize, factor: f64) -> Self {
        let raw: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-factor)).collect();
        let total: f64 = raw.iter().sum();
        Rebuilt(raw.into_iter().map(|w| w / total).collect())
    }

    fn sample(&self, u: f64) -> usize {
        let mut target = u.clamp(0.0, 1.0 - f64::EPSILON);
        for (rank, w) in self.0.iter().enumerate() {
            if target < *w {
                return rank;
            }
            target -= w;
        }
        self.0.len() - 1
    }

    /// Draws that probe the scan's edges: both ends of `[0, 1)`, values
    /// outside it, and every cumulative boundary with its floating-point
    /// neighbours.
    fn edge_draws(&self) -> Vec<f64> {
        let mut draws = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            -0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut boundary = 0.0f64;
        for w in &self.0 {
            boundary += w;
            let bits = boundary.to_bits();
            draws.extend([f64::from_bits(bits - 1), boundary, f64::from_bits(bits + 1)]);
        }
        draws
    }
}

/// Asserts that the first `n` ranks of `table` sample exactly like a
/// rebuilt `n`-rank distribution, and that `PowerLawWeights::new(n, f)`
/// does too, at every edge draw.
fn assert_bit_identical(table: &PowerLawWeights, n: usize) {
    let factor = table.factor();
    let rebuilt = Rebuilt::new(n, factor);
    let fresh = PowerLawWeights::new(n, factor);
    for u in rebuilt.edge_draws() {
        let want = rebuilt.sample(u);
        assert_eq!(table.sample_first(n, u), want, "f={factor} n={n} u={u:e}");
        assert_eq!(fresh.sample_with(u), want, "f={factor} n={n} u={u:e}");
    }
}

#[test]
fn table_prefixes_sample_like_rebuilt_distributions() {
    const SETUP_LONGEST: usize = 120;
    const GROWN: usize = 150;
    for factor in FACTORS {
        let mut table = PowerLawWeights::new(SETUP_LONGEST, factor);
        for n in 1..=SETUP_LONGEST {
            assert_bit_identical(&table, n);
        }
        table.extend_to(GROWN);
        assert_eq!(table.len(), GROWN);
        for n in 1..=GROWN {
            assert_bit_identical(&table, n);
        }
        table.extend_to(GROWN - 1);
        assert_eq!(table.len(), GROWN, "extend_to never shrinks");
    }
}

#[test]
fn released_objects_grow_the_table_and_keep_draws_identical() {
    for factor in FACTORS {
        let mut config = WorkloadConfig::small();
        config.objects_per_category = (2, 5);
        config.object_popularity_factor = factor;
        let mut catalog = Catalog::generate(&config, &mut DetRng::seed_from(31));
        let setup_longest = catalog.object_weights().len();
        assert_eq!(catalog.object_weights().factor(), factor);
        let grown = CategoryId::new(0);
        while catalog.objects_in_category(grown).len() <= setup_longest + 2 {
            let _ = catalog.release_object(grown, 1);
        }
        assert_eq!(
            catalog.object_weights().len(),
            catalog.objects_in_category(grown).len()
        );
        for c in 0..catalog.num_categories() {
            let category = CategoryId::new(c as u32);
            let objects = catalog.objects_in_category(category);
            let rebuilt = Rebuilt::new(objects.len(), factor);
            for u in rebuilt.edge_draws() {
                assert_eq!(
                    catalog.sample_object(category, u),
                    objects[rebuilt.sample(u)],
                    "f={factor} category={c} u={u:e}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn random_prefixes_sample_like_rebuilt_distributions(
        longest in 1usize..400,
        n_frac in 0.0f64..1.0,
        factor in 0.0f64..2.5,
        u in -0.25f64..1.25,
    ) {
        let table = PowerLawWeights::new(longest, factor);
        let n = 1 + ((longest - 1) as f64 * n_frac) as usize;
        prop_assert_eq!(table.sample_first(n, u), Rebuilt::new(n, factor).sample(u));
    }
}

#[test]
#[should_panic(expected = "outside 1..=")]
fn sampling_past_the_table_panics() {
    let _ = PowerLawWeights::new(3, 0.2).sample_first(4, 0.5);
}

/// Factors of the deterministic guard-band test: uniform (exact ties), the
/// paper's 0.2, Zipf and two steeper tails.
const BAND_FACTORS: [f64; 5] = [0.0, 0.2, 1.0, 1.5, 2.5];

/// Rank counts of the guard-band test: the smallest tables, the Table II
/// mean category size (145), the largest category (300) and past it.
const BAND_SIZES: [usize; 9] = [1, 2, 3, 7, 64, 145, 299, 300, 400];

/// `totals[k] = raw[0] + … + raw[k]` summed left to right, and the guard
/// band's half-width `tol`, as `PowerLawWeights::sample_first` forms them.
fn prefix_sums(n: usize, factor: f64) -> (Vec<f64>, f64) {
    let totals: Vec<f64> = (1..=n)
        .scan(0.0, |sum, rank| {
            *sum += (rank as f64).powf(-factor);
            Some(*sum)
        })
        .collect();
    let tol = (2 * n + 8) as f64 * f64::EPSILON * totals[n - 1];
    (totals, tol)
}

/// The reference's exact rank boundaries: `bounds[k]` is the least draw in
/// `[0, 1)` that it maps past rank `k`, found by bisecting the bit patterns
/// of non-negative floats (the scan is monotone in `u`), or 1 if none is.
fn scan_boundaries(rebuilt: &Rebuilt) -> Vec<f64> {
    let top = 1.0 - f64::EPSILON;
    (0..rebuilt.0.len() - 1)
        .map(|k| {
            if rebuilt.sample(top) <= k {
                return 1.0;
            }
            // rebuilt.sample(lo) <= k < rebuilt.sample(hi); rank 0 weighs 1,
            // so a draw of 0 never passes it.
            let (mut lo, mut hi) = (0.0f64.to_bits(), top.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if rebuilt.sample(f64::from_bits(mid)) > k {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f64::from_bits(hi)
        })
        .collect()
}

/// Checks `table.sample_first(n, ·)` against the reference at
/// `boundary_ulps` floating-point neighbours either side of each exact rank
/// boundary and at `edge_ulps` either side of each guard-band edge
/// `totals[k] ± tol`.  Returns how many of those draws a binary search of
/// the prefix sums without the band
/// (`totals.partition_point(|t| t <= u * total)`) would have answered
/// wrongly.
fn check_guard_band(
    table: &PowerLawWeights,
    n: usize,
    boundary_ulps: u64,
    edge_ulps: u64,
) -> usize {
    let factor = table.factor();
    let bounds = scan_boundaries(&Rebuilt::new(n, factor));
    let (totals, tol) = prefix_sums(n, factor);
    let total = totals[n - 1];
    let neighbours = |u: f64, ulps: u64| {
        let bits = u.to_bits();
        (1..=ulps)
            .flat_map(move |i| [bits.saturating_sub(i), bits + i])
            .map(f64::from_bits)
    };
    let boundary_draws = bounds
        .iter()
        .flat_map(|&b| std::iter::once(b).chain(neighbours(b, boundary_ulps)));
    let band_edges = totals
        .iter()
        .flat_map(|&t| [(t - tol) / total, (t + tol) / total])
        .flat_map(|u| std::iter::once(u).chain(neighbours(u, edge_ulps)));
    let mut unguarded_misses = 0;
    for u in boundary_draws.chain(band_edges) {
        if !(0.0..1.0).contains(&u) {
            continue;
        }
        let want = bounds.partition_point(|&b| b <= u);
        assert_eq!(table.sample_first(n, u), want, "f={factor} n={n} u={u:e}");
        let x = u * total;
        if totals.partition_point(|&t| t <= x).min(n - 1) != want {
            unguarded_misses += 1;
        }
    }
    unguarded_misses
}

#[test]
fn guard_band_keeps_binary_search_draws_identical_to_the_scan() {
    let mut unguarded_misses = 0;
    for factor in BAND_FACTORS {
        for n in BAND_SIZES {
            let table = PowerLawWeights::new(n, factor);
            unguarded_misses += check_guard_band(&table, n, 64, 4);
        }
        // A table grown past its setup length, as a flash crowd leaves it,
        // sampled at a prefix that spans its old and new ranks.
        let mut grown = PowerLawWeights::new(64, factor);
        grown.extend_to(400);
        unguarded_misses += check_guard_band(&grown, 145, 64, 4);
    }
    // The band is load-bearing: without it, some of these draws would
    // return a rank the scan does not.
    assert!(unguarded_misses > 0);
}

#[test]
fn exact_uniform_ties_fall_inside_the_band_and_match_the_scan() {
    for n in BAND_SIZES {
        let table = PowerLawWeights::new(n, 0.0);
        let rebuilt = Rebuilt::new(n, 0.0);
        let (totals, tol) = prefix_sums(n, 0.0);
        for k in 1..n {
            let u = k as f64 / n as f64;
            // totals[k - 1] is exactly k: the draw sits on a rank boundary,
            // inside the band, so only the scan may answer it.
            assert!(
                (u * totals[n - 1] - totals[k - 1]).abs() <= tol,
                "n={n} k={k}"
            );
            assert_eq!(table.sample_first(n, u), rebuilt.sample(u), "n={n} k={k}");
        }
    }
}

/// Every rank count up to 400 at six factors: random draws against the
/// reference, and dense floating-point neighbourhoods of every exact rank
/// boundary and band edge.  Nightly CI runs it in release.
#[test]
#[ignore = "exhaustive: about 20 s in release"]
fn exhaustive_guard_band_sweep() {
    const SWEEP_FACTORS: [f64; 6] = [0.0, 0.2, 0.5, 1.0, 1.5, 2.5];
    let mut rng = DetRng::seed_from(25);
    for factor in SWEEP_FACTORS {
        let table = PowerLawWeights::new(400, factor);
        for n in 1..=400 {
            let rebuilt = Rebuilt::new(n, factor);
            for _ in 0..1_000 {
                let u = rng.gen_unit();
                assert_eq!(
                    table.sample_first(n, u),
                    rebuilt.sample(u),
                    "f={factor} n={n} u={u:e}"
                );
            }
            check_guard_band(&table, n, 32, 32);
        }
    }
}
