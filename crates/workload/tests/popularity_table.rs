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
