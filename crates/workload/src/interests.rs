//! Per-peer category interests and local preference distributions.

use des::DetRng;
use serde::{Deserialize, Serialize};

use crate::{Catalog, CategoryId, WorkloadConfig};

/// The categories a peer is interested in, with its local preference weights.
///
/// Following the paper, each peer is assigned a number of categories (uniform
/// in the configured range) chosen according to *global* category popularity,
/// plus an independent *local* preference distribution with uniformly random
/// weights over those categories.  Requests pick a category from the local
/// preference distribution first.
///
/// # Example
///
/// ```
/// use des::DetRng;
/// use workload::{Catalog, PeerInterests, WorkloadConfig};
///
/// let config = WorkloadConfig::small();
/// let mut rng = DetRng::seed_from(7);
/// let catalog = Catalog::generate(&config, &mut rng);
/// let interests = PeerInterests::generate(&catalog, &config, &mut rng);
/// assert!(!interests.categories().is_empty());
/// let picked = interests.pick_category(&mut rng);
/// assert!(interests.categories().contains(&picked));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerInterests {
    categories: Vec<CategoryId>,
    local_preference: Vec<f64>,
}

impl PeerInterests {
    /// Generates interests for one peer.
    #[must_use]
    pub fn generate(catalog: &Catalog, config: &WorkloadConfig, rng: &mut DetRng) -> Self {
        let (lo, hi) = config.categories_per_peer;
        let count = rng.gen_range(lo..=hi).min(catalog.num_categories() as u32) as usize;
        Self::generate_with_count(catalog, count, rng)
    }

    /// Generates interests with an explicit number of categories (used by the
    /// Figure 11 sweep over categories-per-peer).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn generate_with_count(catalog: &Catalog, count: usize, rng: &mut DetRng) -> Self {
        assert!(
            count > 0,
            "a peer must be interested in at least one category"
        );
        let count = count.min(catalog.num_categories());
        let weights = catalog.category_weights();
        let mut categories: Vec<CategoryId> = Vec::with_capacity(count);
        // Sample distinct categories proportionally to global popularity.
        let mut remaining: Vec<(usize, f64)> = (0..catalog.num_categories())
            .map(|i| (i, weights.weight(i)))
            .collect();
        for _ in 0..count {
            let ws: Vec<f64> = remaining.iter().map(|(_, w)| *w).collect();
            // Under a huge popularity factor every remaining weight can
            // underflow to zero; the draw's limit is then the most popular
            // remaining category.
            let pick = rng.choose_weighted_index(&ws).unwrap_or_else(|| {
                (0..remaining.len())
                    .min_by_key(|&k| remaining[k].0)
                    .expect("count never exceeds the catalog's categories")
            });
            let (cat_index, _) = remaining.swap_remove(pick);
            categories.push(CategoryId::new(cat_index as u32));
        }
        let local_preference: Vec<f64> = (0..categories.len())
            .map(|_| rng.gen_unit().max(1e-6))
            .collect();
        PeerInterests {
            categories,
            local_preference,
        }
    }

    /// The categories this peer is interested in.
    #[must_use]
    pub fn categories(&self) -> &[CategoryId] {
        &self.categories
    }

    /// Whether the peer is interested in `category`.
    #[must_use]
    pub fn is_interested_in(&self, category: CategoryId) -> bool {
        self.categories.contains(&category)
    }

    /// Picks a category according to the local preference distribution.
    pub fn pick_category(&self, rng: &mut DetRng) -> CategoryId {
        let idx = rng
            .choose_weighted_index(&self.local_preference)
            .expect("local preference weights are positive");
        self.categories[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(seed: u64) -> (Catalog, WorkloadConfig, DetRng) {
        let config = WorkloadConfig::small();
        let mut rng = DetRng::seed_from(seed);
        let catalog = Catalog::generate(&config, &mut rng);
        (catalog, config, rng)
    }

    #[test]
    fn categories_are_distinct_and_within_range() {
        let (catalog, config, mut rng) = setup(11);
        for _ in 0..50 {
            let interests = PeerInterests::generate(&catalog, &config, &mut rng);
            let n = interests.categories().len() as u32;
            assert!(n >= config.categories_per_peer.0);
            assert!(n <= config.categories_per_peer.1);
            let mut seen = interests.categories().to_vec();
            seen.sort();
            seen.dedup();
            assert_eq!(
                seen.len(),
                interests.categories().len(),
                "categories must be distinct"
            );
            assert_eq!(
                interests.local_preference.len(),
                interests.categories().len()
            );
        }
    }

    #[test]
    fn explicit_count_is_respected() {
        let (catalog, _config, mut rng) = setup(12);
        let interests = PeerInterests::generate_with_count(&catalog, 3, &mut rng);
        assert_eq!(interests.categories().len(), 3);
    }

    #[test]
    fn count_is_clamped_to_catalog() {
        let (catalog, _config, mut rng) = setup(13);
        let interests = PeerInterests::generate_with_count(&catalog, 10_000, &mut rng);
        assert_eq!(interests.categories().len(), catalog.num_categories());
    }

    #[test]
    fn pick_category_only_returns_interests() {
        let (catalog, config, mut rng) = setup(14);
        let interests = PeerInterests::generate(&catalog, &config, &mut rng);
        for _ in 0..100 {
            let c = interests.pick_category(&mut rng);
            assert!(interests.is_interested_in(c));
        }
    }

    #[test]
    fn popular_categories_are_selected_more_often() {
        // With a strongly skewed category distribution, category 0 should be
        // picked as an interest far more often than the least popular one.
        let mut config = WorkloadConfig::small();
        config.category_popularity_factor = 1.5;
        config.categories_per_peer = (1, 1);
        let mut rng = DetRng::seed_from(15);
        let catalog = Catalog::generate(&config, &mut rng);
        let mut first = 0;
        let mut last = 0;
        for _ in 0..500 {
            let interests = PeerInterests::generate(&catalog, &config, &mut rng);
            if interests.categories()[0] == CategoryId::new(0) {
                first += 1;
            }
            if interests.categories()[0] == CategoryId::new(config.num_categories - 1) {
                last += 1;
            }
        }
        assert!(first > last, "popular category picked {first} vs {last}");
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_count_panics() {
        let (catalog, _config, mut rng) = setup(16);
        let _ = PeerInterests::generate_with_count(&catalog, 0, &mut rng);
    }
}
