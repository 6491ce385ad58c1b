//! Request generation: which object does a peer ask for next?

use des::DetRng;
use serde::{Deserialize, Serialize};

use crate::{Catalog, ObjectId, PeerInterests};

/// Generates download requests for peers.
///
/// A request is generated by picking a category from the peer's local
/// preference distribution and then an object within that category according
/// to the catalog's within-category power-law popularity.  Candidate objects
/// the caller rejects (already stored or already being downloaded — the
/// paper's "cache hits") are skipped and the draw is retried, up to a bounded
/// number of attempts.
///
/// # Example
///
/// ```
/// use des::DetRng;
/// use workload::{Catalog, PeerInterests, RequestGenerator, WorkloadConfig};
///
/// let config = WorkloadConfig::small();
/// let mut rng = DetRng::seed_from(2);
/// let catalog = Catalog::generate(&config, &mut rng);
/// let interests = PeerInterests::generate(&catalog, &config, &mut rng);
/// let generator = RequestGenerator::new();
/// let pick = generator.next_request(&catalog, &interests, &mut rng, |_| false);
/// assert!(pick.is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestGenerator;

/// Draws made per request before giving up when every candidate is rejected.
const MAX_ATTEMPTS: usize = 64;

impl RequestGenerator {
    /// Creates a generator that makes up to 64 draw attempts per request.
    #[must_use]
    pub fn new() -> Self {
        RequestGenerator
    }

    /// Draws the next object this peer should request.
    ///
    /// `reject` is called for each candidate; returning `true` (e.g. for an
    /// object already held or already pending) skips the candidate and the
    /// draw is retried.  Returns `None` if no acceptable object was found
    /// within the attempt budget.
    pub fn next_request<F>(
        &self,
        catalog: &Catalog,
        interests: &PeerInterests,
        rng: &mut DetRng,
        mut reject: F,
    ) -> Option<ObjectId>
    where
        F: FnMut(ObjectId) -> bool,
    {
        for _ in 0..MAX_ATTEMPTS {
            let category = interests.pick_category(rng);
            let candidate = catalog.sample_object(category, rng.gen_unit());
            if !reject(candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

impl Default for RequestGenerator {
    fn default() -> Self {
        RequestGenerator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadConfig;
    use std::collections::HashSet;

    fn setup(seed: u64) -> (Catalog, PeerInterests, RequestGenerator, DetRng) {
        let config = WorkloadConfig::small();
        let mut rng = DetRng::seed_from(seed);
        let catalog = Catalog::generate(&config, &mut rng);
        let interests = PeerInterests::generate(&catalog, &config, &mut rng);
        let generator = RequestGenerator::new();
        (catalog, interests, generator, rng)
    }

    #[test]
    fn requests_come_from_interesting_categories() {
        let (catalog, interests, generator, mut rng) = setup(21);
        for _ in 0..200 {
            let obj = generator
                .next_request(&catalog, &interests, &mut rng, |_| false)
                .unwrap();
            let category = catalog.object(obj).category;
            assert!(interests.is_interested_in(category));
        }
    }

    #[test]
    fn rejection_filter_is_respected() {
        let (catalog, interests, generator, mut rng) = setup(22);
        let mut forbidden: HashSet<ObjectId> = HashSet::new();
        // Forbid everything in the first interesting category.
        for id in catalog.objects_in_category(interests.categories()[0]) {
            forbidden.insert(*id);
        }
        for _ in 0..100 {
            if let Some(obj) =
                generator.next_request(&catalog, &interests, &mut rng, |o| forbidden.contains(&o))
            {
                assert!(!forbidden.contains(&obj));
            }
        }
    }

    #[test]
    fn returns_none_when_everything_is_rejected() {
        let (catalog, interests, generator, mut rng) = setup(23);
        let pick = generator.next_request(&catalog, &interests, &mut rng, |_| true);
        assert!(pick.is_none());
    }

    #[test]
    fn popular_objects_are_requested_more_often_with_high_factor() {
        let mut config = WorkloadConfig::small();
        config.object_popularity_factor = 1.5;
        config.categories_per_peer = (1, 1);
        config.objects_per_category = (50, 50);
        let mut rng = DetRng::seed_from(24);
        let catalog = Catalog::generate(&config, &mut rng);
        let interests = PeerInterests::generate(&catalog, &config, &mut rng);
        let generator = RequestGenerator::new();
        let category = interests.categories()[0];
        let most_popular = catalog.objects_in_category(category)[0];
        let least_popular = *catalog.objects_in_category(category).last().unwrap();
        let mut top = 0;
        let mut bottom = 0;
        for _ in 0..2_000 {
            let obj = generator
                .next_request(&catalog, &interests, &mut rng, |_| false)
                .unwrap();
            if obj == most_popular {
                top += 1;
            } else if obj == least_popular {
                bottom += 1;
            }
        }
        assert!(
            top > bottom,
            "top rank {top} should beat bottom rank {bottom}"
        );
    }

    #[test]
    fn attempt_budget_is_64_draws() {
        let (catalog, interests, generator, mut rng) = setup(25);
        let mut calls = 0;
        let pick = generator.next_request(&catalog, &interests, &mut rng, |_| {
            calls += 1;
            true
        });
        assert_eq!(pick, None);
        assert_eq!(calls, 64);
    }
}
