//! The global content catalog: categories and the objects they contain.

use des::DetRng;
use serde::{Deserialize, Serialize};

use crate::{CategoryId, ObjectId, PowerLawWeights, WorkloadConfig};

/// Metadata of one object in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectInfo {
    /// The object's identifier.
    pub id: ObjectId,
    /// The category the object belongs to.
    pub category: CategoryId,
    /// Popularity rank of the object *within its category* (0 = most popular).
    pub rank_in_category: u32,
    /// Object size in bytes.
    pub size_bytes: u64,
}

/// The immutable catalog of categories and objects used by a simulation run.
///
/// The catalog is generated once from a [`WorkloadConfig`] and a seeded RNG:
/// the number of objects in each category is uniform in the configured range
/// and every object gets the configured (fixed) size.
///
/// # Example
///
/// ```
/// use des::DetRng;
/// use workload::{Catalog, WorkloadConfig};
///
/// let catalog = Catalog::generate(&WorkloadConfig::small(), &mut DetRng::seed_from(3));
/// assert!(catalog.num_objects() > 0);
/// let first = catalog.objects_in_category(workload::CategoryId::new(0))[0];
/// assert_eq!(catalog.object(first).category.index(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    objects: Vec<ObjectInfo>,
    /// For each category, the ids of its objects ordered by popularity rank.
    by_category: Vec<Vec<ObjectId>>,
    category_weights: PowerLawWeights,
    /// Within-category object popularity, as long as the longest category:
    /// a category of `n` objects samples its first `n` ranks.
    object_weights: PowerLawWeights,
}

impl Catalog {
    /// Generates a catalog according to `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`WorkloadConfig::validate`].
    #[must_use]
    pub fn generate(config: &WorkloadConfig, rng: &mut DetRng) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid workload config: {e}"));
        let mut objects = Vec::new();
        let mut by_category = Vec::with_capacity(config.num_categories as usize);
        for cat_index in 0..config.num_categories {
            let category = CategoryId::new(cat_index);
            let (lo, hi) = config.objects_per_category;
            let count = rng.gen_range(lo..=hi);
            let mut ids = Vec::with_capacity(count as usize);
            for rank in 0..count {
                let id = ObjectId::new(objects.len() as u32);
                objects.push(ObjectInfo {
                    id,
                    category,
                    rank_in_category: rank,
                    size_bytes: config.object_size_bytes,
                });
                ids.push(id);
            }
            by_category.push(ids);
        }
        let category_weights = PowerLawWeights::new(
            config.num_categories as usize,
            config.category_popularity_factor,
        );
        let longest = by_category
            .iter()
            .map(Vec::len)
            .max()
            .expect("a validated config has at least one category");
        let object_weights = PowerLawWeights::new(longest, config.object_popularity_factor);
        Catalog {
            objects,
            by_category,
            category_weights,
            object_weights,
        }
    }

    /// Total number of objects across all categories.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of categories.
    #[must_use]
    pub fn num_categories(&self) -> usize {
        self.by_category.len()
    }

    /// Whether `object` is a valid id in this catalog.
    #[must_use]
    pub fn contains(&self, object: ObjectId) -> bool {
        object.as_usize() < self.objects.len()
    }

    /// Metadata of `object`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this catalog.
    #[must_use]
    pub fn object(&self, object: ObjectId) -> ObjectInfo {
        self.objects[object.as_usize()]
    }

    /// Size of `object` in bytes.
    #[must_use]
    pub fn size_bytes(&self, object: ObjectId) -> u64 {
        self.object(object).size_bytes
    }

    /// The objects of `category`, most popular first.
    ///
    /// # Panics
    ///
    /// Panics if the category id is out of range.
    #[must_use]
    pub fn objects_in_category(&self, category: CategoryId) -> &[ObjectId] {
        &self.by_category[category.as_usize()]
    }

    /// Global popularity weights over categories (by rank = category index).
    #[must_use]
    pub fn category_weights(&self) -> &PowerLawWeights {
        &self.category_weights
    }

    /// Within-category object popularity weights (by rank within a
    /// category), covering the longest category; the catalog's object
    /// popularity factor is their [`PowerLawWeights::factor`].
    #[must_use]
    pub fn object_weights(&self) -> &PowerLawWeights {
        &self.object_weights
    }

    /// Picks an object of `category` by within-category popularity, given a
    /// uniform draw `u` in `[0, 1)`.
    ///
    /// The rank comes from the shared table's first `n` ranks, for a
    /// category of `n` objects, by [`PowerLawWeights::sample_first`]: a
    /// binary search of its prefix sums in O(log n), falling back to the
    /// defining linear scan for draws within rounding distance of a rank
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if the category id is out of range or the category is empty
    /// (never true: categories are generated non-empty and only grow).
    #[must_use]
    pub fn sample_object(&self, category: CategoryId, u: f64) -> ObjectId {
        let objects = self.objects_in_category(category);
        objects[self.object_weights.sample_first(objects.len(), u)]
    }

    /// Releases a new object into `category` mid-run (a flash-crowd drop).
    ///
    /// The object is appended as the category's least-popular rank — organic
    /// popularity draws pick it up from there; the synthetic burst of
    /// requesters is the caller's job.  Returns the new object's id, which
    /// extends the dense id space by one.
    ///
    /// # Panics
    ///
    /// Panics if the category id is out of range.
    pub fn release_object(&mut self, category: CategoryId, size_bytes: u64) -> ObjectId {
        let ids = &mut self.by_category[category.as_usize()];
        let id = ObjectId::new(self.objects.len() as u32);
        self.objects.push(ObjectInfo {
            id,
            category,
            rank_in_category: ids.len() as u32,
            size_bytes,
        });
        ids.push(id);
        self.object_weights.extend_to(ids.len());
        id
    }

    /// Iterates over all objects.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectInfo> {
        self.objects.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog(seed: u64) -> Catalog {
        Catalog::generate(&WorkloadConfig::small(), &mut DetRng::seed_from(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(small_catalog(9), small_catalog(9));
    }

    #[test]
    fn different_seeds_generally_differ() {
        assert_ne!(small_catalog(1), small_catalog(2));
    }

    #[test]
    fn category_sizes_respect_config_range() {
        let config = WorkloadConfig::small();
        let catalog = Catalog::generate(&config, &mut DetRng::seed_from(4));
        assert_eq!(catalog.num_categories(), config.num_categories as usize);
        for c in 0..config.num_categories {
            let n = catalog.objects_in_category(CategoryId::new(c)).len() as u32;
            assert!(n >= config.objects_per_category.0);
            assert!(n <= config.objects_per_category.1);
        }
    }

    #[test]
    fn objects_know_their_category_and_rank() {
        let catalog = small_catalog(5);
        for c in 0..catalog.num_categories() {
            let cat = CategoryId::new(c as u32);
            for (rank, id) in catalog.objects_in_category(cat).iter().enumerate() {
                let info = catalog.object(*id);
                assert_eq!(info.category, cat);
                assert_eq!(info.rank_in_category as usize, rank);
                assert_eq!(info.id, *id);
            }
        }
    }

    #[test]
    fn object_ids_are_dense_and_valid() {
        let catalog = small_catalog(6);
        for i in 0..catalog.num_objects() {
            assert!(catalog.contains(ObjectId::new(i as u32)));
        }
        assert!(!catalog.contains(ObjectId::new(catalog.num_objects() as u32)));
    }

    #[test]
    fn all_objects_have_configured_size() {
        let config = WorkloadConfig::small();
        let catalog = Catalog::generate(&config, &mut DetRng::seed_from(7));
        assert!(catalog
            .iter()
            .all(|o| o.size_bytes == config.object_size_bytes));
        assert_eq!(
            catalog.size_bytes(ObjectId::new(0)),
            config.object_size_bytes
        );
    }

    #[test]
    fn released_object_joins_its_category_at_last_rank() {
        let mut catalog = small_catalog(8);
        let before = catalog.num_objects();
        let cat = CategoryId::new(0);
        let old_len = catalog.objects_in_category(cat).len();
        let id = catalog.release_object(cat, 123);
        assert_eq!(id.as_usize(), before);
        assert!(catalog.contains(id));
        let info = catalog.object(id);
        assert_eq!(info.category, cat);
        assert_eq!(info.rank_in_category as usize, old_len);
        assert_eq!(info.size_bytes, 123);
        assert_eq!(catalog.objects_in_category(cat).last(), Some(&id));
        assert_eq!(catalog.num_objects(), before + 1);
    }

    #[test]
    #[should_panic(expected = "invalid workload config")]
    fn invalid_config_panics() {
        let mut config = WorkloadConfig::small();
        config.num_categories = 0;
        let _ = Catalog::generate(&config, &mut DetRng::seed_from(1));
    }
}
