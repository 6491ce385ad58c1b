//! Per-peer object storage with capacity limits and random eviction.

use std::collections::BTreeSet;

use des::DetRng;
use serde::{Deserialize, Serialize};

use crate::{Catalog, ObjectId, PeerInterests};

/// The set of objects a peer currently stores.
///
/// Capacity is expressed in number of objects (as in the paper's Table II).
/// When over capacity, random objects are evicted, except objects that the
/// owner has *pinned* (the paper postpones removal of objects used in an
/// ongoing exchange).
///
/// # Example
///
/// ```
/// use des::DetRng;
/// use workload::{ObjectId, Storage};
///
/// let mut storage = Storage::new(2);
/// storage.insert(ObjectId::new(1));
/// storage.insert(ObjectId::new(2));
/// storage.insert(ObjectId::new(3));
/// assert_eq!(storage.len(), 3);
///
/// let evicted = storage.evict_over_capacity(&mut DetRng::seed_from(1), |_| false);
/// assert_eq!(evicted.len(), 1);
/// assert_eq!(storage.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Storage {
    capacity: usize,
    objects: BTreeSet<ObjectId>,
}

impl Storage {
    /// Creates an empty store that aims to hold at most `capacity` objects.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Storage {
            capacity,
            objects: BTreeSet::new(),
        }
    }

    /// Populates an initial store according to the peer's category interests,
    /// as the paper does at simulation start: objects from the peer's
    /// categories, biased towards popular ones, up to capacity.
    #[must_use]
    pub fn initial_placement(
        capacity: usize,
        catalog: &Catalog,
        interests: &PeerInterests,
        rng: &mut DetRng,
    ) -> Self {
        let mut storage = Storage::new(capacity);
        if capacity == 0 {
            return storage;
        }
        let mut attempts = 0;
        let max_attempts = capacity * 16;
        while storage.len() < capacity && attempts < max_attempts {
            attempts += 1;
            let category = interests.pick_category(rng);
            storage.insert(catalog.sample_object(category, rng.gen_unit()));
        }
        storage
    }

    /// The capacity in number of objects.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of objects currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Whether the store currently exceeds its capacity.
    #[must_use]
    pub fn over_capacity(&self) -> bool {
        self.objects.len() > self.capacity
    }

    /// Whether `object` is stored.
    #[must_use]
    pub fn contains(&self, object: ObjectId) -> bool {
        self.objects.contains(&object)
    }

    /// Adds `object`; returns `true` if it was not already present.
    ///
    /// Inserting may push the store over capacity; the simulator calls
    /// [`Storage::evict_over_capacity`] at its periodic maintenance interval,
    /// mirroring the paper ("in regular intervals, peers examine their
    /// storage and remove random objects if the maximum is exceeded").
    pub fn insert(&mut self, object: ObjectId) -> bool {
        self.objects.insert(object)
    }

    /// Removes `object`; returns `true` if it was present.
    pub fn remove(&mut self, object: ObjectId) -> bool {
        self.objects.remove(&object)
    }

    /// Evicts uniformly random objects until the store is back within
    /// capacity, skipping objects for which `pinned` returns `true`.
    ///
    /// Returns the evicted objects.
    pub fn evict_over_capacity<F>(&mut self, rng: &mut DetRng, mut pinned: F) -> Vec<ObjectId>
    where
        F: FnMut(ObjectId) -> bool,
    {
        let mut evicted = Vec::new();
        while self.objects.len() > self.capacity {
            let candidates: Vec<ObjectId> = self
                .objects
                .iter()
                .copied()
                .filter(|o| !pinned(*o))
                .collect();
            let Some(victim) = rng.choose(&candidates).copied() else {
                break; // everything pinned: postpone eviction
            };
            self.objects.remove(&victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Iterates over the stored objects in id order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadConfig;

    #[test]
    fn insert_remove_contains() {
        let mut s = Storage::new(10);
        assert!(s.insert(ObjectId::new(1)));
        assert!(!s.insert(ObjectId::new(1)));
        assert!(s.contains(ObjectId::new(1)));
        assert!(s.remove(ObjectId::new(1)));
        assert!(!s.remove(ObjectId::new(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn eviction_restores_capacity() {
        let mut s = Storage::new(3);
        for i in 0..10 {
            s.insert(ObjectId::new(i));
        }
        assert!(s.over_capacity());
        let evicted = s.evict_over_capacity(&mut DetRng::seed_from(5), |_| false);
        assert_eq!(evicted.len(), 7);
        assert_eq!(s.len(), 3);
        assert!(!s.over_capacity());
    }

    #[test]
    fn pinned_objects_survive_eviction() {
        let mut s = Storage::new(1);
        s.insert(ObjectId::new(1));
        s.insert(ObjectId::new(2));
        s.insert(ObjectId::new(3));
        let pinned = ObjectId::new(2);
        let evicted = s.evict_over_capacity(&mut DetRng::seed_from(6), |o| o == pinned);
        assert!(!evicted.contains(&pinned));
        assert!(s.contains(pinned));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn eviction_stops_when_everything_is_pinned() {
        let mut s = Storage::new(1);
        s.insert(ObjectId::new(1));
        s.insert(ObjectId::new(2));
        let evicted = s.evict_over_capacity(&mut DetRng::seed_from(7), |_| true);
        assert!(evicted.is_empty());
        assert_eq!(s.len(), 2, "pinned objects must not be evicted");
    }

    #[test]
    fn initial_placement_respects_capacity_and_interests() {
        let config = WorkloadConfig::small();
        let mut rng = DetRng::seed_from(8);
        let catalog = Catalog::generate(&config, &mut rng);
        let interests = PeerInterests::generate(&catalog, &config, &mut rng);
        let storage = Storage::initial_placement(8, &catalog, &interests, &mut rng);
        assert!(storage.len() <= 8);
        assert!(!storage.is_empty());
        for obj in storage.iter() {
            assert!(interests.is_interested_in(catalog.object(obj).category));
        }
    }

    #[test]
    fn zero_capacity_initial_placement_is_empty() {
        let config = WorkloadConfig::small();
        let mut rng = DetRng::seed_from(9);
        let catalog = Catalog::generate(&config, &mut rng);
        let interests = PeerInterests::generate(&catalog, &config, &mut rng);
        let storage = Storage::initial_placement(0, &catalog, &interests, &mut rng);
        assert!(storage.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn eviction_never_leaves_over_capacity_when_nothing_is_pinned(
                capacity in 0usize..20,
                inserts in proptest::collection::vec(0u32..100, 0..50),
                seed in 0u64..1_000,
            ) {
                let mut s = Storage::new(capacity);
                for i in inserts {
                    s.insert(ObjectId::new(i));
                }
                s.evict_over_capacity(&mut DetRng::seed_from(seed), |_| false);
                prop_assert!(s.len() <= capacity);
            }
        }
    }
}
