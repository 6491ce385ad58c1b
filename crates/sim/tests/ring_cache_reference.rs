//! Reference equivalence for the ring-candidate cache.
//!
//! `ReferenceCache` is the cache as it was before its reverse indexes became
//! lazily unlinked: entries eagerly unlink from `BTreeSet` indexes on every
//! removal.  It is copied verbatim, minus `apply_graph_deltas` (the
//! simulator never called it) and the crate-private `set_stats`.  Random
//! sequences of stores, lookups and every invalidation path drive it
//! and the real [`RingCandidateCache`] side by side; after every operation
//! their lookups, `len`, `iter_entries` and stats must agree.

use std::collections::{BTreeSet, HashMap};

use exchange::{ExchangeRing, RingEdge, SearchTrace};
use proptest::prelude::*;
use sim::{CachedEntry, RingCacheStats, RingCandidateCache};
use workload::{ObjectId, PeerId};

#[derive(Debug)]
struct Entry {
    /// The root's wanted objects at the time of the search.
    wants: Vec<ObjectId>,
    /// The search result, in preference order.
    rings: Vec<ExchangeRing<PeerId, ObjectId>>,
    /// The search's full dependency set (sorted).
    deps: Vec<PeerId>,
    /// The subset of `deps` whose incoming queues the search read (sorted).
    edge_deps: Vec<PeerId>,
}

/// The cache as it was with eagerly unlinked `BTreeSet` reverse indexes.
#[derive(Debug, Default)]
struct ReferenceCache {
    entries: HashMap<PeerId, Entry>,
    /// Reverse index over [`Entry::edge_deps`]: peer -> roots whose cached
    /// search read the peer's incoming queue.  An edge delta kills these
    /// outright, no per-entry filtering.
    edge_dependents: HashMap<PeerId, BTreeSet<PeerId>>,
    /// Reverse index over [`Entry::wants`]: object -> roots whose cached
    /// search probed for it.  Kept tiny (≤ max-pending objects per entry),
    /// it turns the probe-side delta checks into small-set intersections.
    want_index: HashMap<ObjectId, BTreeSet<PeerId>>,
    stats: RingCacheStats,
}

impl ReferenceCache {
    /// Creates an empty cache.
    #[must_use]
    fn new() -> Self {
        ReferenceCache::default()
    }

    /// Returns the cached candidate rings for `root`, if a live entry exists
    /// and was computed for exactly this `wants` list.
    fn lookup(
        &mut self,
        root: PeerId,
        wants: &[ObjectId],
    ) -> Option<&[ExchangeRing<PeerId, ObjectId>]> {
        match self.entries.get(&root) {
            Some(entry) if entry.wants == wants => {
                self.stats.hits += 1;
                Some(entry.rings.as_slice())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a fresh search result for `root`, replacing any prior entry.
    ///
    /// Only the (much smaller) edge-dependency set and the wants are
    /// indexed; per-object checks resolve the remaining deps membership
    /// against the entry's own sorted `deps` list, so storing an entry costs
    /// `O(edge_deps)` instead of `O(deps)`.
    fn store(&mut self, root: PeerId, wants: Vec<ObjectId>, trace: SearchTrace<PeerId, ObjectId>) {
        self.remove_entry(root);
        for dep in &trace.edge_deps {
            self.edge_dependents.entry(*dep).or_default().insert(root);
        }
        for object in &wants {
            self.want_index.entry(*object).or_default().insert(root);
        }
        self.entries.insert(
            root,
            Entry {
                wants,
                rings: trace.rings,
                deps: trace.deps,
                edge_deps: trace.edge_deps,
            },
        );
    }

    /// Drops every entry whose search depended on `peer`.
    ///
    /// Call this for deltas that affect every object of `peer` at once (a
    /// `sharing` toggle).  Per-object provision changes — the peer gained or
    /// evicted one stored object — should go through the lazier
    /// [`invalidate_holding`](Self::invalidate_holding); graph-edge changes
    /// through `apply_graph_deltas`.
    fn invalidate_peer(&mut self, peer: PeerId) {
        // No full-deps reverse index is kept; whole-peer kills are rare
        // (sharing never toggles mid-run), so a scan over the live entries is
        // the right trade.
        let mut affected: Vec<PeerId> = self
            .entries
            // exchange-lint: allow(D001, reason = "sorted before use below; removals then run in root order")
            .iter()
            .filter(|(_, entry)| entry.deps.binary_search(&peer).is_ok())
            .map(|(root, _)| *root)
            .collect();
        affected.sort_unstable();
        for root in affected {
            if self.remove_entry(root) {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Drops every entry whose search read `provider`'s incoming queue —
    /// including the entry rooted at `provider` itself.  Call when an edge
    /// changed inside the queue slice searches examine.
    fn invalidate_edge_readers(&mut self, provider: PeerId) {
        if let Some(roots) = self.edge_dependents.remove(&provider) {
            for root in roots {
                if self.remove_entry(root) {
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// Drops only the entry rooted at `provider`.  Sufficient for an edge
    /// that landed beyond the fanout prefix of `provider`'s queue: the root's
    /// own scan is the only unbounded queue read.
    fn invalidate_root(&mut self, provider: PeerId) {
        if self.remove_entry(provider) {
            self.stats.invalidations += 1;
        }
    }

    /// Reports that `provider` gained or lost the ability to serve
    /// `object` — a download completed, the object was evicted, or an edge
    /// backing a middleman claim on it changed — and drops the entries whose
    /// search probed `provider` for `object`.  Claims scan the whole queue,
    /// so this is independent of any fanout prefix.
    ///
    /// Candidates come from the small per-object want index (the `provides`
    /// oracle is only ever probed for wanted objects); membership of
    /// `provider` in each candidate's dependency set resolves against the
    /// entry's own sorted `deps` list.
    fn invalidate_holding(&mut self, provider: PeerId, object: ObjectId) {
        let Some(wanting) = self.want_index.get(&object) else {
            return;
        };
        let affected: Vec<PeerId> = wanting
            .iter()
            .copied()
            .filter(|root| {
                self.entries
                    .get(root)
                    .is_some_and(|entry| entry.deps.binary_search(&provider).is_ok())
            })
            .collect();
        for root in affected {
            if self.remove_entry(root) {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Removes `root`'s entry and unregisters its dependency links from the
    /// reverse indexes.  Returns whether an entry existed.
    fn remove_entry(&mut self, root: PeerId) -> bool {
        let Some(entry) = self.entries.remove(&root) else {
            return false;
        };
        for dep in &entry.edge_deps {
            if let Some(roots) = self.edge_dependents.get_mut(dep) {
                roots.remove(&root);
                if roots.is_empty() {
                    self.edge_dependents.remove(dep);
                }
            }
        }
        for object in &entry.wants {
            if let Some(roots) = self.want_index.get_mut(object) {
                roots.remove(&root);
                if roots.is_empty() {
                    self.want_index.remove(object);
                }
            }
        }
        true
    }

    /// Iterates over the live entries in ascending root order, so callers
    /// observe a deterministic sequence regardless of hash seeding.
    ///
    /// Used by the invariant audit to re-verify every cached search against
    /// a fresh one; the views borrow the cache.
    fn iter_entries(&self) -> impl Iterator<Item = CachedEntry<'_>> {
        // exchange-lint: allow(D001, reason = "keys are sorted before any entry is yielded")
        let mut roots: Vec<PeerId> = self.entries.keys().copied().collect();
        roots.sort_unstable();
        roots.into_iter().map(move |root| {
            let entry = &self.entries[&root];
            CachedEntry {
                root,
                wants: &entry.wants,
                rings: &entry.rings,
                deps: &entry.deps,
                edge_deps: &entry.edge_deps,
            }
        })
    }

    /// Number of live entries.
    #[must_use]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The run's hit/miss/invalidation counters.
    #[must_use]
    fn stats(&self) -> RingCacheStats {
        self.stats
    }

    /// Drops all entries (counters are kept).
    fn clear(&mut self) {
        self.entries.clear();
        self.edge_dependents.clear();
        self.want_index.clear();
    }
}

const ROOTS: u32 = 12;
const OBJECTS: u32 = 6;

/// SplitMix64 draws for the parameters of one operation.  Roots come from
/// `ROOTS` peers; the other peers a trace depends on, and the objects, from
/// a universe that is either as small (lists are revisited all the time) or
/// so large that most links are stranded in lists no later operation
/// touches, which only a sweep reclaims.
struct Rng {
    state: u64,
    universe: u32,
}

impl Rng {
    fn new(seed: u64, universe: u32) -> Self {
        Rng {
            state: seed,
            universe,
        }
    }

    fn below(&mut self, n: u32) -> u32 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % u64::from(n)) as u32
    }

    fn root(&mut self) -> PeerId {
        PeerId::new(self.below(ROOTS))
    }

    /// A root half of the time, a peer of the universe otherwise.
    fn peer(&mut self) -> PeerId {
        if self.below(2) == 0 {
            self.root()
        } else {
            PeerId::new(self.below(self.universe))
        }
    }

    fn object(&mut self) -> ObjectId {
        let universe = if self.below(2) == 0 {
            OBJECTS
        } else {
            self.universe
        };
        ObjectId::new(self.below(universe))
    }

    /// A want list of up to three objects, sometimes with a repeat.
    fn wants(&mut self) -> Vec<ObjectId> {
        (0..1 + self.below(3)).map(|_| self.object()).collect()
    }

    /// A trace rooted at `root`: random sorted `deps` containing the root,
    /// `edge_deps` a subset of them containing the root, and a 2-way ring
    /// with a random peer so that entries differ in content.
    fn trace(&mut self, root: PeerId) -> SearchTrace<PeerId, ObjectId> {
        let mut deps: BTreeSet<PeerId> = (0..self.below(7)).map(|_| self.peer()).collect();
        deps.insert(root);
        let mut edge_deps: Vec<PeerId> = deps
            .iter()
            .copied()
            .filter(|_| self.below(2) == 0)
            .collect();
        if !edge_deps.contains(&root) {
            edge_deps.push(root);
            edge_deps.sort_unstable();
        }
        let partner = self.peer();
        let rings = if partner == root {
            Vec::new()
        } else {
            let object = self.object();
            let edges = vec![
                RingEdge {
                    uploader: root,
                    downloader: partner,
                    object,
                },
                RingEdge {
                    uploader: partner,
                    downloader: root,
                    object,
                },
            ];
            vec![ExchangeRing::new(edges).expect("two distinct peers form a ring")]
        };
        SearchTrace {
            rings,
            deps: deps.into_iter().collect(),
            edge_deps,
        }
    }
}

type EntryView<'a> = (
    PeerId,
    &'a [ObjectId],
    &'a [ExchangeRing<PeerId, ObjectId>],
    &'a [PeerId],
    &'a [PeerId],
);

fn view(entry: CachedEntry<'_>) -> EntryView<'_> {
    (
        entry.root,
        entry.wants,
        entry.rings,
        entry.deps,
        entry.edge_deps,
    )
}

proptest! {
    #[test]
    fn lazily_unlinked_cache_equals_the_eager_reference(
        ops in proptest::collection::vec((0u32..20, 0u64..u64::MAX), 1..300),
    ) {
        let mut cache = RingCandidateCache::new();
        let mut reference = ReferenceCache::new();
        for (code, seed) in ops {
            let mut rng = Rng::new(seed, ROOTS);
            match code {
                0..=6 => {
                    let root = rng.root();
                    let wants = rng.wants();
                    let trace = rng.trace(root);
                    cache.store(root, wants.clone(), trace.clone());
                    reference.store(root, wants, trace);
                }
                7..=9 => {
                    let root = rng.root();
                    // Look up with the wants of the root's entry or others.
                    let stored = cache.iter_entries().find(|e| e.root == root).map(|e| e.wants.to_vec());
                    let wants = match stored {
                        Some(wants) if rng.below(4) != 0 => wants,
                        _ => rng.wants(),
                    };
                    let got = cache.lookup(root, &wants).map(<[_]>::to_vec);
                    let expected = reference.lookup(root, &wants).map(<[_]>::to_vec);
                    prop_assert_eq!(got, expected);
                }
                10..=12 => {
                    let provider = rng.peer();
                    cache.invalidate_edge_readers(provider);
                    reference.invalidate_edge_readers(provider);
                }
                13 | 14 => {
                    let provider = rng.peer();
                    cache.invalidate_root(provider);
                    reference.invalidate_root(provider);
                }
                15..=17 => {
                    let (provider, object) = (rng.peer(), rng.object());
                    cache.invalidate_holding(provider, object);
                    reference.invalidate_holding(provider, object);
                }
                18 => {
                    let peer = rng.peer();
                    cache.invalidate_peer(peer);
                    reference.invalidate_peer(peer);
                }
                _ => {
                    cache.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(cache.len(), reference.len());
            prop_assert_eq!(cache.is_empty(), reference.is_empty());
            prop_assert_eq!(cache.stats(), reference.stats());
            let entries: Vec<EntryView<'_>> = cache.iter_entries().map(view).collect();
            let expected: Vec<EntryView<'_>> = reference.iter_entries().map(view).collect();
            prop_assert_eq!(entries, expected);
        }
    }
}

#[test]
fn long_runs_over_a_large_universe_match_the_reference() {
    // Most links land in lists no later operation touches, so the lazy
    // indexes fill up with stranded links and must be swept many times over.
    let mut cache = RingCandidateCache::new();
    let mut reference = ReferenceCache::new();
    let mut rng = Rng::new(11, 1_000_000);
    for _ in 0..50_000 {
        match rng.below(10) {
            0..=4 => {
                let root = rng.root();
                let wants = rng.wants();
                let trace = rng.trace(root);
                cache.store(root, wants.clone(), trace.clone());
                reference.store(root, wants, trace);
            }
            5 => {
                let root = rng.root();
                let wants =
                    (reference.entries.get(&root)).map_or_else(Vec::new, |e| e.wants.clone());
                let got = cache.lookup(root, &wants).map(<[_]>::to_vec);
                assert_eq!(got, reference.lookup(root, &wants).map(<[_]>::to_vec));
            }
            6 | 7 => {
                let provider = rng.peer();
                cache.invalidate_edge_readers(provider);
                reference.invalidate_edge_readers(provider);
            }
            8 => {
                let (provider, object) = (rng.peer(), rng.object());
                cache.invalidate_holding(provider, object);
                reference.invalidate_holding(provider, object);
            }
            _ => {
                let provider = rng.root();
                cache.invalidate_root(provider);
                reference.invalidate_root(provider);
            }
        }
        assert_eq!(cache.stats(), reference.stats());
        assert_eq!(cache.len(), reference.len());
    }
    let entries: Vec<EntryView<'_>> = cache.iter_entries().map(view).collect();
    let expected: Vec<EntryView<'_>> = reference.iter_entries().map(view).collect();
    assert_eq!(entries, expected);
    let stats = cache.stats();
    assert!(
        stats.invalidations > 5_000 && stats.hits > 1_000,
        "{stats:?}"
    );
}
