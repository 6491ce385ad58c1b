//! Persistent per-provider cache of discovered exchange-ring candidates.
//!
//! Every `TrySchedule` event used to re-run a full breadth-first ring search
//! over the request graph, even though consecutive scheduling rounds at the
//! same provider usually see an unchanged neighbourhood.  This cache keeps
//! the most recent [`SearchTrace`] per provider and reuses its rings until a
//! relevant *delta* lands:
//!
//! * **graph deltas** (request added/removed, peer departed) arrive through
//!   [`RequestGraph`]'s dirty log via the fanout-aware
//!   [`drain_graph`](RingCandidateCache::drain_graph), which composes
//!   [`invalidate_edge_readers`](RingCandidateCache::invalidate_edge_readers),
//!   [`invalidate_root`](RingCandidateCache::invalidate_root) and
//!   [`invalidate_holding`](RingCandidateCache::invalidate_holding) per edge;
//! * **oracle deltas** (a peer gained or evicted an object) are reported by
//!   the simulation through
//!   [`invalidate_holding`](RingCandidateCache::invalidate_holding); a churn
//!   departure, which takes every object of a peer offline at once, uses the
//!   coarse [`invalidate_peer`](RingCandidateCache::invalidate_peer);
//! * **want deltas** at the root are caught by keying each entry on the exact
//!   `wants` list it was computed for.
//!
//! # Entry-level invalidation
//!
//! Deltas are matched against what each cached search actually *read* of a
//! peer *q*:
//!
//! - an edge delta `(provider q, object o)` drops entries with *q* in
//!   [`SearchTrace::edge_deps`] (the search read *q*'s incoming queue) or
//!   with *q* in [`SearchTrace::deps`] **and** *o* in the entry's wants (the
//!   `provides` probe at *q* can read *q*'s incoming edges for a wanted
//!   object — the middleman claim);
//! - a holdings delta `(q, o)` drops entries with *q* in `deps` **and** *o*
//!   in the entry's wants — a peer completing or evicting an object nobody's
//!   cached search wants kills nothing;
//! - requester-side edge endpoints drop nothing at all (a search never reads
//!   outgoing queues).
//!
//! A cached hit is guaranteed to equal what a fresh
//! [`exchange::RingSearch`] would return — the cache is a pure memoisation,
//! never an approximation.

use std::collections::HashMap;
use std::mem;

use exchange::{ExchangeRing, FastState, RequestGraph, SearchTrace};
use workload::{ObjectId, PeerId};

/// Hit/miss/invalidation counters of one cache over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingCacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that required a fresh search (no entry, or stale wants).
    pub misses: u64,
    /// Entries dropped because a peer in their dependency set changed.
    pub invalidations: u64,
}

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

/// Drops one occurrence of `root` from a reverse-index list, if it holds one.
fn unlink(list: &mut Vec<PeerId>, root: PeerId) {
    if let Some(at) = list.iter().position(|&linked| linked == root) {
        list.swap_remove(at);
    }
}

/// A borrowed view of one live cache entry (see
/// [`RingCandidateCache::iter_entries`]).
#[derive(Debug, Clone, Copy)]
pub struct CachedEntry<'a> {
    /// The provider the entry's search was rooted at.
    pub root: PeerId,
    /// The root's wanted objects at the time of the search.
    pub wants: &'a [ObjectId],
    /// The cached candidate rings, in preference order.
    pub rings: &'a [ExchangeRing<PeerId, ObjectId>],
    /// The search's full dependency set.
    pub deps: &'a [PeerId],
    /// The peers whose incoming queues the search read.
    pub edge_deps: &'a [PeerId],
}

/// Memoises [`exchange::RingSearch::find_traced_in`] results per provider.
///
/// An entry is dropped as soon as a graph or holdings delta could change
/// what its search read, so a cached hit always equals a fresh search; the
/// `simulation::ring_cache` module docs spell out the contract.
#[derive(Debug, Default)]
pub struct RingCandidateCache {
    entries: HashMap<PeerId, Entry, FastState>,
    /// Reverse index over [`Entry::edge_deps`], indexed by peer id: the
    /// roots whose cached search read the peer's incoming queue.  An edge
    /// delta kills these outright, no per-entry filtering.
    edge_dependents: Vec<Vec<PeerId>>,
    /// Reverse index over [`Entry::wants`]: object -> the roots whose cached
    /// search probed for it, once per occurrence in their wants.  Kept tiny
    /// (≤ max-pending objects per entry), it turns the probe-side delta
    /// checks into small-list scans.
    want_index: HashMap<ObjectId, Vec<PeerId>, FastState>,
    stats: RingCacheStats,
}

impl RingCandidateCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        RingCandidateCache::default()
    }

    /// Returns the cached candidate rings for `root`, if a live entry exists
    /// and was computed for exactly this `wants` list.
    pub fn lookup(
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
    /// against the entry's own sorted `deps` list.  Storing pushes the root
    /// onto one list per indexed peer and object, so it costs
    /// `O(edge_deps + wants)` plus unlinking a replaced entry.
    pub fn store(
        &mut self,
        root: PeerId,
        wants: Vec<ObjectId>,
        trace: SearchTrace<PeerId, ObjectId>,
    ) {
        self.remove_entry(root);
        if let Some(top) = trace.edge_deps.iter().max() {
            if top.as_usize() >= self.edge_dependents.len() {
                self.edge_dependents
                    .resize_with(top.as_usize() + 1, Vec::new);
            }
        }
        for dep in &trace.edge_deps {
            self.edge_dependents[dep.as_usize()].push(root);
        }
        for object in &wants {
            self.want_index.entry(*object).or_default().push(root);
        }
        let entry = Entry {
            wants,
            rings: trace.rings,
            deps: trace.deps,
            edge_deps: trace.edge_deps,
        };
        self.entries.insert(root, entry);
    }

    /// Drops every entry whose search depended on `peer`.
    ///
    /// Call this for deltas that affect every object of `peer` at once: a
    /// churn departure takes all of a peer's holdings offline together.
    /// Per-object provision changes — the peer gained or evicted one stored
    /// object — should go through the lazier
    /// [`invalidate_holding`](Self::invalidate_holding); graph-edge changes
    /// through [`drain_graph`](Self::drain_graph).
    pub fn invalidate_peer(&mut self, peer: PeerId) {
        // No full-deps reverse index is kept: whole-peer kills come only
        // from departures, far rarer than the stores such an index would
        // tax, so a scan over the live entries is the right trade.
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

    /// Drains the graph's dirty log and invalidates every entry a changed
    /// edge could affect, given the `fanout` the cached searches ran at.
    /// Cheap when nothing changed.
    ///
    /// Per provider, the first — therefore smallest — changed edge decides:
    /// every queue entry sorting before it is untouched by the whole batch,
    /// so if at least `fanout` entries precede it, the prefix interior
    /// expansions read survives and only the provider's own entry (the root
    /// scan is unbounded) goes; otherwise every entry that read the queue
    /// ([`SearchTrace::edge_deps`]) goes.  With `claims_read_edges` — some
    /// peer's claims oracle reads its incoming edges (a middleman) — each
    /// changed edge `(provider, object)` also kills the entries that probed
    /// the provider for that very object; the probe scans the whole queue,
    /// so prefix position is irrelevant to it.  `(usize::MAX, true)` is the
    /// fanout-blind drain that treats every edge as affecting everything.
    pub fn drain_graph(
        &mut self,
        graph: &mut RequestGraph<PeerId, ObjectId>,
        fanout: usize,
        claims_read_edges: bool,
    ) {
        if !graph.has_dirty() {
            return;
        }
        let mut previous: Option<PeerId> = None;
        for (provider, requester, object) in graph.take_dirty_edges() {
            if previous != Some(provider) {
                previous = Some(provider);
                let queue = graph.incoming(provider);
                if queue.partition_point(|&entry| entry < (requester, object)) < fanout {
                    self.invalidate_edge_readers(provider);
                } else {
                    self.invalidate_root(provider);
                }
            }
            if claims_read_edges {
                self.invalidate_holding(provider, object);
            }
        }
    }

    /// Drops every entry whose search read `provider`'s incoming queue —
    /// including the entry rooted at `provider` itself.  Call when an edge
    /// changed inside the queue slice searches examine.
    ///
    /// Takes the provider's whole list: its roots are exactly the entries
    /// to drop.
    pub fn invalidate_edge_readers(&mut self, provider: PeerId) {
        let Some(list) = self.edge_dependents.get_mut(provider.as_usize()) else {
            return;
        };
        for root in mem::take(list) {
            if self.remove_entry(root) {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Drops only the entry rooted at `provider`.  Sufficient for an edge
    /// that landed beyond the fanout prefix of `provider`'s queue: the root's
    /// own scan is the only unbounded queue read.
    pub fn invalidate_root(&mut self, provider: PeerId) {
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
    /// entry's own sorted `deps` list, so a delta costs the length of the
    /// object's list plus the unlinking of each entry it drops.
    pub fn invalidate_holding(&mut self, provider: PeerId, object: ObjectId) {
        let Some(list) = self.want_index.get(&object) else {
            return;
        };
        let affected: Vec<PeerId> = (list.iter().copied())
            .filter(|root| self.entries[root].deps.binary_search(&provider).is_ok())
            .collect();
        for root in affected {
            // A root that wants `object` twice is listed, not counted, twice.
            if self.remove_entry(root) {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Removes `root`'s entry and unlinks it from both reverse indexes,
    /// freeing the lists it leaves empty.  A list the caller already took
    /// no longer holds the root, which is fine.  Returns whether an entry
    /// existed.
    fn remove_entry(&mut self, root: PeerId) -> bool {
        let Some(entry) = self.entries.remove(&root) else {
            return false;
        };
        for dep in &entry.edge_deps {
            let list = &mut self.edge_dependents[dep.as_usize()];
            unlink(list, root);
            if list.is_empty() {
                *list = Vec::new();
            }
        }
        for object in &entry.wants {
            if let Some(list) = self.want_index.get_mut(object) {
                unlink(list, root);
                if list.is_empty() {
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
    pub fn iter_entries(&self) -> impl Iterator<Item = CachedEntry<'_>> {
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
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The run's hit/miss/invalidation counters.
    #[must_use]
    pub fn stats(&self) -> RingCacheStats {
        self.stats
    }

    /// Overwrites the hit/miss/invalidation counters.  Checkpoint restore
    /// replays [`store`](Self::store) calls (which never touch the counters)
    /// and then reinstates the counters captured at checkpoint time, so a
    /// resumed run's stats stay bit-identical to an uninterrupted one.
    pub(crate) fn set_stats(&mut self, stats: RingCacheStats) {
        self.stats = stats;
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.edge_dependents.clear();
        self.want_index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exchange::{RingPreference, RingSearch, SearchPolicy, SearchScratch};

    fn peer(id: u32) -> PeerId {
        PeerId::new(id)
    }

    fn object(id: u32) -> ObjectId {
        ObjectId::new(id)
    }

    fn search() -> RingSearch {
        RingSearch::new(SearchPolicy::new(5, RingPreference::ShorterFirst))
    }

    /// Runs `search` in a fresh scratch.
    fn fresh_search(
        search: RingSearch,
        graph: &RequestGraph<PeerId, ObjectId>,
        root: PeerId,
        wants: &[ObjectId],
        provides: impl Fn(&PeerId, &ObjectId) -> bool,
    ) -> SearchTrace<PeerId, ObjectId> {
        search.find_traced_in(&mut SearchScratch::new(), graph, root, wants, provides)
    }

    /// A tiny fixture: 1 asked 0 for o10, 2 asked 1 for o20; peer 2 owns o30.
    fn fixture() -> RequestGraph<PeerId, ObjectId> {
        let mut graph = RequestGraph::new();
        graph.add_request(peer(1), peer(0), object(10));
        graph.add_request(peer(2), peer(1), object(20));
        graph.take_dirty_edges();
        graph
    }

    fn owns_o30(p: &PeerId, o: &ObjectId) -> bool {
        *p == peer(2) && *o == object(30)
    }

    #[test]
    fn lookup_misses_then_hits_after_store() {
        let graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        assert!(cache.lookup(peer(0), &wants).is_none());
        let trace = fresh_search(search(), &graph, peer(0), &wants, owns_o30);
        assert_eq!(trace.rings.len(), 1);
        cache.store(peer(0), wants.clone(), trace.clone());
        assert_eq!(cache.lookup(peer(0), &wants), Some(trace.rings.as_slice()));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn changed_wants_miss_without_invalidation() {
        let graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        let trace = fresh_search(search(), &graph, peer(0), &wants, owns_o30);
        cache.store(peer(0), wants, trace);
        assert!(cache.lookup(peer(0), &[object(30), object(31)]).is_none());
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn graph_delta_on_a_dep_invalidates() {
        let mut graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        let trace = fresh_search(search(), &graph, peer(0), &wants, owns_o30);
        cache.store(peer(0), wants.clone(), trace);
        // A new request at frontier peer 2 dirties it -> entry dropped.
        graph.add_request(peer(3), peer(2), object(40));
        cache.drain_graph(&mut graph, usize::MAX, true);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.lookup(peer(0), &wants).is_none());
    }

    #[test]
    fn graph_delta_outside_the_deps_keeps_the_entry() {
        let mut graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        let trace = fresh_search(search(), &graph, peer(0), &wants, owns_o30);
        let rings = trace.rings.clone();
        cache.store(peer(0), wants.clone(), trace);
        // An edge between peers the search never visited is irrelevant.
        graph.add_request(peer(8), peer(9), object(90));
        cache.drain_graph(&mut graph, usize::MAX, true);
        assert_eq!(cache.lookup(peer(0), &wants), Some(rings.as_slice()));
    }

    #[test]
    fn an_edge_beyond_the_fanout_prefix_drops_only_the_root_entry() {
        let wants = vec![object(30)];
        for fanout in [1, 2] {
            let mut graph = fixture();
            let mut cache = RingCandidateCache::new();
            let search = search().with_fanout(fanout);
            for root in [peer(0), peer(1)] {
                let trace = fresh_search(search, &graph, root, &wants, owns_o30);
                cache.store(root, wants.clone(), trace);
            }
            // Peer 1's queue gains an edge after its one untouched entry
            // (2, o20): the root's own scan reads it whatever the fanout,
            // peer 0's expansion of peer 1 only at a fanout above 1.
            graph.add_request(peer(9), peer(1), object(90));
            cache.drain_graph(&mut graph, fanout, false);
            assert!(cache.lookup(peer(1), &wants).is_none());
            assert_eq!(cache.lookup(peer(0), &wants).is_some(), fanout == 1);
        }
    }

    #[test]
    fn invalidate_peer_drops_every_dependent_root() {
        let mut graph = fixture();
        // Peer 1 also has its own entry: 2 asked 1, and 2 owns what 1 wants.
        let mut cache = RingCandidateCache::new();
        let wants0 = vec![object(30)];
        let wants1 = vec![object(30)];
        cache.store(
            peer(0),
            wants0.clone(),
            fresh_search(search(), &graph, peer(0), &wants0, owns_o30),
        );
        cache.store(
            peer(1),
            wants1.clone(),
            fresh_search(search(), &graph, peer(1), &wants1, owns_o30),
        );
        assert_eq!(cache.len(), 2);
        // Peer 2 is in both dependency sets (frontier of both searches).
        cache.invalidate_peer(peer(2));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 2);
        // The dropped entries are unlinked: a later delta counts nothing.
        graph.add_request(peer(4), peer(1), object(50));
        cache.drain_graph(&mut graph, usize::MAX, true);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn holding_delta_for_an_unwanted_object_is_ignored() {
        let graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        cache.store(
            peer(0),
            wants.clone(),
            fresh_search(search(), &graph, peer(0), &wants, owns_o30),
        );
        // Peer 2 completes object 77, which no cached root wants.
        cache.invalidate_holding(peer(2), object(77));
        assert_eq!(cache.len(), 1, "unwanted holding kills nothing");
        assert_eq!(cache.stats().invalidations, 0);
        // A wanted holding kills the entry.
        cache.invalidate_holding(peer(2), object(30));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn requester_side_edge_deltas_are_ignored() {
        let mut graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        let trace = fresh_search(search(), &graph, peer(0), &wants, owns_o30);
        let rings = trace.rings.clone();
        cache.store(peer(0), wants.clone(), trace);
        // Peer 2 (a dep) issues a request towards an unrelated provider for
        // an unwanted object: only 2's outgoing queue and 9's incoming queue
        // change, neither of which the cached search read.
        graph.add_request(peer(2), peer(9), object(90));
        cache.drain_graph(&mut graph, usize::MAX, true);
        assert_eq!(cache.lookup(peer(0), &wants), Some(rings.as_slice()));
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn edge_delta_for_a_wanted_object_at_a_probed_peer_invalidates() {
        // Middleman scenario: a probed peer's claim on a wanted object can be
        // backed by its incoming edges, so such an edge delta must kill the
        // entry even though the peer's queue was never read for expansion.
        let mut graph = RequestGraph::new();
        graph.add_request(peer(1), peer(0), object(10));
        graph.add_request(peer(2), peer(1), object(20));
        graph.take_dirty_edges();
        let shallow = RingSearch::new(SearchPolicy::new(3, RingPreference::ShorterFirst));
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        let trace = fresh_search(shallow, &graph, peer(0), &wants, owns_o30);
        // Peer 2 sits at the depth bound: probed, but its queue never read.
        assert!(trace.deps.contains(&peer(2)));
        assert!(!trace.edge_deps.contains(&peer(2)));
        cache.store(peer(0), wants.clone(), trace);
        // An edge at peer 2 for the wanted object 30 must invalidate...
        graph.add_request(peer(5), peer(2), object(30));
        cache.drain_graph(&mut graph, usize::MAX, true);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn iter_entries_exposes_the_stored_traces() {
        let graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        let trace = fresh_search(search(), &graph, peer(0), &wants, owns_o30);
        cache.store(peer(0), wants.clone(), trace.clone());
        let entries: Vec<_> = cache.iter_entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].root, peer(0));
        assert_eq!(entries[0].wants, wants.as_slice());
        assert_eq!(entries[0].rings, trace.rings.as_slice());
        assert_eq!(entries[0].deps, trace.deps.as_slice());
        assert_eq!(entries[0].edge_deps, trace.edge_deps.as_slice());
    }

    #[test]
    fn store_replaces_and_relinks_dependencies() {
        let graph = fixture();
        let mut cache = RingCandidateCache::new();
        let wants = vec![object(30)];
        cache.store(
            peer(0),
            wants.clone(),
            fresh_search(search(), &graph, peer(0), &wants, owns_o30),
        );
        // Re-store with a no-ring oracle: the entry must be replaced, and the
        // old dependency links must be gone (no double counting later).
        cache.store(
            peer(0),
            wants.clone(),
            fresh_search(search(), &graph, peer(0), &wants, |_, _| false),
        );
        assert_eq!(cache.lookup(peer(0), &wants), Some(&[][..]));
        cache.invalidate_peer(peer(2));
        assert_eq!(cache.stats().invalidations, 1);
    }

    /// A synthetic trace: no rings, reading the queues of `edge_deps` and
    /// probing `edge_deps` plus `probed`.
    fn synthetic(edge_deps: &[u32], probed: &[u32]) -> SearchTrace<PeerId, ObjectId> {
        let mut edge: Vec<PeerId> = edge_deps.iter().copied().map(peer).collect();
        edge.sort_unstable();
        edge.dedup();
        let mut deps: Vec<PeerId> = edge
            .iter()
            .copied()
            .chain(probed.iter().copied().map(peer))
            .collect();
        deps.sort_unstable();
        deps.dedup();
        SearchTrace {
            rings: Vec::new(),
            deps,
            edge_deps: edge,
        }
    }

    /// Asserts that the reverse indexes hold exactly the live entries:
    /// `edge_dependents[p]` the roots whose `edge_deps` contain `p`, and
    /// `want_index[o]` each root once per occurrence of `o` in its wants,
    /// with no empty list left holding memory or a key.
    fn assert_indexes_exact(cache: &RingCandidateCache) {
        let mut edge: Vec<Vec<PeerId>> = vec![Vec::new(); cache.edge_dependents.len()];
        let mut want: HashMap<ObjectId, Vec<PeerId>> = HashMap::new();
        for entry in cache.iter_entries() {
            for dep in entry.edge_deps {
                edge[dep.as_usize()].push(entry.root);
            }
            for object in entry.wants {
                want.entry(*object).or_default().push(entry.root);
            }
        }
        for (p, (list, expected)) in cache.edge_dependents.iter().zip(&edge).enumerate() {
            let mut list = list.clone();
            list.sort_unstable();
            assert_eq!(&list, expected, "edge_dependents[{p}]");
            if list.is_empty() {
                assert_eq!(cache.edge_dependents[p].capacity(), 0, "list {p} kept");
            }
        }
        assert_eq!(cache.want_index.len(), want.len(), "want_index keys");
        for (object, expected) in &want {
            let mut list = cache.want_index[object].clone();
            list.sort_unstable();
            assert_eq!(&list, expected, "want_index[{object:?}]");
        }
    }

    /// SplitMix64 draws for the churn tests.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(n)) as u32
        }
    }

    #[test]
    fn reverse_indexes_hold_exactly_the_live_roots_under_churn() {
        const PEERS: u32 = 4_000;
        let mut cache = RingCandidateCache::new();
        let mut draws = Draws(7);
        let mut repeated_wants = 0;
        for step in 0..20_000 {
            match draws.below(20) {
                0..=15 => {
                    let root = draws.below(PEERS);
                    let reads: Vec<u32> = (0..10 + draws.below(40))
                        .map(|_| draws.below(PEERS))
                        .collect();
                    let probed: Vec<u32> =
                        (0..draws.below(40)).map(|_| draws.below(PEERS)).collect();
                    let mut wants: Vec<ObjectId> = (0..1 + draws.below(4))
                        .map(|_| object(draws.below(300)))
                        .collect();
                    if draws.below(4) == 0 {
                        wants.push(wants[0]);
                        repeated_wants += 1;
                    }
                    cache.store(peer(root), wants, synthetic(&reads, &probed));
                }
                16 | 17 => cache.invalidate_edge_readers(peer(draws.below(PEERS))),
                18 => {
                    cache.invalidate_holding(peer(draws.below(PEERS)), object(draws.below(300)));
                }
                _ => cache.invalidate_root(peer(draws.below(PEERS))),
            }
            if step % 500 == 0 {
                assert_indexes_exact(&cache);
            }
        }
        assert_indexes_exact(&cache);
        let stats = cache.stats();
        let live = cache.len();
        assert!(
            repeated_wants > 1_000 && live > 500,
            "{repeated_wants} repeats, {live} live"
        );
        assert!(stats.invalidations > 5_000, "{stats:?}");
        cache.clear();
        assert_indexes_exact(&cache);
    }
}
