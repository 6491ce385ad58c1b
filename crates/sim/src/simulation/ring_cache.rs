//! Persistent per-provider cache of discovered exchange-ring candidates.
//!
//! Every `TrySchedule` event used to re-run a full breadth-first ring search
//! over the request graph, even though consecutive scheduling rounds at the
//! same provider usually see an unchanged neighbourhood.  This cache keeps
//! the most recent [`SearchTrace`] per provider and reuses its rings until a
//! relevant *delta* lands:
//!
//! * **graph deltas** (request added/removed, peer departed) arrive through
//!   [`RequestGraph`]'s dirty log via
//!   [`apply_graph_deltas`](RingCandidateCache::apply_graph_deltas), or via
//!   the simulation's fanout-aware drain, which composes
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
//!
//! # Lazily unlinked reverse indexes
//!
//! Two reverse indexes find the entries a delta kills: per peer, the roots
//! whose search read its queue (`edge_deps`), and per object, the roots
//! that want it.  Each entry carries a `u32` stamp, and each index link
//! names a root together with the stamp of the entry it was made for.
//! Storing pushes links; removing an entry touches no list, its links just
//! stop matching the root's current stamp.  Stale links are dropped when a
//! scan passes them: an edge delta takes the peer's whole list, and a
//! holdings delta keeps only the live links it scans.  Lists no delta scans
//! (objects no cached root wants any more) are caught by a sweep of both
//! indexes once the stale links exceed twice the live ones, so stale links
//! stay bounded by the live ones.  Which entries die, and therefore every
//! hit, miss and invalidation count, is exactly what eager unlinking gives.

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
    /// Distinguishes this entry's reverse-index links from the stale links
    /// of earlier entries at the same root.
    stamp: u32,
}

/// One reverse-index link: a root and the stamp of the entry that was
/// linked.  The link is live while the root's entry still carries that
/// stamp; removing or replacing the entry leaves it stale, to be dropped by
/// the next scan of its list.
type Link = (PeerId, u32);

fn is_live(entries: &HashMap<PeerId, Entry, FastState>, (root, stamp): Link) -> bool {
    entries.get(&root).is_some_and(|entry| entry.stamp == stamp)
}

/// Removes `root`'s entry from `entries`, releasing its share of
/// `live_links`; the entry's links go stale.  Returns whether an entry
/// existed.
fn remove_entry(
    entries: &mut HashMap<PeerId, Entry, FastState>,
    live_links: &mut usize,
    root: PeerId,
) -> bool {
    let Some(entry) = entries.remove(&root) else {
        return false;
    };
    *live_links -= entry.edge_deps.len() + entry.wants.len();
    true
}

/// Stale links the indexes may hold beyond twice the live ones before a
/// store sweeps them.  Delta scans reclaim most stale links for free; the
/// slack keeps a nearly empty cache from sweeping on every store.
const SWEEP_SLACK: usize = 4096;

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
    /// Reverse index over [`Entry::edge_deps`], indexed by peer id: links to
    /// the roots whose cached search read the peer's incoming queue.  An
    /// edge delta kills the live ones outright, no per-entry filtering.
    edge_dependents: Vec<Vec<Link>>,
    /// Reverse index over [`Entry::wants`]: object -> links to the roots
    /// whose cached search probed for it.  Kept tiny (≤ max-pending objects
    /// per entry), it turns the probe-side delta checks into small-list
    /// scans.
    want_index: HashMap<ObjectId, Vec<Link>, FastState>,
    /// The stamp the next stored entry receives.
    next_stamp: u32,
    /// Links across both indexes, live and stale.
    links: usize,
    /// Links the live entries own: `edge_deps.len() + wants.len()` each.
    live_links: usize,
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
    /// against the entry's own sorted `deps` list.  Storing pushes one
    /// stamped link per indexed peer and object and unlinks nothing: a
    /// replaced entry's links go stale and are dropped by later scans of
    /// their lists, so storing costs `O(edge_deps + wants)` amortised.
    pub fn store(
        &mut self,
        root: PeerId,
        wants: Vec<ObjectId>,
        trace: SearchTrace<PeerId, ObjectId>,
    ) {
        if self.next_stamp == u32::MAX {
            self.restamp();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let entry = Entry {
            wants,
            rings: trace.rings,
            deps: trace.deps,
            edge_deps: trace.edge_deps,
            stamp,
        };
        self.live_links += entry.edge_deps.len() + entry.wants.len();
        if let Some(old) = self.entries.insert(root, entry) {
            self.live_links -= old.edge_deps.len() + old.wants.len();
        }
        self.link(root);
        if self.links - self.live_links > 2 * self.live_links + SWEEP_SLACK {
            self.sweep();
        }
    }

    /// Pushes the reverse-index links of `root`'s entry.
    fn link(&mut self, root: PeerId) {
        let entry = &self.entries[&root];
        let link = (root, entry.stamp);
        if let Some(top) = entry.edge_deps.iter().max() {
            if top.as_usize() >= self.edge_dependents.len() {
                self.edge_dependents
                    .resize_with(top.as_usize() + 1, Vec::new);
            }
        }
        for dep in &entry.edge_deps {
            self.edge_dependents[dep.as_usize()].push(link);
        }
        for object in &entry.wants {
            self.want_index.entry(*object).or_default().push(link);
        }
        self.links += entry.edge_deps.len() + entry.wants.len();
    }

    /// Drops every stale link from both indexes and frees the lists left
    /// empty.  Stores call this once the stale links exceed twice the live
    /// ones by [`SWEEP_SLACK`], so its cost is amortised over at least that
    /// many pushes.
    fn sweep(&mut self) {
        let entries = &self.entries;
        for list in &mut self.edge_dependents {
            list.retain(|&link| is_live(entries, link));
            if list.is_empty() {
                *list = Vec::new();
            }
        }
        // exchange-lint: allow(D001, reason = "order-independent: each list is filtered on its own")
        self.want_index.retain(|_, list| {
            list.retain(|&link| is_live(entries, link));
            !list.is_empty()
        });
        self.links = self.live_links;
    }

    /// Rebuilds both reverse indexes from the live entries under the fresh
    /// stamps `0..len`.  Runs when the stamp counter is exhausted, so no
    /// stale link can ever match a stamp the counter hands out again.
    fn restamp(&mut self) {
        self.edge_dependents.clear();
        self.want_index.clear();
        self.links = 0;
        // exchange-lint: allow(D001, reason = "sorted on the next line; stamps only need to be distinct")
        let mut roots: Vec<PeerId> = self.entries.keys().copied().collect();
        roots.sort_unstable();
        self.next_stamp = 0;
        for root in roots {
            if let Some(entry) = self.entries.get_mut(&root) {
                entry.stamp = self.next_stamp;
            }
            self.next_stamp += 1;
            self.link(root);
        }
    }

    /// Drops every entry whose search depended on `peer`.
    ///
    /// Call this for deltas that affect every object of `peer` at once: a
    /// churn departure takes all of a peer's holdings offline together.
    /// Per-object provision changes — the peer gained or evicted one stored
    /// object — should go through the lazier
    /// [`invalidate_holding`](Self::invalidate_holding); graph-edge changes
    /// through [`apply_graph_deltas`](Self::apply_graph_deltas).
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
    /// edge could affect.  Cheap when nothing changed.
    ///
    /// Each changed edge `(provider, object)` kills the entries that read the
    /// provider's incoming queue ([`SearchTrace::edge_deps`]) or probed the
    /// provider for that very object (a middleman claim backed by the edge).
    /// This treats every edge as affecting the provider's full queue; the
    /// simulation's own drain does better by knowing the fanout its searches
    /// ran at — an edge landing beyond the fanout prefix of the provider's
    /// queue can only affect the provider's *own* entry (the root scan is
    /// unbounded) and the per-object claim probes.  Both drains compose the
    /// same per-edge primitives, so the indexes have one delta path.
    pub fn apply_graph_deltas(&mut self, graph: &mut RequestGraph<PeerId, ObjectId>) {
        if !graph.has_dirty() {
            return;
        }
        let mut previous: Option<PeerId> = None;
        for (provider, _, object) in graph.take_dirty_edges() {
            if previous != Some(provider) {
                self.invalidate_edge_readers(provider);
                previous = Some(provider);
            }
            self.invalidate_holding(provider, object);
        }
    }

    /// Drops every entry whose search read `provider`'s incoming queue —
    /// including the entry rooted at `provider` itself.  Call when an edge
    /// changed inside the queue slice searches examine.
    ///
    /// Takes the provider's whole link list: the live links are exactly the
    /// entries to drop, and the stale ones go with the list.
    pub fn invalidate_edge_readers(&mut self, provider: PeerId) {
        let Some(list) = self.edge_dependents.get_mut(provider.as_usize()) else {
            return;
        };
        let list = mem::take(list);
        self.links -= list.len();
        for link in list {
            if is_live(&self.entries, link) {
                self.remove_entry(link.0);
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
    /// entry's own sorted `deps` list.  The scan keeps only the links that
    /// stay live, so it also sweeps the list's stale links.
    pub fn invalidate_holding(&mut self, provider: PeerId, object: ObjectId) {
        let Some(list) = self.want_index.get_mut(&object) else {
            return;
        };
        let (entries, live_links) = (&mut self.entries, &mut self.live_links);
        let before = list.len();
        list.retain(|&(root, stamp)| match entries.get(&root) {
            Some(entry) if entry.stamp == stamp => {
                let dependent = entry.deps.binary_search(&provider).is_ok();
                if dependent {
                    remove_entry(entries, live_links, root);
                    self.stats.invalidations += 1;
                }
                !dependent
            }
            _ => false,
        });
        self.links -= before - list.len();
        if list.is_empty() {
            self.want_index.remove(&object);
        }
    }

    /// Removes `root`'s entry (see [`remove_entry`]).
    fn remove_entry(&mut self, root: PeerId) -> bool {
        remove_entry(&mut self.entries, &mut self.live_links, root)
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
        self.links = 0;
        self.live_links = 0;
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
        cache.apply_graph_deltas(&mut graph);
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
        cache.apply_graph_deltas(&mut graph);
        assert_eq!(cache.lookup(peer(0), &wants), Some(rings.as_slice()));
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
        // Stale reverse-index links must not resurrect anything.
        graph.add_request(peer(4), peer(1), object(50));
        cache.apply_graph_deltas(&mut graph);
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
        cache.apply_graph_deltas(&mut graph);
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
        cache.apply_graph_deltas(&mut graph);
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

    /// `(live, total)` links, counted from the lists themselves; asserts the
    /// running counters agree.
    fn link_counts(cache: &RingCandidateCache) -> (usize, usize) {
        let lists = cache
            .edge_dependents
            .iter()
            .chain(cache.want_index.values());
        let (mut live, mut total) = (0, 0);
        for list in lists {
            total += list.len();
            live += list
                .iter()
                .filter(|&&link| is_live(&cache.entries, link))
                .count();
        }
        let owned: usize = (cache.entries.values())
            .map(|entry| entry.edge_deps.len() + entry.wants.len())
            .sum();
        assert_eq!(live, owned, "a live entry lost a link");
        assert_eq!((live, total), (cache.live_links, cache.links));
        (live, total)
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
    fn stale_links_stay_bounded_by_the_live_ones_under_churn() {
        const PEERS: u32 = 4_000;
        let mut cache = RingCandidateCache::new();
        let mut draws = Draws(7);
        let mut most_live = 0;
        for step in 0..20_000 {
            match draws.below(20) {
                0..=15 => {
                    let root = draws.below(PEERS);
                    let reads: Vec<u32> = (0..10 + draws.below(40))
                        .map(|_| draws.below(PEERS))
                        .collect();
                    let probed: Vec<u32> =
                        (0..draws.below(40)).map(|_| draws.below(PEERS)).collect();
                    let wants: Vec<ObjectId> = (0..1 + draws.below(4))
                        .map(|_| object(draws.below(300)))
                        .collect();
                    cache.store(peer(root), wants, synthetic(&reads, &probed));
                    let (live, stale) = (cache.live_links, cache.links - cache.live_links);
                    assert!(
                        stale <= 2 * live + SWEEP_SLACK,
                        "step {step}: {stale} stale, {live} live"
                    );
                    most_live = most_live.max(live);
                }
                16 | 17 => cache.invalidate_edge_readers(peer(draws.below(PEERS))),
                18 => {
                    cache.invalidate_holding(peer(draws.below(PEERS)), object(draws.below(300)));
                }
                _ => cache.invalidate_root(peer(draws.below(PEERS))),
            }
            if step % 500 == 0 {
                link_counts(&cache);
            }
        }
        // The slack is small next to the live links the churn keeps, so the
        // bound above is about twice the live links.
        assert!(most_live > 4 * SWEEP_SLACK, "only {most_live} live links");

        // Re-storing a few roots over ever new peers and objects strands
        // their old links in lists nobody scans again: only a sweep gets
        // them back.
        cache.clear();
        let mut swept = false;
        for i in 0..2_000 {
            let reads: Vec<u32> = (0..20).map(|j| i * 20 + j).collect();
            let links = cache.links;
            cache.store(
                peer(i % 10),
                vec![object(1_000 + i)],
                synthetic(&reads, &[]),
            );
            swept |= cache.links < links;
            let (live, stale) = (cache.live_links, cache.links - cache.live_links);
            assert!(
                stale <= 2 * live + SWEEP_SLACK,
                "{stale} stale, {live} live"
            );
        }
        assert!(swept, "stranded links were never swept");
        link_counts(&cache);
    }

    #[test]
    fn exhausted_stamps_rebuild_the_indexes_without_false_kills() {
        let mut cache = RingCandidateCache::new();
        cache.next_stamp = u32::MAX - 2;
        // Root 0 reads peer 5's queue, then is replaced by an entry that does
        // not: its old link at peer 5 is stale when the stamps run out, at
        // root 1's store.
        cache.store(peer(0), vec![object(1)], synthetic(&[0, 5], &[]));
        cache.store(peer(0), vec![object(1)], synthetic(&[0, 6], &[]));
        cache.store(peer(1), vec![object(2)], synthetic(&[1, 5], &[9]));
        // Root 1's store found the counter exhausted and re-stamped root 0.
        cache.store(peer(2), vec![object(1)], synthetic(&[2, 6], &[]));
        assert!(cache.next_stamp < 10, "stamps were not rebuilt");
        assert_eq!(
            link_counts(&cache),
            (9, 9),
            "the rebuild keeps live links only"
        );
        // Enough stores to hand out every re-used stamp again.
        for root in 10..27 {
            cache.store(peer(root), vec![object(3)], synthetic(&[root], &[]));
        }
        cache.invalidate_edge_readers(peer(5));
        assert_eq!(cache.stats().invalidations, 1, "only root 1 read peer 5");
        assert!(cache.iter_entries().any(|entry| entry.root == peer(0)));
        cache.invalidate_edge_readers(peer(6));
        assert_eq!(cache.stats().invalidations, 3);
        cache.invalidate_holding(peer(9), object(2));
        assert_eq!(cache.stats().invalidations, 3, "root 1 is already gone");
        assert_eq!(cache.len(), 17);
        link_counts(&cache);
    }
}
