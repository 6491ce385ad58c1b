//! The directed request graph.

use std::collections::BTreeSet;

use crate::Key;

/// One outstanding request: `requester` has asked `provider` for `object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Request<P, O> {
    /// The peer that issued the request.
    pub requester: P,
    /// The peer the request was sent to (which stores the object).
    pub provider: P,
    /// The requested object.
    pub object: O,
}

/// The table index of a peer: its `u32` image (see [`RequestGraph`]).
pub(crate) fn slot<P: Into<u32>>(peer: P) -> usize {
    peer.into() as usize
}

/// The queue at `index` of a peer-indexed table, grown on demand.
fn queue_mut<T>(table: &mut Vec<Vec<T>>, index: usize) -> &mut Vec<T> {
    if index >= table.len() {
        table.resize_with(index + 1, Vec::new);
    }
    &mut table[index]
}

/// The directed graph **G** of Section III-A.
///
/// Vertices are peers; a labelled edge from `R` to `P` with label `o`
/// represents an outstanding request from `R` to `P` for object `o`.  Any
/// cycle of length *n* in this graph is a feasible *n*-way exchange.
///
/// The graph is indexed both by provider (a provider's incoming edges are its
/// incoming-request queue) and by requester (a peer's outgoing requests).
/// Both indexes are peer-indexed tables of sorted queues, so reading a queue
/// is one slice: [`incoming`](Self::incoming) lists `(requester, object)` in
/// ascending order, [`outgoing`](Self::outgoing) lists `(provider, object)`
/// likewise.
///
/// For incremental consumers (candidate caches keyed on search results), the
/// graph keeps a *dirty log* of mutations since it was last drained
/// ([`take_dirty_edges`](Self::take_dirty_edges)): the
/// `(provider, requester, object)` triple of every changed edge.  It also
/// counts its mutations in [`generation`](Self::generation).  Equality
/// ignores all bookkeeping: two graphs with the same edges compare equal
/// regardless of their mutation history.
///
/// # Peer ids
///
/// A peer's table index is its `P: Into<u32>` image.  **Contract:** that
/// conversion must be injective and preserve order (`a < b` iff
/// `a.into() < b.into()`), which holds for the unsigned integer types and
/// the `workload` id newtypes; [`iter`](Self::iter) walks the providers in
/// index order.  The tables grow to the largest index seen, so ids should be
/// dense.
///
/// # Example
///
/// ```
/// use exchange::RequestGraph;
///
/// let mut g: RequestGraph<u32, u32> = RequestGraph::new();
/// g.add_request(1, 2, 7);
/// assert!(g.has_request(1, 2, 7));
/// assert_eq!(g.incoming(2), &[(1, 7)]);
/// assert_eq!(g.outgoing(1), &[(2, 7)]);
/// assert!(g.take_dirty_edges().into_iter().eq([(2, 1, 7)]));
/// ```
#[derive(Debug, Clone)]
pub struct RequestGraph<P: Key + Into<u32>, O: Key> {
    /// Per provider index: its sorted `(requester, object)` queue.
    incoming: Vec<Vec<(P, O)>>,
    /// Per requester index: its sorted `(provider, object)` requests.
    outgoing: Vec<Vec<(P, O)>>,
    /// Per index: the peer it belongs to.  Only entries whose incoming or
    /// outgoing queue is non-empty are ever read.
    ids: Vec<P>,
    len: usize,
    /// Bumped on every successful mutation.
    generation: u64,
    /// `(provider, requester, object)` of every edge changed since the last
    /// drain.
    dirty_edges: BTreeSet<(P, P, O)>,
}

impl<P: Key + Into<u32>, O: Key> PartialEq for RequestGraph<P, O> {
    fn eq(&self, other: &Self) -> bool {
        // Mutation-tracking state and emptied queues are bookkeeping, not
        // graph identity; the incoming queues hold every edge once.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<P: Key + Into<u32>, O: Key> Eq for RequestGraph<P, O> {}

impl<P: Key + Into<u32>, O: Key> RequestGraph<P, O> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        RequestGraph {
            incoming: Vec::new(),
            outgoing: Vec::new(),
            ids: Vec::new(),
            len: 0,
            generation: 0,
            dirty_edges: BTreeSet::new(),
        }
    }

    /// A counter bumped on every successful mutation.
    ///
    /// No in-tree cache compares generations any more: the ring-candidate
    /// cache drains the [dirty log](Self::take_dirty_edges), which says
    /// *which edges* changed.  Only snapshot v3 stores the value.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drains the dirty log: the `(provider, requester, object)` triple of
    /// every edge changed since the last drain, sorted by provider.
    ///
    /// The triple leads with the provider endpoint because that is the side
    /// a ring search reads (incoming request queues); the requester and
    /// object let consumers decide *where in the provider's queue* the edge
    /// sat — e.g. whether it falls inside the fanout-bounded prefix a
    /// depth-limited search actually examined.
    pub fn take_dirty_edges(&mut self) -> BTreeSet<(P, P, O)> {
        std::mem::take(&mut self.dirty_edges)
    }

    /// Whether any mutation happened since the last drain.
    #[must_use]
    pub fn has_dirty(&self) -> bool {
        !self.dirty_edges.is_empty()
    }

    /// The undrained dirty log, without draining it.
    ///
    /// Checkpointing must capture the pending log exactly — a consumer that
    /// has not drained yet will drain after restore and must see the same
    /// invalidations.
    #[must_use]
    pub fn dirty_edge_log(&self) -> &BTreeSet<(P, P, O)> {
        &self.dirty_edges
    }

    /// Rebuilds a graph from checkpointed parts: its edges plus the exact
    /// mutation-tracking state (`generation` and the undrained dirty log).
    /// The edge count is derived from `edges`.
    #[must_use]
    pub fn from_parts(
        edges: impl IntoIterator<Item = (P, P, O)>,
        generation: u64,
        dirty_edges: BTreeSet<(P, P, O)>,
    ) -> Self {
        let mut graph: RequestGraph<P, O> = edges.into_iter().collect();
        graph.generation = generation;
        graph.dirty_edges = dirty_edges;
        graph
    }

    fn mark_edge_dirty(&mut self, requester: P, provider: P, object: O) {
        self.generation += 1;
        self.dirty_edges.insert((provider, requester, object));
    }

    /// Records `peer` as the owner of its table index.
    fn register(&mut self, peer: P) {
        let index = slot(peer);
        if index >= self.ids.len() {
            self.ids.resize(index + 1, peer);
        }
        self.ids[index] = peer;
    }

    /// Number of outstanding requests (edges).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph has no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a request from `requester` to `provider` for `object`.
    ///
    /// Returns `true` if the request was new, `false` if an identical request
    /// was already registered (the paper allows only one registered request
    /// per (requester, provider, object) triple).
    ///
    /// # Panics
    ///
    /// Panics if `requester == provider`: a peer never requests from itself.
    pub fn add_request(&mut self, requester: P, provider: P, object: O) -> bool {
        assert!(
            requester != provider,
            "a peer cannot request an object from itself ({requester:?})"
        );
        let queue = queue_mut(&mut self.incoming, slot(provider));
        let Err(at) = queue.binary_search(&(requester, object)) else {
            return false;
        };
        queue.insert(at, (requester, object));
        let out = queue_mut(&mut self.outgoing, slot(requester));
        let at = out
            .binary_search(&(provider, object))
            .expect_err("the outgoing index mirrors the incoming one");
        out.insert(at, (provider, object));
        self.register(provider);
        self.register(requester);
        self.len += 1;
        self.mark_edge_dirty(requester, provider, object);
        true
    }

    /// Removes a specific request; returns `true` if it existed.
    pub fn remove_request(&mut self, requester: P, provider: P, object: O) -> bool {
        let Some(queue) = self.incoming.get_mut(slot(provider)) else {
            return false;
        };
        let Ok(at) = queue.binary_search(&(requester, object)) else {
            return false;
        };
        queue.remove(at);
        let out = &mut self.outgoing[slot(requester)];
        let at = out
            .binary_search(&(provider, object))
            .expect("the outgoing index mirrors the incoming one");
        out.remove(at);
        self.len -= 1;
        self.mark_edge_dirty(requester, provider, object);
        true
    }

    /// Removes every request issued by `requester` for `object`
    /// (towards any provider).  Returns how many were removed.
    ///
    /// Used when a download completes or is abandoned.
    pub fn remove_object_requests(&mut self, requester: P, object: O) -> usize {
        let Some(out) = self.outgoing.get_mut(slot(requester)) else {
            return 0;
        };
        let mut targets: Vec<P> = Vec::new();
        out.retain(|&(provider, o)| {
            let hit = o == object;
            if hit {
                targets.push(provider);
            }
            !hit
        });
        for provider in &targets {
            let queue = &mut self.incoming[slot(*provider)];
            let at = queue
                .binary_search(&(requester, object))
                .expect("the incoming index mirrors the outgoing one");
            queue.remove(at);
        }
        self.len -= targets.len();
        for provider in &targets {
            self.mark_edge_dirty(requester, *provider, object);
        }
        targets.len()
    }

    /// Whether the exact request is registered.
    #[must_use]
    pub fn has_request(&self, requester: P, provider: P, object: O) -> bool {
        self.incoming(provider)
            .binary_search(&(requester, object))
            .is_ok()
    }

    /// The incoming-request queue of `provider`: its `(requester, object)`
    /// pairs in ascending order.
    #[must_use]
    pub fn incoming(&self, provider: P) -> &[(P, O)] {
        self.incoming.get(slot(provider)).map_or(&[], Vec::as_slice)
    }

    /// The outgoing requests of `requester`: its `(provider, object)` pairs
    /// in ascending order.
    #[must_use]
    pub fn outgoing(&self, requester: P) -> &[(P, O)] {
        self.outgoing
            .get(slot(requester))
            .map_or(&[], Vec::as_slice)
    }

    /// All requests in the graph, in deterministic order: by provider, then
    /// by requester and object.
    pub fn iter(&self) -> impl Iterator<Item = Request<P, O>> + '_ {
        self.incoming
            .iter()
            .enumerate()
            .flat_map(move |(index, queue)| {
                queue.iter().map(move |&(requester, object)| Request {
                    requester,
                    provider: self.ids[index],
                    object,
                })
            })
    }

    /// The distinct peers that appear as requester or provider of any edge.
    #[must_use]
    pub fn peers(&self) -> BTreeSet<P> {
        self.iter()
            .flat_map(|request| [request.requester, request.provider])
            .collect()
    }
}

impl<P: Key + Into<u32>, O: Key> Default for RequestGraph<P, O> {
    fn default() -> Self {
        RequestGraph::new()
    }
}

impl<P: Key + Into<u32>, O: Key> FromIterator<(P, P, O)> for RequestGraph<P, O> {
    fn from_iter<T: IntoIterator<Item = (P, P, O)>>(iter: T) -> Self {
        let mut graph = RequestGraph::new();
        for (requester, provider, object) in iter {
            graph.add_request(requester, provider, object);
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_requests() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        assert!(g.add_request(1, 2, 100));
        assert!(
            !g.add_request(1, 2, 100),
            "duplicate registration is a no-op"
        );
        assert!(g.add_request(1, 2, 101));
        assert_eq!(g.len(), 2);
        assert!(g.has_request(1, 2, 100));
        assert!(!g.has_request(2, 1, 100));
        assert_eq!(g.incoming(2), &[(1, 100), (1, 101)]);
        assert_eq!(g.outgoing(1), &[(2, 100), (2, 101)]);
        assert!(g.outgoing(2).is_empty());
        assert!(
            g.incoming(7).is_empty(),
            "an unseen peer has an empty queue"
        );
    }

    #[test]
    fn remove_request() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        g.add_request(1, 2, 100);
        assert!(g.remove_request(1, 2, 100));
        assert!(!g.remove_request(1, 2, 100));
        assert!(g.is_empty());
        assert!(g.outgoing(1).is_empty());
    }

    #[test]
    fn remove_object_requests_clears_all_providers() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        g.add_request(1, 2, 100);
        g.add_request(1, 3, 100);
        g.add_request(1, 3, 200);
        assert_eq!(g.remove_object_requests(1, 100), 2);
        assert_eq!(g.len(), 1);
        assert!(g.has_request(1, 3, 200));
        assert_eq!(g.remove_object_requests(9, 1), 0);
    }

    #[test]
    fn peers_lists_all_endpoints() {
        let g: RequestGraph<u32, u32> = [(1, 2, 10), (3, 2, 11)].into_iter().collect();
        let peers = g.peers();
        assert_eq!(peers, BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn iteration_is_deterministic() {
        let g: RequestGraph<u32, u32> = [(3, 1, 5), (2, 1, 4), (1, 2, 3)].into_iter().collect();
        let all: Vec<(u32, u32, u32)> = g
            .iter()
            .map(|r| (r.requester, r.provider, r.object))
            .collect();
        assert_eq!(all, vec![(2, 1, 4), (3, 1, 5), (1, 2, 3)]);
    }

    #[test]
    #[should_panic(expected = "request an object from itself")]
    fn self_request_panics() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        g.add_request(1, 1, 5);
    }

    #[test]
    fn generation_counts_only_effective_mutations() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        assert_eq!(g.generation(), 0);
        g.add_request(1, 2, 100);
        assert_eq!(g.generation(), 1);
        g.add_request(1, 2, 100); // duplicate: no-op
        assert_eq!(g.generation(), 1);
        g.remove_request(1, 2, 100);
        assert_eq!(g.generation(), 2);
        g.remove_request(1, 2, 100); // already gone: no-op
        assert_eq!(g.generation(), 2);
    }

    #[test]
    fn dirty_edges_report_provider_requester_and_object() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        g.add_request(1, 2, 100);
        g.add_request(3, 2, 101);
        g.add_request(1, 4, 100);
        assert_eq!(
            g.take_dirty_edges(),
            BTreeSet::from([(2, 1, 100), (2, 3, 101), (4, 1, 100)])
        );
        assert!(!g.has_dirty());
        g.remove_request(1, 2, 100);
        assert_eq!(g.take_dirty_edges(), BTreeSet::from([(2, 1, 100)]));
        g.remove_object_requests(3, 101);
        assert_eq!(g.take_dirty_edges(), BTreeSet::from([(2, 3, 101)]));
    }

    #[test]
    fn equality_ignores_mutation_history() {
        let mut a: RequestGraph<u32, u32> = RequestGraph::new();
        a.add_request(1, 2, 100);
        a.add_request(1, 2, 101);
        a.remove_request(1, 2, 101);
        let mut b: RequestGraph<u32, u32> = RequestGraph::new();
        b.add_request(1, 2, 100);
        b.take_dirty_edges();
        assert_eq!(a, b);
        assert_ne!(a.generation(), b.generation());
    }

    #[test]
    fn a_graph_emptied_by_removal_equals_a_new_one() {
        let mut g: RequestGraph<u32, u32> = RequestGraph::new();
        g.add_request(1, 2, 100);
        g.remove_request(1, 2, 100);
        assert_eq!(g, RequestGraph::new());
        g.add_request(3, 1, 7);
        g.remove_object_requests(3, 7);
        assert_eq!(g, RequestGraph::new());
    }

    #[test]
    fn queues_are_sorted_whatever_the_insertion_order() {
        let g: RequestGraph<u32, u32> = [(5, 0, 1), (2, 0, 9), (2, 0, 3), (7, 4, 1), (5, 4, 1)]
            .into_iter()
            .collect();
        assert_eq!(g.incoming(0), &[(2, 3), (2, 9), (5, 1)]);
        assert_eq!(g.outgoing(5), &[(0, 1), (4, 1)]);
        assert_eq!(g.outgoing(2), &[(0, 3), (0, 9)]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
            proptest::collection::vec((0u8..10, 0u8..10, 0u8..20), 0..60).prop_map(|edges| {
                edges
                    .into_iter()
                    .filter(|(r, p, _)| r != p)
                    .collect::<Vec<_>>()
            })
        }

        proptest! {
            #[test]
            fn len_matches_iteration(edges in arb_edges()) {
                let g: RequestGraph<u8, u8> = edges.iter().copied().collect();
                prop_assert_eq!(g.len(), g.iter().count());
            }

            #[test]
            fn incoming_and_outgoing_are_consistent(edges in arb_edges()) {
                let g: RequestGraph<u8, u8> = edges.iter().copied().collect();
                for req in g.iter() {
                    prop_assert!(g.incoming(req.provider).contains(&(req.requester, req.object)));
                    prop_assert!(g.outgoing(req.requester).contains(&(req.provider, req.object)));
                }
            }

            #[test]
            fn removing_everything_leaves_empty_graph(edges in arb_edges()) {
                let mut g: RequestGraph<u8, u8> = edges.iter().copied().collect();
                let all: Vec<Request<u8, u8>> = g.iter().collect();
                for req in all {
                    g.remove_request(req.requester, req.provider, req.object);
                }
                prop_assert!(g.is_empty());
                prop_assert_eq!(g.iter().count(), 0);
            }
        }
    }
}
