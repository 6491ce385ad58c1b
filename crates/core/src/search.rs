//! Ring search: discovering feasible n-way exchanges through a provider.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{ExchangeRing, Key, RequestGraph, RingEdge, RingPreference, SearchPolicy};

/// The result of a [ring search](RingSearch::find_traced_in): the rings plus
/// the exact set of peers whose state the search read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchTrace<P: Key, O: Key> {
    /// The feasible rings, in the policy's preference order.
    pub rings: Vec<ExchangeRing<P, O>>,
    /// Every peer the search depended on, sorted and deduplicated: the root
    /// plus every peer that entered the BFS frontier.  The search only reads
    /// the incoming-request queues of these peers and only probes the
    /// `provides` oracle for them, so a graph or ownership change confined to
    /// peers *outside* this set cannot alter the result — `deps` is the
    /// invalidation footprint a candidate cache must watch.
    pub deps: Vec<P>,
    /// The subset of [`deps`](Self::deps) whose *incoming-request queues* the
    /// search actually read: the root (its queue seeds the BFS) plus every
    /// frontier peer that was expanded below the depth bound.  An edge
    /// added or removed at a provider outside this set cannot change which
    /// paths the search enumerates — together with the per-object `provides`
    /// probes recorded in `deps`, this is the footprint entry-level cache
    /// invalidation watches.  Sorted and deduplicated.
    pub edge_deps: Vec<P>,
}

/// An FxHash-style multiplicative hasher for maps keyed by small `Copy` ids.
///
/// The workspace's one id hasher: the search's adjacency snapshot and the
/// simulation's id-keyed bookkeeping (transfers, rings, upload and download
/// indexes, the ring-candidate cache) all use it through [`FastState`].  The
/// keys are peer, object, transfer and ring ids the program assigns itself,
/// so SipHash's flooding resistance buys nothing there.  Every such map is
/// only ever probed, or iterated into a list that is sorted before use, so
/// the hash function cannot affect any result.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`FastHasher`]: write
/// id-keyed maps as `HashMap<K, V, FastState>`.
pub type FastState = BuildHasherDefault<FastHasher>;

/// What one search learned about a peer the first time it popped a node
/// ending at that peer.
#[derive(Debug, Clone, Copy)]
struct Probe<P> {
    /// The probed peer.
    peer: P,
    /// The peer's closing want indices: `closers[start..end]`.
    start: usize,
    end: usize,
    /// Whether some node ending at the peer was expanded, i.e. the search
    /// read the peer's incoming queue.
    expanded: bool,
}

/// The smallest length a peer-indexed table grows to, so a small graph's
/// table is allocated once rather than regrown as larger ids turn up.
const MIN_TABLE: usize = 64;

/// The table index of a peer: its `u32` image (see [`SearchScratch`]).
fn slot<P: Into<u32>>(peer: P) -> usize {
    peer.into() as usize
}

/// A peer-indexed bitset that emits its members in ascending order.
#[derive(Debug, Default)]
struct PeerBits {
    words: Vec<u64>,
}

impl PeerBits {
    /// Adds `peer` and records it in `ids` so its bit maps back to it.
    fn insert<P: Copy + Into<u32>>(&mut self, ids: &mut Vec<P>, peer: P) {
        let index = slot(peer);
        if index >= ids.len() {
            ids.resize((index + 1).max(MIN_TABLE), peer);
        }
        ids[index] = peer;
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (index % 64);
    }

    /// Appends every member to `out` in ascending order and empties the set.
    fn drain_into<P: Copy>(&mut self, ids: &[P], out: &mut Vec<P>) {
        for (word_index, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(ids[word_index * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }
}

/// Reusable scratch state shared across ring searches.
///
/// Holds the per-search working state and an *expansion-prefix snapshot*
/// shared across searches: for every peer expanded below the first level,
/// the first `fanout` entries of its incoming queue — exactly the slice the
/// depth-bounded search reads.  Consecutive searches — typically one per
/// provider within a scheduling round — neither reallocate their working
/// memory nor re-walk the queue prefix of a peer an earlier provider's search
/// already expanded: overlapping request trees share their expansion
/// prefixes through the snapshot.  (A root's own queue is always scanned in
/// full, so it is snapshotted whole and separately from the capped prefixes:
/// providers are searched over and over.)
///
/// The snapshot is keyed on [`RequestGraph::generation`] and discarded
/// wholesale as soon as the graph mutates, so a search in a warm scratch is
/// always bit-identical to one in a fresh scratch.  A caller
/// that forwards the graph's [dirty-edge
/// log](crate::RequestGraph::take_dirty_edges) can do better and
/// [`advance`](Self::advance) the snapshot across mutations, forgetting only
/// the queues that changed.
///
/// # Peer ids
///
/// The per-search state is indexed by peer rather than hashed: a peer's
/// table index is its `P: Into<u32>` image.  **Contract:** that conversion
/// must be injective and preserve order (`a < b` iff `a.into() < b.into()`),
/// which holds for the unsigned integer types and the `workload` id
/// newtypes.  A search emits its dependency sets in index
/// order, so an order-breaking conversion would break
/// [`SearchTrace`]'s sorted contract.  Every table is sized lazily to the
/// largest index a search touches, so ids should be dense: with 32-bit ids
/// the tables cost about 12 bytes per index up to the largest one seen
/// (about 120 KiB at 10k peers).  They are scratch state, never
/// serialized.
///
/// # Thread safety
///
/// A scratch holds no shared state — it is plain owned data, `Send` whenever
/// the key types are — and every search re-validates its snapshot against
/// the graph generation before reuse.  A scratch warmed on one thread can
/// therefore move to another and keep searching bit-identically to fresh
/// searches.  The simulator's `Simulation` owns one, and a `Simulation` is
/// `Send`, so it can run on, or move between, sweep worker threads.
#[derive(Debug)]
pub struct SearchScratch<P: Key + Into<u32>, O: Key> {
    /// Graph generation the snapshot was taken at.
    generation: Option<u64>,
    /// The fanout the interior prefixes were materialised at; a search with
    /// a larger fanout resets the snapshot.
    fanout: usize,
    /// Full incoming queues of peers that served as search *roots* (their
    /// queue is always scanned whole).
    roots: HashMap<P, Vec<(P, O)>, FastState>,
    /// Capped queue prefixes of peers expanded below the first level.
    adjacency: HashMap<P, Vec<(P, O)>, FastState>,
    /// Per search: the BFS nodes, each (peer, object requested of its
    /// parent, parent index, depth).  The arena doubles as the FIFO queue.
    arena: Vec<(P, O, usize, usize)>,
    /// Per search: the path of the node being popped, root side first.
    path: Vec<(P, O)>,
    /// Per search: the index of the first occurrence of each distinct wanted
    /// object, in `wants` order.  A repeated object would only repeat rings.
    distinct_wants: Vec<usize>,
    /// The closing-probe memo's current stamp: a peer was probed by the
    /// current search iff its `memo_slots` stamp equals it.
    stamp: u32,
    /// The closing-probe memo, per peer index: `(stamp, index into
    /// probes)`.  The first time a node ending at a peer is popped, the peer
    /// is probed once for every distinct wanted object, and the indices it
    /// can serve are appended to `closers`; every later node ending at that
    /// peer reuses the probe.
    memo_slots: Vec<(u32, u32)>,
    /// Per search: the memo's probes in pop order, one per distinct popped
    /// peer.
    probes: Vec<Probe<P>>,
    /// Per search: the memo's closing want indices, ascending per peer.
    closers: Vec<usize>,
    /// Traced searches: the `deps` and `edge_deps` members, empty between
    /// searches.
    deps_bits: PeerBits,
    edge_bits: PeerBits,
    /// Per peer index: the peer whose bit it is (only entries whose bit is
    /// set are ever read).
    ids: Vec<P>,
}

impl<P: Key + Into<u32>, O: Key> SearchScratch<P, O> {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        SearchScratch {
            generation: None,
            fanout: 0,
            roots: HashMap::default(),
            adjacency: HashMap::default(),
            arena: Vec::new(),
            path: Vec::new(),
            distinct_wants: Vec::new(),
            stamp: 0,
            memo_slots: Vec::new(),
            probes: Vec::new(),
            closers: Vec::new(),
            deps_bits: PeerBits::default(),
            edge_bits: PeerBits::default(),
            ids: Vec::new(),
        }
    }

    /// A scratch whose memo stamp counter is forced to `stamp`, so tests can
    /// run the clear-on-exhaustion path without four billion searches.
    #[cfg(test)]
    fn with_stamp(mut self, stamp: u32) -> Self {
        self.stamp = stamp;
        self
    }

    /// Number of peers the current snapshot holds queues for (diagnostic;
    /// the snapshot resets when the graph mutates, unless the caller
    /// [`advance`](Self::advance)s it).
    #[must_use]
    pub fn snapshot_len(&self) -> usize {
        self.adjacency.len() + self.roots.len()
    }

    /// Advances the snapshot from `from_generation` to `to_generation`,
    /// forgetting only the snapshots of `changed_providers` — the peers whose
    /// incoming queues changed in between.  Each provider comes with a flag
    /// saying whether the change reached the fanout-bounded *prefix* of its
    /// queue: the full root snapshot is forgotten either way, but the capped
    /// interior prefix survives a change beyond it.
    ///
    /// This is the incremental alternative to the wholesale reset a search
    /// performs on a generation mismatch: a caller that drains the graph's
    /// [dirty-edge log](crate::RequestGraph::take_dirty_edges) knows exactly
    /// which queues changed and can keep every other peer's snapshot warm
    /// across mutations.  Soundness is guarded by the generation pair: if the
    /// scratch is not exactly at `from_generation` (some mutations were never
    /// reported to it), the whole snapshot is dropped instead.
    ///
    /// **Contract:** the `prefix_changed` flags must be computed at (or
    /// below) the fanout the scratch's prefixes were materialised with.  A
    /// scratch only ever serves searches of one fanout per generation epoch
    /// (a larger fanout resets it), so computing the flags at the fanout the
    /// searches run with — as the simulation's drain does — is always sound;
    /// mixing fanouts across one scratch while advancing it is not.
    pub fn advance(
        &mut self,
        from_generation: u64,
        to_generation: u64,
        changed_providers: impl IntoIterator<Item = (P, bool)>,
    ) {
        if self.generation == Some(from_generation) {
            for (provider, prefix_changed) in changed_providers {
                self.roots.remove(&provider);
                if prefix_changed {
                    self.adjacency.remove(&provider);
                }
            }
        } else {
            self.adjacency.clear();
            self.roots.clear();
        }
        self.generation = Some(to_generation);
    }

    /// Materialises (or reuses) the full incoming queue of a search root.
    fn full<'a>(
        roots: &'a mut HashMap<P, Vec<(P, O)>, FastState>,
        graph: &RequestGraph<P, O>,
        peer: P,
    ) -> &'a [(P, O)] {
        roots.entry(peer).or_insert_with(|| {
            graph
                .incoming(peer)
                .map(|r| (r.requester, r.object))
                .collect()
        })
    }

    /// Materialises (or reuses) the first `fanout` incoming-queue entries of
    /// `peer`.
    fn prefix<'a>(
        adjacency: &'a mut HashMap<P, Vec<(P, O)>, FastState>,
        graph: &RequestGraph<P, O>,
        peer: P,
        fanout: usize,
    ) -> &'a [(P, O)] {
        adjacency.entry(peer).or_insert_with(|| {
            graph
                .incoming(peer)
                .take(fanout)
                .map(|r| (r.requester, r.object))
                .collect()
        })
    }
}

impl<P: Key + Into<u32>, O: Key> Default for SearchScratch<P, O> {
    fn default() -> Self {
        SearchScratch::new()
    }
}

/// A configurable ring search.
///
/// The search walks the provider's request tree (simple paths through the
/// request graph following *incoming* request edges) up to the policy's depth
/// bound, and reports every ring in which the last peer on the path can
/// provide an object the provider currently wants.  Results are ordered by
/// the policy's ring-size preference, then by discovery order, so the caller
/// can simply try candidates front to back.
///
/// A global expansion budget bounds the work on pathological request graphs
/// (very popular providers with huge incoming-request queues).
///
/// # Example
///
/// ```
/// use exchange::{RequestGraph, RingPreference, RingSearch, SearchPolicy, SearchScratch};
///
/// let graph: RequestGraph<u32, u32> = [(1, 0, 10), (0, 1, 11)].into_iter().collect();
/// let search = RingSearch::new(SearchPolicy::new(5, RingPreference::ShorterFirst));
/// // Peer 0 wants object 11 and knows peer 1 has it (it already asked peer 1).
/// let provides = |p: &u32, o: &u32| *p == 1 && *o == 11;
/// let mut scratch = SearchScratch::new();
/// let trace = search.find_traced_in(&mut scratch, &graph, 0, &[11], provides);
/// assert_eq!(trace.rings.len(), 1);
/// assert!(trace.rings[0].is_pairwise());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSearch {
    policy: SearchPolicy,
    expansion_budget: usize,
    fanout: usize,
}

impl RingSearch {
    /// Creates a search with the default expansion budget and unbounded
    /// per-node fanout.
    #[must_use]
    pub fn new(policy: SearchPolicy) -> Self {
        RingSearch {
            policy,
            expansion_budget: 50_000,
            fanout: usize::MAX,
        }
    }

    /// Overrides the maximum number of path expansions performed per search.
    #[must_use]
    pub fn with_expansion_budget(mut self, budget: usize) -> Self {
        self.expansion_budget = budget.max(1);
        self
    }

    /// Bounds how many incoming-request entries are explored per node
    /// *below the first level*.
    ///
    /// The provider always scans its own incoming-request queue in full (the
    /// paper's pairwise detection examines every pending request), but the
    /// piggy-backed request trees of deeper levels are pruned: real peers
    /// would not ship arbitrarily wide trees, and bounding the fanout keeps
    /// the search cost predictable at the price of possibly missing some
    /// long rings.
    #[must_use]
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout.max(1);
        self
    }

    /// The policy this search uses.
    #[must_use]
    pub fn policy(&self) -> SearchPolicy {
        self.policy
    }

    /// Finds feasible rings through `root`, running inside a caller-owned
    /// [`SearchScratch`] that shares buffers and the per-generation adjacency
    /// snapshot with the other searches of the same round.  The result is
    /// identical to a search in a fresh scratch (`SearchScratch::new()`).
    ///
    /// * `wants` — the objects `root` currently wants to download.
    /// * `provides` — oracle telling whether a given peer can serve a given
    ///   object (in the simulator: the peer stores the object, shares, and
    ///   `root` learned about it during lookup).
    ///
    /// The returned rings all contain `root`; each ring's edge list starts
    /// with the edge on which `root` uploads.  The trace also reports the
    /// set of peers the search depended on (see [`SearchTrace::deps`]), so
    /// callers can cache the result and invalidate it precisely.
    ///
    /// **Contract:** `provides` must be a pure function of `(peer, object)`
    /// for the duration of one search.  The search probes each distinct
    /// pair at most once and reuses the answer for every path that ends at
    /// the same peer, so an oracle whose answer changes mid-search would see
    /// only its first answer.
    ///
    /// **Contract:** `P`'s `u32` conversion must be injective and preserve
    /// order; it indexes the search's per-peer tables (see
    /// [`SearchScratch`]), and `deps` and `edge_deps` are emitted in its
    /// order.
    pub fn find_traced_in<P: Key + Into<u32>, O: Key, F>(
        &self,
        scratch: &mut SearchScratch<P, O>,
        graph: &RequestGraph<P, O>,
        root: P,
        wants: &[O],
        provides: F,
    ) -> SearchTrace<P, O>
    where
        F: Fn(&P, &O) -> bool,
    {
        let mut found: Vec<(usize, ExchangeRing<P, O>)> = Vec::new();
        if wants.is_empty() {
            return SearchTrace {
                rings: Vec::new(),
                deps: vec![root],
                edge_deps: vec![root],
            };
        }
        let SearchScratch {
            generation,
            fanout,
            roots,
            adjacency,
            arena,
            path,
            distinct_wants,
            stamp,
            memo_slots,
            probes,
            closers,
            deps_bits,
            edge_bits,
            ids,
        } = scratch;
        // The queue snapshot survives across searches while the graph is
        // unchanged (or explicitly advanced) and the fanout fits; everything
        // else is per-search state.
        if *generation != Some(graph.generation()) || *fanout < self.fanout {
            adjacency.clear();
            roots.clear();
            *generation = Some(graph.generation());
            *fanout = self.fanout;
        }
        arena.clear();
        probes.clear();
        closers.clear();
        // A fresh stamp forgets every earlier search's memo entries; once the
        // counter is exhausted the table is cleared, so a stale stamp can
        // never match a reissued one.
        if *stamp == u32::MAX {
            memo_slots.fill((0, 0));
            *stamp = 0;
        }
        *stamp += 1;
        let mut budget = self.expansion_budget;
        // Breadth-first enumeration of simple paths root <- r1 <- r2 ...
        // following incoming request edges.  Breadth-first order guarantees
        // that when the expansion budget runs out, the shallow (short-ring)
        // candidates have already been covered.
        //
        // Each frontier node stores its parent's arena index instead of an
        // owned path, and the arena doubles as the FIFO queue (nodes are
        // expanded in insertion order), so extending a path allocates nothing
        // and the full path is only materialised — by walking parent
        // pointers into a reused buffer — for a popped node that closes a
        // ring or is extended.
        const NO_PARENT: usize = usize::MAX;
        // The root's queue is scanned in full (the paper's pairwise detection
        // examines every pending request); providers are searched over and
        // over, so their full queues are snapshotted separately from the
        // capped interior prefixes.
        arena.extend(
            SearchScratch::full(roots, graph, root)
                .iter()
                .map(|&(requester, object)| (requester, object, NO_PARENT, 1usize)),
        );
        // Distinct arena nodes are distinct simple paths (every queue is a
        // set of (requester, object) pairs), so only a repeated wanted
        // object could repeat a ring: probe each distinct object once.
        distinct_wants.clear();
        if !arena.is_empty() {
            distinct_wants.extend((0..wants.len()).filter(|&i| !wants[..i].contains(&wants[i])));
        }
        let mut head = 0;

        while head < arena.len() && budget > 0 {
            budget -= 1;
            let (last_peer, _, _, depth) = arena[head];
            let extend = depth < self.policy.max_depth();

            // Which wanted objects can the last peer serve the root?  Probed
            // once per distinct peer; the answer is shared by every path that
            // ends at it.
            let index = slot(last_peer);
            if index >= memo_slots.len() {
                memo_slots.resize((index + 1).max(MIN_TABLE), (0, 0));
            }
            let (seen, probe_index) = memo_slots[index];
            let probe = if seen == *stamp {
                &mut probes[probe_index as usize]
            } else {
                // At most one probe per distinct peer, and peers map
                // injectively into `u32`, so the index always fits.
                memo_slots[index] = (*stamp, probes.len() as u32);
                let start = closers.len();
                closers.extend(
                    distinct_wants
                        .iter()
                        .copied()
                        .filter(|&i| provides(&last_peer, &wants[i])),
                );
                probes.push(Probe {
                    peer: last_peer,
                    start,
                    end: closers.len(),
                    expanded: false,
                });
                probes.last_mut().expect("a probe was just pushed")
            };
            probe.expanded |= extend;
            let closing = &closers[probe.start..probe.end];
            if closing.is_empty() && !extend {
                head += 1;
                continue;
            }

            // Materialise the path root <- ... <- last_peer for this node.
            path.clear();
            let mut cursor = head;
            loop {
                let (peer, object, parent, _) = arena[cursor];
                path.push((peer, object));
                if parent == NO_PARENT {
                    break;
                }
                cursor = parent;
            }
            path.reverse();

            // Close a ring for every wanted object the last peer serves.
            for &i in closing {
                if let Ok(ring) = Self::ring_from_path(root, path, wants[i]) {
                    found.push((path.len() + 1, ring));
                }
            }

            // Extend the path.
            if extend {
                let children = SearchScratch::prefix(adjacency, graph, last_peer, *fanout);
                for &(peer, object) in children.iter().take(self.fanout) {
                    if peer == root || path.iter().any(|(p, _)| *p == peer) {
                        continue;
                    }
                    arena.push((peer, object, head, depth + 1));
                }
            }
            head += 1;
        }

        match self.policy.preference() {
            RingPreference::ShorterFirst => found.sort_by_key(|(size, _)| *size),
            RingPreference::LongerFirst => found.sort_by_key(|(size, _)| Reverse(*size)),
        }
        // The full dependency set: the root (its incoming queue seeds the
        // search) plus every peer that entered the frontier, whether or not
        // it was expanded before the budget ran out — the popped peers are
        // the memo's probes, the rest is the unpopped arena tail.  The
        // edge-dependency subset holds only the peers whose queues were
        // actually read: the root and every expanded peer.  Both are
        // collected as peer-indexed bits and read off in ascending order,
        // which also drops the duplicates.
        let tail = &arena[head..];
        deps_bits.insert(ids, root);
        edge_bits.insert(ids, root);
        for probe in probes.iter() {
            deps_bits.insert(ids, probe.peer);
            if probe.expanded {
                edge_bits.insert(ids, probe.peer);
            }
        }
        for &(peer, _, _, _) in tail {
            deps_bits.insert(ids, peer);
        }
        let mut deps = Vec::with_capacity(probes.len() + tail.len() + 1);
        deps_bits.drain_into(ids, &mut deps);
        let mut edge_deps = Vec::with_capacity(probes.len() + 1);
        edge_bits.drain_into(ids, &mut edge_deps);
        debug_assert!(
            deps.windows(2).all(|w| w[0] < w[1]),
            "P's u32 conversion must preserve order"
        );
        debug_assert!(
            edge_deps.windows(2).all(|w| w[0] < w[1]),
            "P's u32 conversion must preserve order"
        );
        SearchTrace {
            rings: found.into_iter().map(|(_, ring)| ring).collect(),
            deps,
            edge_deps,
        }
    }

    /// Builds the ring implied by a request-tree path plus the closing edge on
    /// which the deepest peer serves `closing_object` to the root.
    fn ring_from_path<P: Key, O: Key>(
        root: P,
        path: &[(P, O)],
        closing_object: O,
    ) -> Result<ExchangeRing<P, O>, crate::RingError> {
        let mut edges = Vec::with_capacity(path.len() + 1);
        // Root serves its direct requester.
        edges.push(RingEdge {
            uploader: root,
            downloader: path[0].0,
            object: path[0].1,
        });
        // Each peer on the path serves the next one.
        for window in path.windows(2) {
            edges.push(RingEdge {
                uploader: window[0].0,
                downloader: window[1].0,
                object: window[1].1,
            });
        }
        // The deepest peer closes the ring by serving the root.
        edges.push(RingEdge {
            uploader: path.last().expect("non-empty path").0,
            downloader: root,
            object: closing_object,
        });
        ExchangeRing::new(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Ownership oracle backed by a map peer -> owned objects.
    fn owns(map: &HashMap<u32, Vec<u32>>) -> impl Fn(&u32, &u32) -> bool + '_ {
        |peer, object| map.get(peer).is_some_and(|objs| objs.contains(object))
    }

    /// Runs `search` in a fresh scratch.
    fn fresh_search<P: Key + Into<u32>, O: Key>(
        search: RingSearch,
        graph: &RequestGraph<P, O>,
        root: P,
        wants: &[O],
        provides: impl Fn(&P, &O) -> bool,
    ) -> SearchTrace<P, O> {
        search.find_traced_in(&mut SearchScratch::new(), graph, root, wants, provides)
    }

    fn shorter_first(max: usize) -> RingSearch {
        RingSearch::new(SearchPolicy::new(max, RingPreference::ShorterFirst))
    }

    fn longer_first(max: usize) -> RingSearch {
        RingSearch::new(SearchPolicy::new(max, RingPreference::LongerFirst))
    }

    #[test]
    fn no_wants_means_no_rings() {
        let graph: RequestGraph<u32, u32> = [(1, 0, 10)].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[], |_, _| true).rings;
        assert!(rings.is_empty());
    }

    #[test]
    fn pairwise_exchange_is_found() {
        // Peer 1 asked 0 for object 10; peer 0 wants object 99 which peer 1 owns.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(1, vec![99])].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[99], owns(&ownership)).rings;
        assert_eq!(rings.len(), 1);
        let ring = &rings[0];
        assert!(ring.is_pairwise());
        assert_eq!(ring.upload_of(&0).unwrap().object, 10);
        assert_eq!(ring.upload_of(&1).unwrap().object, 99);
    }

    #[test]
    fn three_way_ring_is_found_via_request_tree() {
        // 1 asked 0 for o10; 2 asked 1 for o20; 0 wants o30 owned by 2.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(2, vec![30])].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[30], owns(&ownership)).rings;
        assert_eq!(rings.len(), 1);
        let ring = &rings[0];
        assert_eq!(ring.len(), 3);
        // 0 serves 1 with o10, 1 serves 2 with o20, 2 serves 0 with o30.
        assert_eq!(ring.upload_of(&0).unwrap().downloader, 1);
        assert_eq!(ring.upload_of(&1).unwrap().object, 20);
        assert_eq!(ring.upload_of(&2).unwrap().downloader, 0);
    }

    #[test]
    fn max_ring_bound_excludes_long_cycles() {
        // Chain 1->0, 2->1, 3->2, 4->3; only peer 4 owns what 0 wants.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20), (3, 2, 30), (4, 3, 40)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> = [(4, vec![99])].into_iter().collect();
        // A ring through peer 4 needs 5 peers; bounding at 4 finds nothing.
        assert!(
            fresh_search(shorter_first(4), &graph, 0, &[99], owns(&ownership))
                .rings
                .is_empty()
        );
        // Raising the bound to 5 finds it.
        let rings = fresh_search(shorter_first(5), &graph, 0, &[99], owns(&ownership)).rings;
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].len(), 5);
    }

    #[test]
    fn preference_orders_candidates() {
        // Two feasible rings: pairwise via peer 1, 3-way via peer 2.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> =
            [(1, vec![99]), (2, vec![99])].into_iter().collect();

        let shorter = fresh_search(shorter_first(5), &graph, 0, &[99], owns(&ownership)).rings;
        assert_eq!(shorter.len(), 2);
        assert_eq!(shorter[0].len(), 2);
        assert_eq!(shorter[1].len(), 3);

        let longer = fresh_search(longer_first(5), &graph, 0, &[99], owns(&ownership)).rings;
        assert_eq!(longer[0].len(), 3);
        assert_eq!(longer[1].len(), 2);
    }

    #[test]
    fn multiple_wanted_objects_yield_multiple_rings() {
        let graph: RequestGraph<u32, u32> = [(1, 0, 10)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(1, vec![98, 99])].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[98, 99], owns(&ownership)).rings;
        assert_eq!(rings.len(), 2);
        assert!(rings.iter().all(ExchangeRing::is_pairwise));
    }

    #[test]
    fn branching_tree_explores_all_branches() {
        // Root 0 has two IRQ entries (1 and 2); each has its own requester.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 0, 11), (3, 1, 30), (4, 2, 40)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> =
            [(3, vec![99]), (4, vec![99])].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[99], owns(&ownership)).rings;
        assert_eq!(rings.len(), 2);
        assert!(rings.iter().all(|r| r.len() == 3));
        let closers: Vec<u32> = rings
            .iter()
            .map(|r| r.download_of(&0).unwrap().uploader)
            .collect();
        assert!(closers.contains(&3) && closers.contains(&4));
    }

    #[test]
    fn cycles_in_the_graph_do_not_loop_the_search() {
        // 1 <-> 2 request from each other, and 1 requests from 0.
        let graph: RequestGraph<u32, u32> =
            [(1, 0, 10), (2, 1, 20), (1, 2, 21)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(2, vec![99])].into_iter().collect();
        let rings = fresh_search(shorter_first(6), &graph, 0, &[99], owns(&ownership)).rings;
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].len(), 3);
    }

    #[test]
    fn root_must_not_appear_twice() {
        // 0 itself requested from 1; the search must not route through 0 again.
        let graph: RequestGraph<u32, u32> =
            [(1, 0, 10), (0, 1, 11), (2, 0, 12)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> =
            [(1, vec![11]), (2, vec![11])].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[11], owns(&ownership)).rings;
        for ring in &rings {
            let members = ring.members();
            let zero_count = members.iter().filter(|p| **p == 0).count();
            assert_eq!(zero_count, 1);
        }
    }

    #[test]
    fn expansion_budget_bounds_work() {
        // A star of many requesters; a tiny budget still terminates quickly
        // and returns at most what it could explore.
        let mut graph: RequestGraph<u32, u32> = RequestGraph::new();
        for i in 1..=100 {
            graph.add_request(i, 0, i);
        }
        let ownership: HashMap<u32, Vec<u32>> = (1..=100).map(|i| (i, vec![999])).collect();
        let search = shorter_first(2).with_expansion_budget(10);
        let rings = fresh_search(search, &graph, 0, &[999], owns(&ownership)).rings;
        assert!(rings.len() <= 10);
        assert!(!rings.is_empty());
    }

    #[test]
    fn fanout_limits_deeper_levels_but_not_the_irq_scan() {
        // The provider's own IRQ (level 1) is always scanned in full, so all
        // fifty pairwise rings are found even with a small fanout.
        let mut graph: RequestGraph<u32, u32> = RequestGraph::new();
        for i in 1..=50 {
            graph.add_request(i, 0, i);
        }
        let ownership: HashMap<u32, Vec<u32>> = (1..=50).map(|i| (i, vec![999])).collect();
        let search = shorter_first(2).with_fanout(5);
        let rings = fresh_search(search, &graph, 0, &[999], owns(&ownership)).rings;
        assert_eq!(rings.len(), 50);
    }

    #[test]
    fn fanout_limits_children_below_the_first_level() {
        // One IRQ entry (peer 1) with 20 requesters behind it; only `fanout`
        // of those second-level peers are explored.
        let mut graph: RequestGraph<u32, u32> = RequestGraph::new();
        graph.add_request(1, 0, 500);
        for i in 2..=21 {
            graph.add_request(i, 1, i);
        }
        let ownership: HashMap<u32, Vec<u32>> = (2..=21).map(|i| (i, vec![999])).collect();
        let search = shorter_first(3).with_fanout(4);
        let rings = fresh_search(search, &graph, 0, &[999], owns(&ownership)).rings;
        assert_eq!(rings.len(), 4);
        let all = fresh_search(shorter_first(3), &graph, 0, &[999], owns(&ownership)).rings;
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn budget_in_bfs_order_still_finds_shallow_rings_first() {
        // A deep chain plus a shallow pairwise option: even with a tiny
        // budget, the pairwise ring is found because exploration is BFS.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20), (3, 2, 30), (4, 3, 40)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> =
            [(1, vec![99]), (4, vec![99])].into_iter().collect();
        let search = shorter_first(5).with_expansion_budget(2);
        let rings = fresh_search(search, &graph, 0, &[99], owns(&ownership)).rings;
        assert!(!rings.is_empty());
        assert!(rings[0].is_pairwise());
    }

    #[test]
    fn traced_search_reports_visited_peers_as_deps() {
        // Chain 1 -> 0, 2 -> 1, 3 -> 2 plus an isolated edge 9 -> 8.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20), (3, 2, 30), (9, 8, 90)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> = [(2, vec![99])].into_iter().collect();
        let search = shorter_first(4);
        let trace = fresh_search(search, &graph, 0, &[99], owns(&ownership));
        assert_eq!(trace.rings.len(), 1);
        // Root 0 and frontier peers 1, 2 and 3 are deps (3 closes no ring but
        // was probed); the disconnected peers 8 and 9 are not.
        assert_eq!(trace.deps, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edge_deps_cover_only_peers_whose_queues_were_read() {
        // Chain 1 -> 0, 2 -> 1, 3 -> 2 with max ring size 3: the search reads
        // the queues of 0 (seed) and 1 (expanded at depth 1); peer 2 enters
        // the frontier at the depth bound, so its queue is never read, and
        // peer 3 never enters at all.
        let graph: RequestGraph<u32, u32> =
            [(1, 0, 10), (2, 1, 20), (3, 2, 30)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(2, vec![99])].into_iter().collect();
        let trace = fresh_search(shorter_first(3), &graph, 0, &[99], owns(&ownership));
        assert_eq!(trace.rings.len(), 1);
        assert_eq!(trace.deps, vec![0, 1, 2]);
        assert_eq!(trace.edge_deps, vec![0, 1]);
    }

    #[test]
    fn edge_deps_are_a_subset_of_deps() {
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20), (3, 2, 30), (2, 0, 11)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> =
            [(2, vec![99]), (3, vec![99])].into_iter().collect();
        for search in [shorter_first(5), longer_first(4), shorter_first(2)] {
            let trace = fresh_search(search, &graph, 0, &[99], owns(&ownership));
            for peer in &trace.edge_deps {
                assert!(trace.deps.contains(peer), "edge dep {peer} not in deps");
            }
        }
    }

    #[test]
    fn scratch_backed_searches_equal_fresh_ones_across_mutations() {
        let mut graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20), (2, 0, 11), (3, 2, 30)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> = [(1, vec![99]), (2, vec![99]), (3, vec![98])]
            .into_iter()
            .collect();
        let search = shorter_first(4);
        let mut scratch = SearchScratch::new();
        for round in 0..4u32 {
            for root in 0..4u32 {
                let shared =
                    search.find_traced_in(&mut scratch, &graph, root, &[98, 99], owns(&ownership));
                let fresh = fresh_search(search, &graph, root, &[98, 99], owns(&ownership));
                assert_eq!(shared, fresh, "root {root} round {round}");
            }
            assert!(scratch.snapshot_len() > 0, "snapshot is populated");
            // Mutate the graph: the snapshot must refresh on the next search.
            graph.add_request(round + 4, 0, 40 + round);
        }
    }

    #[test]
    fn advanced_scratch_keeps_untouched_snapshots_and_stays_exact() {
        let mut graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20), (2, 0, 11), (3, 2, 30)]
            .into_iter()
            .collect();
        let ownership: HashMap<u32, Vec<u32>> = [(1, vec![99]), (2, vec![99]), (3, vec![98])]
            .into_iter()
            .collect();
        let search = shorter_first(4);
        let mut scratch = SearchScratch::new();
        graph.take_dirty_edges();
        let mut drained = graph.generation();
        for round in 0..5u32 {
            for root in 0..4u32 {
                let shared =
                    search.find_traced_in(&mut scratch, &graph, root, &[98, 99], owns(&ownership));
                let fresh = fresh_search(search, &graph, root, &[98, 99], owns(&ownership));
                assert_eq!(shared, fresh, "root {root} round {round}");
            }
            let populated = scratch.snapshot_len();
            assert!(populated > 0);
            // Mutate and advance incrementally: only the touched provider's
            // snapshot is forgotten, everything else stays warm — and the
            // next round must still agree with fresh searches.
            graph.add_request(round + 4, 0, 40 + round);
            let to = graph.generation();
            scratch.advance(
                drained,
                to,
                graph
                    .take_dirty_edges()
                    .into_iter()
                    .map(|(provider, _, _)| (provider, true)),
            );
            drained = to;
            assert!(
                scratch.snapshot_len() >= populated - 2,
                "advance must only forget the changed provider"
            );
        }
        // A stale `from` generation must drop the whole snapshot, never
        // reuse it.
        scratch.advance(drained + 17, drained + 18, std::iter::empty());
        assert_eq!(scratch.snapshot_len(), 0);
    }

    #[test]
    fn scratches_are_send_and_move_across_threads() {
        // Compile-time guarantee backing the sweep fan-out, where a
        // `Simulation` (which owns a scratch) runs on or moves between sweep
        // threads: a scratch can move to a worker thread, search against a
        // shared graph there, and come back warm.
        fn assert_send<T: Send>(_: &T) {}
        let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(2, vec![99])].into_iter().collect();
        let search = shorter_first(4);
        let mut scratches: Vec<SearchScratch<u32, u32>> =
            (0..2).map(|_| SearchScratch::new()).collect();
        assert_send(&scratches[0]);
        let fresh = fresh_search(search, &graph, 0, &[99], owns(&ownership));
        std::thread::scope(|scope| {
            for scratch in &mut scratches {
                let (graph, ownership, fresh) = (&graph, &ownership, &fresh);
                scope.spawn(move || {
                    let shared = search.find_traced_in(scratch, graph, 0, &[99], owns(ownership));
                    assert_eq!(&shared, fresh);
                });
            }
        });
        // Both scratches come back warm and usable on this thread.
        for scratch in &mut scratches {
            assert!(scratch.snapshot_len() > 0);
            let again = search.find_traced_in(scratch, &graph, 0, &[99], owns(&ownership));
            assert_eq!(again, fresh);
        }
    }

    #[test]
    fn traced_search_with_no_wants_depends_only_on_the_root() {
        let graph: RequestGraph<u32, u32> = [(1, 0, 10)].into_iter().collect();
        let trace = fresh_search(shorter_first(5), &graph, 0, &[], |_: &u32, _: &u32| true);
        assert!(trace.rings.is_empty());
        assert_eq!(trace.deps, vec![0]);
    }

    #[test]
    fn provider_not_in_tree_is_not_a_ring() {
        // Peer 5 owns the wanted object but has no request path to the root.
        let graph: RequestGraph<u32, u32> = [(1, 0, 10)].into_iter().collect();
        let ownership: HashMap<u32, Vec<u32>> = [(5, vec![99])].into_iter().collect();
        let rings = fresh_search(shorter_first(5), &graph, 0, &[99], owns(&ownership)).rings;
        assert!(rings.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn arb_graph() -> impl Strategy<Value = RequestGraph<u8, u8>> {
            proptest::collection::vec((0u8..10, 0u8..10, 0u8..20), 0..60).prop_map(|edges| {
                edges
                    .into_iter()
                    .filter(|(r, p, _)| r != p)
                    .collect::<RequestGraph<u8, u8>>()
            })
        }

        /// Peers of the sparse-id property: `SPARSE_PEERS` ids spread out
        /// as `61·p + 5`, so they span many words of the search's bitsets
        /// and each search leaves most memo slots untouched.
        const SPARSE_PEERS: u32 = 24;

        fn sparse(peer: u32) -> u32 {
            61 * peer + 5
        }

        proptest! {
            /// One scratch reused across a sequence of traced searches on
            /// sparse ids returns exactly what a search in a fresh scratch
            /// does — and keeps doing so when (with `force`
            /// set) its memo stamp counter is forced near `u32::MAX` after
            /// the first few searches, so the memo clears itself on
            /// exhaustion while the low stamps those searches left behind
            /// are still live.
            #[test]
            fn reused_scratch_equals_fresh_searches_across_stamp_exhaustion(
                edges in proptest::collection::vec((0..SPARSE_PEERS, 0..SPARSE_PEERS, 0u32..30), 0..80),
                owned in proptest::collection::vec((0..SPARSE_PEERS, 0u32..30), 0..60),
                searches in proptest::collection::vec((0..SPARSE_PEERS, proptest::collection::vec(0u32..30, 0..5)), 4..12),
                max_ring in 2usize..6,
                force in proptest::bool::ANY,
                force_at in (1usize..4, 0u32..3),
            ) {
                let graph: RequestGraph<u32, u32> = edges
                    .into_iter()
                    .filter(|(r, p, _)| r != p)
                    .map(|(r, p, o)| (sparse(r), sparse(p), o))
                    .collect();
                let owned: BTreeSet<(u32, u32)> =
                    owned.into_iter().map(|(p, o)| (sparse(p), o)).collect();
                let provides = |p: &u32, o: &u32| owned.contains(&(*p, *o));
                let search = shorter_first(max_ring).with_fanout(4);
                let mut scratch = SearchScratch::new();
                for (index, (root, wants)) in searches.iter().enumerate() {
                    if force && index == force_at.0 {
                        scratch = scratch.with_stamp(u32::MAX - force_at.1);
                    }
                    let root = sparse(*root);
                    let warm = search.find_traced_in(&mut scratch, &graph, root, wants, provides);
                    let fresh = fresh_search(search, &graph, root, wants, provides);
                    prop_assert_eq!(warm, fresh);
                }
            }

            #[test]
            fn rings_satisfy_structural_invariants(
                graph in arb_graph(),
                root in 0u8..10,
                wants in proptest::collection::vec(0u8..20, 1..4),
                owned in proptest::collection::hash_map(0u8..10, proptest::collection::vec(0u8..20, 0..4), 0..10),
                longer in proptest::bool::ANY,
                max_ring in 2usize..6,
            ) {
                let search = if longer { longer_first(max_ring) } else { shorter_first(max_ring) };
                let provides = |p: &u8, o: &u8| owned.get(p).is_some_and(|objs| objs.contains(o));
                let rings = fresh_search(search, &graph, root, &wants, provides).rings;
                for ring in &rings {
                    // Bounded size, contains the root, all edges except the
                    // closing one correspond to existing requests.
                    prop_assert!(ring.len() >= 2 && ring.len() <= max_ring);
                    prop_assert!(ring.contains(&root));
                    let closing = ring.download_of(&root).unwrap();
                    prop_assert!(provides(&closing.uploader, &closing.object));
                    prop_assert!(wants.contains(&closing.object));
                    for edge in ring.edges() {
                        if edge.downloader != root {
                            prop_assert!(graph.has_request(edge.downloader, edge.uploader, edge.object));
                        }
                    }
                }
            }

            #[test]
            fn preference_ordering_is_respected(
                graph in arb_graph(),
                root in 0u8..10,
                wants in proptest::collection::vec(0u8..20, 1..4),
                owned in proptest::collection::hash_map(0u8..10, proptest::collection::vec(0u8..20, 0..4), 0..10),
            ) {
                let provides = |p: &u8, o: &u8| owned.get(p).is_some_and(|objs| objs.contains(o));
                let shorter = fresh_search(shorter_first(5), &graph, root, &wants, provides).rings;
                let longer = fresh_search(longer_first(5), &graph, root, &wants, provides).rings;
                prop_assert_eq!(shorter.len(), longer.len());
                for w in shorter.windows(2) {
                    prop_assert!(w[0].len() <= w[1].len());
                }
                for w in longer.windows(2) {
                    prop_assert!(w[0].len() >= w[1].len());
                }
            }
        }
    }
}
