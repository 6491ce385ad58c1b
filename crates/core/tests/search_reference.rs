//! Reference equivalence for the ring search.
//!
//! `reference_search` is a deliberately naive copy of the ring search: it
//! probes the `provides` oracle for every popped node and every wanted
//! object, materialises every path, drops repeated rings through a hash set
//! of edge lists and sorts the whole BFS arena for `deps`.  The optimised
//! [`RingSearch`] must return exactly what it returns — the same rings in the
//! same order and the same `deps`/`edge_deps` — through `find_traced_in` in
//! a fresh scratch and in a warm scratch reused across random graph and
//! ownership mutations, while probing each (peer, object) pair at most once
//! per search.
//!
//! The reference also keeps the ring cap's stop rule in its plainest form:
//! a shorter-first search ends right after the pop whose rings bring the
//! count to the cap, and the sorted result is cut to the cap.  A capped
//! search must equal the capped reference, and its rings must be the first
//! rings of the uncapped search.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};

use exchange::{
    ExchangeRing, RequestGraph, RingEdge, RingPreference, RingSearch, SearchPolicy, SearchScratch,
    SearchTrace,
};
use proptest::prelude::*;

const PEERS: u8 = 10;
const OBJECTS: u8 = 90;

/// The knobs of one search, read by the reference and handed to the
/// optimised search alike.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    policy: SearchPolicy,
    budget: usize,
    fanout: usize,
    max_rings: usize,
}

impl Knobs {
    /// Uncapped knobs.
    fn new(policy: SearchPolicy, budget: usize, fanout: usize) -> Self {
        Knobs {
            policy,
            budget,
            fanout,
            max_rings: usize::MAX,
        }
    }

    /// The optimised search under these knobs.
    fn search(self) -> RingSearch {
        RingSearch::new(self.policy)
            .with_expansion_budget(self.budget)
            .with_fanout(self.fanout)
            .with_max_rings(self.max_rings)
    }
}

/// The search as a plain, unmemoised BFS over the graph's queues.
fn reference_search(
    graph: &RequestGraph<u8, u8>,
    root: u8,
    wants: &[u8],
    provides: impl Fn(&u8, &u8) -> bool,
    knobs: Knobs,
) -> SearchTrace<u8, u8> {
    let Knobs {
        policy,
        budget,
        fanout,
        max_rings,
    } = knobs;
    if wants.is_empty() {
        return SearchTrace {
            rings: Vec::new(),
            deps: vec![root],
            edge_deps: vec![root],
        };
    }
    const NO_PARENT: usize = usize::MAX;
    // (peer, object requested of its parent, parent index, depth)
    let mut arena: Vec<(u8, u8, usize, usize)> = graph
        .incoming(root)
        .iter()
        .map(|&(requester, object)| (requester, object, NO_PARENT, 1))
        .collect();
    let mut seen: HashSet<Vec<RingEdge<u8, u8>>> = HashSet::new();
    let mut found: Vec<(usize, ExchangeRing<u8, u8>)> = Vec::new();
    let mut edge_deps = vec![root];
    let mut budget = budget;
    let mut head = 0;
    while head < arena.len() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let (last_peer, _, _, depth) = arena[head];
        let mut path = Vec::new();
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
        for object in wants {
            if provides(&last_peer, object) {
                if let Ok(ring) = ring_from_path(root, &path, *object) {
                    if seen.insert(ring.edges().to_vec()) {
                        found.push((path.len() + 1, ring));
                    }
                }
            }
        }
        if policy.preference() == RingPreference::ShorterFirst && found.len() >= max_rings {
            break;
        }
        if depth < policy.max_depth() {
            edge_deps.push(last_peer);
            for &(peer, object) in graph.incoming(last_peer).iter().take(fanout) {
                if peer == root || path.iter().any(|(p, _)| *p == peer) {
                    continue;
                }
                arena.push((peer, object, head, depth + 1));
            }
        }
        head += 1;
    }
    match policy.preference() {
        RingPreference::ShorterFirst => found.sort_by_key(|(size, _)| *size),
        RingPreference::LongerFirst => found.sort_by_key(|(size, _)| Reverse(*size)),
    }
    found.truncate(max_rings);
    let mut deps: Vec<u8> = arena.iter().map(|(peer, _, _, _)| *peer).collect();
    deps.push(root);
    deps.sort_unstable();
    deps.dedup();
    edge_deps.sort_unstable();
    edge_deps.dedup();
    SearchTrace {
        rings: found.into_iter().map(|(_, ring)| ring).collect(),
        deps,
        edge_deps,
    }
}

fn ring_from_path(
    root: u8,
    path: &[(u8, u8)],
    closing_object: u8,
) -> Result<ExchangeRing<u8, u8>, exchange::RingError> {
    let mut edges = vec![RingEdge {
        uploader: root,
        downloader: path[0].0,
        object: path[0].1,
    }];
    for window in path.windows(2) {
        edges.push(RingEdge {
            uploader: window[0].0,
            downloader: window[1].0,
            object: window[1].1,
        });
    }
    edges.push(RingEdge {
        uploader: path[path.len() - 1].0,
        downloader: root,
        object: closing_object,
    });
    ExchangeRing::new(edges)
}

/// An ownership oracle that counts its probes.
struct CountingOracle<'a> {
    owned: &'a BTreeSet<(u8, u8)>,
    probes: RefCell<HashMap<(u8, u8), u32>>,
}

impl<'a> CountingOracle<'a> {
    fn new(owned: &'a BTreeSet<(u8, u8)>) -> Self {
        CountingOracle {
            owned,
            probes: RefCell::new(HashMap::new()),
        }
    }

    fn provides(&self, peer: &u8, object: &u8) -> bool {
        *self
            .probes
            .borrow_mut()
            .entry((*peer, *object))
            .or_default() += 1;
        self.owned.contains(&(*peer, *object))
    }

    /// The most often any one pair was probed since the last call.
    fn take_max_probes(&self) -> u32 {
        let mut probes = self.probes.borrow_mut();
        let max = probes.values().copied().max().unwrap_or(0);
        probes.clear();
        max
    }
}

/// SplitMix64, for the per-round draws of a case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn peer(&mut self) -> u8 {
        self.below(u64::from(PEERS)) as u8
    }

    fn object(&mut self) -> u8 {
        self.below(u64::from(OBJECTS)) as u8
    }

    /// A want list: empty, short, short with repeats, or longer than 64
    /// entries (most of them distinct, some repeated).
    fn wants(&mut self, graph: &RequestGraph<u8, u8>, root: u8) -> Vec<u8> {
        let len = match self.below(4) {
            0 => 0,
            1 => 1 + self.below(3),
            2 => 4 + self.below(8),
            _ => 65 + self.below(40),
        };
        let mut wants: Vec<u8> = (0..len).map(|_| self.object()).collect();
        if len > 0 && len < 12 {
            // Repeat an entry, and sometimes want an object someone already
            // requested of the root.
            let i = self.below(len) as usize;
            wants.push(wants[i]);
            if let Some(&(_, object)) = graph.incoming(root).first() {
                wants.push(object);
            }
        }
        wants
    }
}

const BUDGETS: [usize; 6] = [1, 2, 3, 17, 300, 2_000];
const FANOUTS: [usize; 5] = [1, 2, 3, 5, usize::MAX];

/// The policy of a drawn case.
fn policy(max_ring: usize, longer: bool) -> SearchPolicy {
    let preference = if longer {
        RingPreference::LongerFirst
    } else {
        RingPreference::ShorterFirst
    };
    SearchPolicy::new(max_ring, preference)
}

/// The graph of a drawn case.  Every request the root itself issued is a
/// path back to the root, which the search must never close through.
fn case_graph(edges: Vec<(u8, u8, u8)>) -> RequestGraph<u8, u8> {
    edges.into_iter().filter(|(r, p, _)| r != p).collect()
}

/// Mutates the graph and the ownership at random.
fn mutate(rng: &mut Rng, graph: &mut RequestGraph<u8, u8>, owned: &mut BTreeSet<(u8, u8)>) {
    for _ in 0..1 + rng.below(6) {
        let (r, p, o) = (rng.peer(), rng.peer(), rng.object());
        if r != p && !graph.remove_request(r, p, o) {
            graph.add_request(r, p, o);
        }
        let pair = (rng.peer(), rng.object());
        if !owned.remove(&pair) {
            owned.insert(pair);
        }
    }
}

proptest! {
    /// Half the cases cap the search at 1 to 10 rings.  A capped search
    /// must also list exactly the first rings of the uncapped search: the
    /// cap changes how many rings are listed, never which come first.
    #[test]
    fn optimised_search_equals_the_reference(
        edges in proptest::collection::vec((0u8..PEERS, 0u8..PEERS, 0u8..OBJECTS), 0..70),
        owned in proptest::collection::vec((0u8..PEERS, 0u8..OBJECTS), 0..200),
        max_ring in 2usize..7,
        knobs in (0usize..BUDGETS.len(), 0usize..FANOUTS.len(), proptest::bool::ANY),
        cap in (proptest::bool::ANY, 1usize..11),
        seed in 0u64..u64::MAX,
    ) {
        let uncapped = Knobs::new(policy(max_ring, knobs.2), BUDGETS[knobs.0], FANOUTS[knobs.1]);
        let knobs = if cap.0 { Knobs { max_rings: cap.1, ..uncapped } } else { uncapped };
        let search = knobs.search();
        let mut graph = case_graph(edges);
        let mut owned: BTreeSet<(u8, u8)> = owned.into_iter().collect();
        let mut rng = Rng(seed);
        let mut scratch = SearchScratch::new();
        for _ in 0..4 {
            for _ in 0..4 {
                let root = rng.peer();
                let wants = rng.wants(&graph, root);
                let plain_owned = |p: &u8, o: &u8| owned.contains(&(*p, *o));
                let expected = reference_search(&graph, root, &wants, plain_owned, knobs);
                let oracle = CountingOracle::new(&owned);
                let probe = |p: &u8, o: &u8| oracle.provides(p, o);

                let warm = search.find_traced_in(&mut scratch, &graph, root, &wants, probe);
                prop_assert!(oracle.take_max_probes() <= 1, "a (peer, object) pair was probed twice");
                prop_assert_eq!(&warm, &expected);
                let fresh =
                    search.find_traced_in(&mut SearchScratch::new(), &graph, root, &wants, probe);
                prop_assert!(oracle.take_max_probes() <= 1, "a (peer, object) pair was probed twice");
                prop_assert_eq!(&fresh, &expected);
                let all = uncapped
                    .search()
                    .find_traced_in(&mut SearchScratch::new(), &graph, root, &wants, plain_owned)
                    .rings;
                prop_assert_eq!(&fresh.rings[..], &all[..all.len().min(knobs.max_rings)]);
            }
            mutate(&mut rng, &mut graph, &mut owned);
        }
    }
}

#[test]
fn long_and_repeated_want_lists_match_the_reference() {
    // A fixed dense case: more than 64 wanted objects, every one of them
    // listed twice, and an oracle under which every peer closes rings.
    let graph: RequestGraph<u8, u8> = (0..PEERS)
        .flat_map(|r| (0..PEERS).map(move |p| (r, p, (r * 7 + p) % OBJECTS)))
        .filter(|(r, p, _)| r != p)
        .collect();
    let owned: BTreeSet<(u8, u8)> = (0..PEERS)
        .flat_map(|p| {
            (0..OBJECTS)
                .filter(move |o| (o + p) % 3 == 0)
                .map(move |o| (p, o))
        })
        .collect();
    let wants: Vec<u8> = (0..OBJECTS).chain(0..OBJECTS).collect();
    for longer in [false, true] {
        let knobs = Knobs::new(policy(4, longer), 300, 3);
        let expected = reference_search(&graph, 0, &wants, |p, o| owned.contains(&(*p, *o)), knobs);
        assert!(expected.rings.len() > 64);
        let oracle = CountingOracle::new(&owned);
        let fresh =
            knobs
                .search()
                .find_traced_in(&mut SearchScratch::new(), &graph, 0, &wants, |p, o| {
                    oracle.provides(p, o)
                });
        assert_eq!(oracle.take_max_probes(), 1);
        assert_eq!(fresh, expected);
    }
}

/// The order-preserving relabelling of the wide-id case: peers `0..PEERS`
/// become `13, 110, …, 886`, which fall in different 64-bit words of the
/// search's peer-indexed tables.
fn wide(peer: u8) -> u32 {
    97 * u32::from(peer) + 13
}

/// The inverse of [`wide`].
fn narrow(peer: u32) -> u8 {
    u8::try_from((peer - 13) / 97).expect("a relabelled peer")
}

/// `trace` with every peer relabelled by [`wide`].
fn widen(trace: &SearchTrace<u8, u8>) -> SearchTrace<u32, u8> {
    let rings = trace
        .rings
        .iter()
        .map(|ring| {
            let edges = ring
                .edges()
                .iter()
                .map(|e| RingEdge {
                    uploader: wide(e.uploader),
                    downloader: wide(e.downloader),
                    object: e.object,
                })
                .collect();
            ExchangeRing::new(edges).expect("relabelling keeps a ring a ring")
        })
        .collect();
    SearchTrace {
        rings,
        deps: trace.deps.iter().copied().map(wide).collect(),
        edge_deps: trace.edge_deps.iter().copied().map(wide).collect(),
    }
}

proptest! {
    /// The same random graphs, ownership and mutation scripts as
    /// `optimised_search_equals_the_reference`, run on peers relabelled by
    /// [`wide`]: the optimised search — fresh, and through a warm scratch
    /// reused across the mutations — must return the reference trace,
    /// relabelled.
    #[test]
    fn optimised_search_on_wide_ids_equals_the_relabelled_reference(
        edges in proptest::collection::vec((0u8..PEERS, 0u8..PEERS, 0u8..OBJECTS), 0..70),
        owned in proptest::collection::vec((0u8..PEERS, 0u8..OBJECTS), 0..200),
        max_ring in 2usize..7,
        knobs in (0usize..BUDGETS.len(), 0usize..FANOUTS.len(), proptest::bool::ANY),
        seed in 0u64..u64::MAX,
    ) {
        let knobs = Knobs::new(policy(max_ring, knobs.2), BUDGETS[knobs.0], FANOUTS[knobs.1]);
        let search = knobs.search();
        let mut graph: RequestGraph<u8, u8> =
            edges.into_iter().filter(|(r, p, _)| r != p).collect();
        let mut wide_graph: RequestGraph<u32, u8> = graph
            .iter()
            .map(|r| (wide(r.requester), wide(r.provider), r.object))
            .collect();
        let mut owned: BTreeSet<(u8, u8)> = owned.into_iter().collect();
        let mut rng = Rng(seed);
        let mut scratch = SearchScratch::new();
        for _ in 0..4 {
            for _ in 0..4 {
                let root = rng.peer();
                let wants = rng.wants(&graph, root);
                let plain_owned = |p: &u8, o: &u8| owned.contains(&(*p, *o));
                let expected = widen(&reference_search(&graph, root, &wants, plain_owned, knobs));
                let wide_owned = |p: &u32, o: &u8| owned.contains(&(narrow(*p), *o));
                let warm =
                    search.find_traced_in(&mut scratch, &wide_graph, wide(root), &wants, wide_owned);
                prop_assert_eq!(&warm, &expected);
                let fresh = search.find_traced_in(
                    &mut SearchScratch::new(),
                    &wide_graph,
                    wide(root),
                    &wants,
                    wide_owned,
                );
                prop_assert_eq!(&fresh, &expected);
            }
            for _ in 0..1 + rng.below(6) {
                let (r, p, o) = (rng.peer(), rng.peer(), rng.object());
                if r != p && !graph.remove_request(r, p, o) {
                    graph.add_request(r, p, o);
                }
                if r != p && !wide_graph.remove_request(wide(r), wide(p), o) {
                    wide_graph.add_request(wide(r), wide(p), o);
                }
                let pair = (rng.peer(), rng.object());
                if !owned.remove(&pair) {
                    owned.insert(pair);
                }
            }
        }
    }
}
