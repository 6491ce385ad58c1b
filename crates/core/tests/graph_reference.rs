//! Reference equivalence for the request graph.
//!
//! `Model` keeps the graph the plainest way: every peer's incoming and
//! outgoing queue as a `BTreeSet`, in a `BTreeMap` keyed by peer, with the
//! generation counter and dirty log beside them.  Random `add_request`,
//! `remove_request` and `remove_object_requests` calls drive the model and a
//! [`RequestGraph`] side by side; after every call the two must agree on the
//! call's return value, every per-peer queue in order, `len`, `has_request`,
//! `generation`, the dirty log (drained at random points through
//! `take_dirty_edges`), the edge iteration order, and equality with a graph
//! rebuilt from the model's edges.

use std::collections::{BTreeMap, BTreeSet};

use exchange::RequestGraph;
use proptest::prelude::*;
use proptest::TestCaseError;

const PEERS: u8 = 8;
const OBJECTS: u8 = 6;

type Queues = BTreeMap<u8, BTreeSet<(u8, u8)>>;

#[derive(Debug, Default)]
struct Model {
    /// provider -> (requester, object)
    incoming: Queues,
    /// requester -> (provider, object)
    outgoing: Queues,
    generation: u64,
    /// (provider, requester, object)
    dirty: BTreeSet<(u8, u8, u8)>,
}

impl Model {
    fn mark(&mut self, requester: u8, provider: u8, object: u8) {
        self.generation += 1;
        self.dirty.insert((provider, requester, object));
    }

    fn add_request(&mut self, requester: u8, provider: u8, object: u8) -> bool {
        let inserted = self
            .incoming
            .entry(provider)
            .or_default()
            .insert((requester, object));
        if inserted {
            self.outgoing
                .entry(requester)
                .or_default()
                .insert((provider, object));
            self.mark(requester, provider, object);
        }
        inserted
    }

    fn remove_request(&mut self, requester: u8, provider: u8, object: u8) -> bool {
        let removed = self
            .incoming
            .get_mut(&provider)
            .is_some_and(|queue| queue.remove(&(requester, object)));
        if removed {
            self.outgoing
                .get_mut(&requester)
                .expect("the outgoing side mirrors the incoming one")
                .remove(&(provider, object));
            self.mark(requester, provider, object);
        }
        removed
    }

    fn remove_object_requests(&mut self, requester: u8, object: u8) -> usize {
        let providers: Vec<u8> = self
            .outgoing
            .get(&requester)
            .into_iter()
            .flatten()
            .filter(|(_, o)| *o == object)
            .map(|(p, _)| *p)
            .collect();
        for &provider in &providers {
            self.remove_request(requester, provider, object);
        }
        providers.len()
    }

    fn queue(queues: &Queues, peer: u8) -> Vec<(u8, u8)> {
        queues
            .get(&peer)
            .map(|queue| queue.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Every edge as `(requester, provider, object)`, by provider first.
    fn edges(&self) -> Vec<(u8, u8, u8)> {
        self.incoming
            .iter()
            .flat_map(|(&p, queue)| queue.iter().map(move |&(r, o)| (r, p, o)))
            .collect()
    }
}

/// One drawn call: `((kind, drain), (requester, provider, object))`.
/// Kinds 0–2 add (so graphs fill up), 3 removes one request, 4 removes a
/// requester's requests for one object; `drain` drains the dirty log after
/// the call.
type Op = ((u8, bool), (u8, u8, u8));

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let call = (0u8..5, proptest::bool::ANY);
    let edge = (0u8..PEERS, 0u8..PEERS, 0u8..OBJECTS);
    proptest::collection::vec((call, edge), 0..120)
}

fn check(graph: &RequestGraph<u8, u8>, model: &Model) -> Result<(), TestCaseError> {
    for peer in 0..PEERS {
        prop_assert_eq!(
            graph.incoming(peer),
            &Model::queue(&model.incoming, peer)[..]
        );
        prop_assert_eq!(
            graph.outgoing(peer),
            &Model::queue(&model.outgoing, peer)[..]
        );
    }
    let edges = model.edges();
    prop_assert_eq!(graph.len(), edges.len());
    prop_assert_eq!(graph.is_empty(), edges.is_empty());
    for requester in 0..PEERS {
        for provider in 0..PEERS {
            for object in 0..OBJECTS {
                let expected = edges.contains(&(requester, provider, object));
                prop_assert_eq!(graph.has_request(requester, provider, object), expected);
            }
        }
    }
    let iterated: Vec<(u8, u8, u8)> = graph
        .iter()
        .map(|r| (r.requester, r.provider, r.object))
        .collect();
    prop_assert_eq!(&iterated, &edges);
    let rebuilt: RequestGraph<u8, u8> = edges.iter().copied().collect();
    prop_assert!(*graph == rebuilt, "equality must ignore mutation history");
    prop_assert_eq!(graph.generation(), model.generation);
    prop_assert_eq!(graph.dirty_edge_log(), &model.dirty);
    prop_assert_eq!(graph.has_dirty(), !model.dirty.is_empty());
    Ok(())
}

proptest! {
    #[test]
    fn dense_graph_equals_the_btree_model(ops in arb_ops()) {
        let mut graph: RequestGraph<u8, u8> = RequestGraph::new();
        let mut model = Model::default();
        for ((kind, drain), (requester, provider, object)) in ops {
            match kind {
                0..=2 if requester != provider => {
                    let got = graph.add_request(requester, provider, object);
                    prop_assert_eq!(got, model.add_request(requester, provider, object));
                }
                3 => {
                    let got = graph.remove_request(requester, provider, object);
                    prop_assert_eq!(got, model.remove_request(requester, provider, object));
                }
                4 => {
                    let got = graph.remove_object_requests(requester, object);
                    prop_assert_eq!(got, model.remove_object_requests(requester, object));
                }
                _ => {}
            }
            check(&graph, &model)?;
            if drain {
                prop_assert_eq!(graph.take_dirty_edges(), std::mem::take(&mut model.dirty));
                prop_assert!(!graph.has_dirty());
            }
        }
    }
}
