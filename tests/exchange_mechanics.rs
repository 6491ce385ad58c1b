//! Integration tests of the exchange mechanism itself across crates:
//! ring search against the request graph, the token protocol, and the
//! Section III-B countermeasures.

use p2p_exchange::des::DetRng;
use p2p_exchange::exchange::{
    find_rings, ExchangeRing, RequestGraph, RingPreference, RingToken, SearchPolicy,
};

/// Builds a reproducible random request graph over `peers` peers.
fn random_graph(peers: u32, edges: usize, seed: u64) -> RequestGraph<u32, u32> {
    let mut rng = DetRng::seed_from(seed);
    let mut graph = RequestGraph::new();
    while graph.len() < edges {
        let requester = rng.gen_range(0..peers);
        let provider = rng.gen_range(0..peers);
        if requester == provider {
            continue;
        }
        graph.add_request(requester, provider, rng.gen_range(0u32..300));
    }
    graph
}

/// Ownership oracle used across the tests: peer `p` owns object `o` iff
/// `(p + o)` is divisible by 7 — arbitrary but deterministic and sparse.
fn owns(p: &u32, o: &u32) -> bool {
    (p + o) % 7 == 0
}

#[test]
fn every_ring_found_is_internally_consistent_with_the_graph() {
    let graph = random_graph(40, 400, 1);
    let wants: Vec<u32> = (0..12).collect();
    for preference in [RingPreference::ShorterFirst, RingPreference::LongerFirst] {
        let policy = SearchPolicy::new(5, preference);
        for root in 0..40u32 {
            for ring in find_rings(&graph, root, &wants, owns, policy) {
                assert!(ring.contains(&root));
                assert!(ring.len() >= 2 && ring.len() <= 5);
                // Every edge except the closing one is a registered request.
                let closing = ring.download_of(&root).unwrap();
                assert!(owns(&closing.uploader, &closing.object));
                for edge in ring.edges() {
                    if edge.downloader != root {
                        assert!(graph.has_request(edge.downloader, edge.uploader, edge.object));
                    }
                }
            }
        }
    }
}

#[test]
fn token_circulation_visits_every_member_of_search_results() {
    let graph = random_graph(30, 300, 3);
    let wants: Vec<u32> = (0..30).collect();
    let policy = SearchPolicy::new(4, RingPreference::ShorterFirst);
    let mut circulated = 0;
    for root in 0..30u32 {
        for ring in find_rings(&graph, root, &wants, owns, policy) {
            let mut asked = Vec::new();
            let outcome = RingToken::new(root).circulate(&ring, |peer, edge| {
                assert_eq!(edge.uploader, *peer);
                asked.push(*peer);
                true
            });
            assert!(outcome.is_confirmed());
            let mut members = ring.members();
            members.sort_unstable();
            asked.sort_unstable();
            assert_eq!(members, asked);
            circulated += 1;
        }
    }
    assert!(circulated > 0, "the random graph should contain some rings");
}

#[test]
fn declined_member_blocks_activation_and_reports_position() {
    let graph: RequestGraph<u32, u32> = [(1, 0, 10), (2, 1, 20)].into_iter().collect();
    let rings = find_rings(
        &graph,
        0,
        &[99],
        |p, o| *p == 2 && *o == 99,
        SearchPolicy::new(5, RingPreference::ShorterFirst),
    );
    assert_eq!(rings.len(), 1);
    let ring: &ExchangeRing<u32, u32> = &rings[0];
    let outcome = RingToken::new(0).circulate(ring, |peer, _| *peer != 1);
    match outcome {
        p2p_exchange::exchange::TokenOutcome::Declined {
            peer,
            confirmed_before,
        } => {
            assert_eq!(peer, 1);
            assert_eq!(confirmed_before, 0);
        }
        p2p_exchange::exchange::TokenOutcome::Confirmed => panic!("peer 1 should have declined"),
    }
}

#[test]
fn windowed_validation_and_mediator_compose() {
    use p2p_exchange::exchange::cheat::{EncryptedBlock, Mediator, WindowedExchange};

    // Two peers exchange with windowed validation; every round is clean, so
    // the window opens up and the mediator releases keys to both.
    let mut a_side = WindowedExchange::new(64 * 1024, 4);
    let mut b_side = WindowedExchange::new(64 * 1024, 4);
    for _ in 0..3 {
        a_side.on_round_validated();
        b_side.on_round_validated();
    }
    assert_eq!(a_side.window(), 4);
    assert_eq!(b_side.window(), 4);

    let a_blocks: Vec<EncryptedBlock<u32>> = (0..4)
        .map(|_| EncryptedBlock {
            origin: 1,
            intended_recipient: 2,
            valid: true,
        })
        .collect();
    let b_blocks: Vec<EncryptedBlock<u32>> = (0..4)
        .map(|_| EncryptedBlock {
            origin: 2,
            intended_recipient: 1,
            valid: true,
        })
        .collect();
    let outcome = Mediator::new(2).mediate(&a_blocks, &b_blocks);
    assert!(outcome.can_decrypt(&1));
    assert!(outcome.can_decrypt(&2));
    assert!(!outcome.can_decrypt(&3));
    assert!(!outcome.cheating_detected);
}
