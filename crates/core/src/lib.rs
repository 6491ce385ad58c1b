//! Exchange-based incentive mechanisms for peer-to-peer file sharing.
//!
//! This crate implements the core contribution of *"Exchange-Based Incentive
//! Mechanisms for Peer-to-Peer File Sharing"* (Anagnostakis & Greenwald,
//! ICDCS 2004): peers give upload priority to requests that are part of a
//! simultaneous, symmetric **exchange** — either a pairwise swap or an
//! *n-way ring* in which each peer serves its predecessor and is served by
//! its successor.
//!
//! The building blocks are:
//!
//! * [`RequestGraph`] — the directed graph of outstanding requests (an edge
//!   `R → P` labelled `o` means "R has asked P for object o").
//! * [`RingSearch`] / [`find_rings`] — discovery of feasible exchange rings
//!   through the provider, honouring a [`SearchPolicy`] (maximum ring size,
//!   shorter-first or longer-first preference).
//! * [`ExchangeRing`] — a validated ring of `(uploader, downloader, object)`
//!   edges.
//! * [`RingToken`] — the token circulation step that confirms every proposed
//!   member is still willing and able before the ring is activated.
//! * [`ExchangePolicy`] — the four disciplines evaluated in the paper
//!   (no exchange, pairwise only, prefer-longer `N-2-way`, prefer-shorter
//!   `2-N-way`).
//! * [`cheat`] — models of the cheating/middleman attacks of Section III-B
//!   and the block-validation / mediator countermeasures.
//! * [`mixed`] — the non-ring, mixed object-and-capacity exchange of
//!   Table I / Figure 3.
//!
//! All types are generic over the peer identifier `P` and object identifier
//! `O`; any `Copy + Eq + Ord + Hash + Debug` type works (the simulator uses
//! small integer newtypes).
//!
//! # Example: finding a 3-way ring
//!
//! ```
//! use exchange::{find_rings, RequestGraph, RingPreference, SearchPolicy};
//!
//! // Peer 1 asked peer 0 for object 10; peer 2 asked peer 1 for object 20.
//! let mut graph: RequestGraph<u32, u32> = RequestGraph::new();
//! graph.add_request(1, 0, 10);
//! graph.add_request(2, 1, 20);
//!
//! // Peer 0 wants object 30, which peer 2 happens to store.
//! let wants = [30u32];
//! let provides = |peer: &u32, object: &u32| *peer == 2 && *object == 30;
//!
//! let policy = SearchPolicy::new(5, RingPreference::ShorterFirst);
//! let rings = find_rings(&graph, 0, &wants, provides, policy);
//! assert_eq!(rings.len(), 1);
//! assert_eq!(rings[0].len(), 3); // a 3-way ring: 0 → 1 → 2 → 0
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cheat;
mod graph;
pub mod mixed;
mod policy;
mod ring;
mod search;
mod token;

pub use graph::{Request, RequestGraph};
pub use policy::{ExchangePolicy, RingPreference, SearchPolicy};
pub use ring::{ExchangeRing, RingEdge, RingError};
pub use search::{find_rings, FastHasher, FastState, RingSearch, SearchScratch, SearchTrace};
pub use token::{RingToken, TokenOutcome};

use std::fmt::Debug;
use std::hash::Hash;

/// Blanket bound for peer and object identifiers used throughout the crate.
///
/// Implemented automatically for every `Copy + Eq + Ord + Hash + Debug` type;
/// you never implement it by hand.
pub trait Key: Copy + Eq + Ord + Hash + Debug {}

impl<T: Copy + Eq + Ord + Hash + Debug> Key for T {}
