//! Exchange rings: validated cycles of simultaneous transfers.

use std::fmt;

use crate::Key;

/// One directed transfer inside an exchange ring: `uploader` serves `object`
/// to `downloader`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingEdge<P, O> {
    /// The peer uploading the object.
    pub uploader: P,
    /// The peer receiving the object.
    pub downloader: P,
    /// The object being transferred on this edge.
    pub object: O,
}

/// Error returned when a proposed ring is not a valid exchange cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// A ring needs at least two members (a pairwise exchange).
    TooSmall,
    /// A peer appears more than once in the ring.
    DuplicatePeer(String),
    /// The edges do not form a single closed cycle.
    NotACycle,
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::TooSmall => write!(f, "an exchange ring needs at least two peers"),
            RingError::DuplicatePeer(p) => write!(f, "peer {p} appears more than once in the ring"),
            RingError::NotACycle => write!(f, "the edges do not form a single closed cycle"),
        }
    }
}

impl std::error::Error for RingError {}

/// A feasible *n*-way exchange: a closed cycle of simultaneous transfers.
///
/// Every peer in the ring uploads exactly one object (to its predecessor in
/// the cycle of requests) and downloads exactly one object (from its
/// successor).  A ring of two peers is a pairwise exchange.
///
/// # Example
///
/// ```
/// use exchange::{ExchangeRing, RingEdge};
///
/// let ring = ExchangeRing::new(vec![
///     RingEdge { uploader: "bob", downloader: "alice", object: 1 },
///     RingEdge { uploader: "alice", downloader: "bob", object: 2 },
/// ]).unwrap();
/// assert!(ring.is_pairwise());
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.upload_of(&"alice").unwrap().object, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeRing<P: Key, O: Key> {
    edges: Vec<RingEdge<P, O>>,
}

impl<P: Key, O: Key> ExchangeRing<P, O> {
    /// Validates and wraps a list of edges as an exchange ring.
    ///
    /// The edges must form one closed cycle over distinct peers (in any
    /// order); they are stored in cycle order starting from the first edge.
    ///
    /// # Errors
    ///
    /// Returns a [`RingError`] describing why the edges are not a valid ring.
    pub fn new(mut edges: Vec<RingEdge<P, O>>) -> Result<Self, RingError> {
        // Rings are a handful of edges, so pairwise scans beat building sets
        // and the edges are re-ordered in place.
        let n = edges.len();
        if n < 2 {
            return Err(RingError::TooSmall);
        }
        for (i, e) in edges.iter().enumerate() {
            if edges[..i].iter().any(|f| f.uploader == e.uploader) {
                return Err(RingError::DuplicatePeer(format!("{:?}", e.uploader)));
            }
        }
        // The uploaders are distinct, so the downloaders are the same set of
        // peers exactly when they are distinct and each one uploads.
        for (i, e) in edges.iter().enumerate() {
            if edges[..i].iter().any(|f| f.downloader == e.downloader)
                || !edges.iter().any(|f| f.uploader == e.downloader)
            {
                return Err(RingError::NotACycle);
            }
        }

        // Re-order edges into cycle order starting from the first edge: each
        // next edge is the unplaced one whose uploader is the previous
        // downloader.  If that uploader's edge is already placed, the chain
        // closed early and the edges hold more than one cycle.
        for i in 1..n {
            let next = edges[i - 1].downloader;
            let j = (i..n)
                .find(|&j| edges[j].uploader == next)
                .ok_or(RingError::NotACycle)?;
            edges.swap(i, j);
        }
        if edges[n - 1].downloader != edges[0].uploader {
            return Err(RingError::NotACycle);
        }
        Ok(ExchangeRing { edges })
    }

    /// Number of peers (equivalently, edges) in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Exchange rings are never empty; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether this is a 2-way (pairwise) exchange.
    #[must_use]
    pub fn is_pairwise(&self) -> bool {
        self.edges.len() == 2
    }

    /// The edges in cycle order.
    #[must_use]
    pub fn edges(&self) -> &[RingEdge<P, O>] {
        &self.edges
    }

    /// The distinct peers participating in the ring, in cycle order starting
    /// from the first edge's uploader.
    #[must_use]
    pub fn members(&self) -> Vec<P> {
        self.edges.iter().map(|e| e.uploader).collect()
    }

    /// Whether `peer` participates in the ring.
    #[must_use]
    pub fn contains(&self, peer: &P) -> bool {
        self.edges.iter().any(|e| e.uploader == *peer)
    }

    /// The edge on which `peer` uploads, if it is a member.
    #[must_use]
    pub fn upload_of(&self, peer: &P) -> Option<RingEdge<P, O>> {
        self.edges.iter().copied().find(|e| e.uploader == *peer)
    }

    /// The edge on which `peer` downloads, if it is a member.
    #[must_use]
    pub fn download_of(&self, peer: &P) -> Option<RingEdge<P, O>> {
        self.edges.iter().copied().find(|e| e.downloader == *peer)
    }
}

impl<P: Key, O: Key> fmt::Display for ExchangeRing<P, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-way ring:", self.len())?;
        for e in &self.edges {
            write!(f, " {:?}-[{:?}]->{:?}", e.uploader, e.object, e.downloader)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(u: u32, d: u32, o: u32) -> RingEdge<u32, u32> {
        RingEdge {
            uploader: u,
            downloader: d,
            object: o,
        }
    }

    #[test]
    fn pairwise_ring_is_valid() {
        let ring = ExchangeRing::new(vec![edge(1, 2, 10), edge(2, 1, 20)]).unwrap();
        assert!(ring.is_pairwise());
        assert_eq!(ring.members(), vec![1, 2]);
        assert!(ring.contains(&1));
        assert!(!ring.contains(&3));
        assert_eq!(ring.upload_of(&2).unwrap().object, 20);
        assert_eq!(ring.download_of(&2).unwrap().object, 10);
    }

    #[test]
    fn three_way_ring_orders_edges_into_cycle() {
        // Provide edges out of cycle order; constructor should order them.
        let ring = ExchangeRing::new(vec![edge(1, 2, 10), edge(3, 1, 30), edge(2, 3, 20)]).unwrap();
        assert_eq!(ring.len(), 3);
        let members = ring.members();
        assert_eq!(members[0], 1);
        // Following the cycle: 1 uploads to 2, 2 uploads to 3, 3 uploads to 1.
        assert_eq!(ring.edges()[0].downloader, 2);
        assert_eq!(ring.edges()[1].uploader, 2);
        assert_eq!(ring.edges()[2].downloader, 1);
    }

    #[test]
    fn every_member_uploads_and_downloads_once() {
        let ring = ExchangeRing::new(vec![edge(1, 2, 10), edge(2, 3, 20), edge(3, 1, 30)]).unwrap();
        for p in ring.members() {
            assert!(ring.upload_of(&p).is_some());
            assert!(ring.download_of(&p).is_some());
        }
    }

    #[test]
    fn single_edge_is_too_small() {
        assert_eq!(
            ExchangeRing::new(vec![edge(1, 2, 10)]).unwrap_err(),
            RingError::TooSmall
        );
        assert_eq!(
            ExchangeRing::<u32, u32>::new(vec![]).unwrap_err(),
            RingError::TooSmall
        );
        // A self-loop is no cycle of peers either, but size is checked first.
        assert_eq!(
            ExchangeRing::new(vec![edge(1, 1, 10)]).unwrap_err(),
            RingError::TooSmall
        );
    }

    #[test]
    fn duplicate_uploader_is_rejected() {
        let err =
            ExchangeRing::new(vec![edge(1, 2, 10), edge(1, 3, 11), edge(3, 1, 12)]).unwrap_err();
        assert_eq!(err, RingError::DuplicatePeer("1".to_string()));
        // The first uploader to repeat in edge order is named: 2 repeats at
        // edge 2, before 5 repeats at edge 3.  The edges are no cycle either,
        // but the duplicate is reported first.
        let err = ExchangeRing::new(vec![
            edge(5, 2, 10),
            edge(2, 5, 11),
            edge(2, 7, 12),
            edge(5, 7, 13),
        ])
        .unwrap_err();
        assert_eq!(err, RingError::DuplicatePeer("2".to_string()));
    }

    #[test]
    fn disconnected_edges_are_rejected() {
        // Two 2-cycles glued together are not a single cycle.
        let err = ExchangeRing::new(vec![
            edge(1, 2, 10),
            edge(2, 1, 11),
            edge(3, 4, 12),
            edge(4, 3, 13),
        ])
        .unwrap_err();
        assert_eq!(err, RingError::NotACycle);
        // Nor is a 3-cycle through the first edge interleaved with a 2-cycle.
        let err = ExchangeRing::new(vec![
            edge(1, 2, 10),
            edge(4, 5, 11),
            edge(2, 3, 12),
            edge(5, 4, 13),
            edge(3, 1, 14),
        ])
        .unwrap_err();
        assert_eq!(err, RingError::NotACycle);
    }

    #[test]
    fn open_chain_is_rejected() {
        // Uploaders {1, 2} differ from downloaders {2, 3}.
        let err = ExchangeRing::new(vec![edge(1, 2, 10), edge(2, 3, 11)]).unwrap_err();
        assert_eq!(err, RingError::NotACycle);
    }

    #[test]
    fn dangling_edge_is_rejected() {
        // Peer 3 uploads into the 1 <-> 2 cycle, so peer 1 downloads twice.
        let err =
            ExchangeRing::new(vec![edge(1, 2, 10), edge(2, 1, 11), edge(3, 1, 12)]).unwrap_err();
        assert_eq!(err, RingError::NotACycle);
    }

    #[test]
    fn shuffled_edges_come_back_in_cycle_order_from_the_first_edge() {
        // The 6-cycle 1 -> 2 -> ... -> 6 -> 1, fed in several edge orders.
        let cycle: Vec<RingEdge<u32, u32>> = (1..=6).map(|p| edge(p, p % 6 + 1, 10 * p)).collect();
        for order in [
            [0, 1, 2, 3, 4, 5],
            [3, 5, 0, 2, 4, 1],
            [5, 4, 3, 2, 1, 0],
            [2, 0, 4, 1, 5, 3],
        ] {
            let shuffled: Vec<_> = order.iter().map(|&i| cycle[i]).collect();
            let ring = ExchangeRing::new(shuffled.clone()).unwrap();
            let start = order[0];
            let expected: Vec<_> = (0..6).map(|k| cycle[(start + k) % 6]).collect();
            assert_eq!(ring.edges(), expected.as_slice(), "order {order:?}");
        }
    }

    #[test]
    fn display_mentions_size() {
        let ring = ExchangeRing::new(vec![edge(1, 2, 10), edge(2, 1, 20)]).unwrap();
        assert!(ring.to_string().starts_with("2-way ring:"));
    }
}
