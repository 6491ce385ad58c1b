//! Holder marks: which of one ring search's wanted objects each peer holds.
//!
//! A search probes thousands of peers per root and almost every probe
//! answers "no", while the wanted objects have only a few dozen holders
//! between them.  So before each fresh search the holders of the root's
//! distinct wants are marked once, from the `holders` index — the sharing,
//! online peers storing each object — and the storage half of
//! [`Simulation::claims`](super::Simulation::claims) becomes a mark lookup
//! (see [`Simulation::search_claims`](super::Simulation::search_claims)).

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use std::collections::BTreeSet;

use workload::{ObjectId, PeerId};

/// Which of one search's wanted objects each peer holds, marked from the
/// `holders` index.
///
/// Per peer it keeps a `(stamp, head)` pair: the peer was marked by the
/// current search iff its stamp equals the table's, and `head` then
/// indexes the first of its `(object, next)` links.  An unmarked peer is
/// rejected in O(1); a marked one walks only the wanted objects it holds.
/// The per-peer array is sized on the first search and, once warm, a
/// search allocates nothing.  When the stamp counter is exhausted the
/// table clears itself, so a stale stamp can never match a reissued one.
/// Like [`exchange::SearchScratch`] this is scratch state: never
/// serialized, and a cold table answers exactly like a warm one.
#[derive(Debug, Default)]
pub(super) struct HolderMarks {
    stamp: u32,
    heads: Vec<(u32, u32)>,
    links: Vec<(ObjectId, u32)>,
}

/// The end of a peer's link list.
const NO_LINK: u32 = u32::MAX;

impl HolderMarks {
    /// A table whose stamp counter is forced to `stamp`, so tests can run
    /// the clear-on-exhaustion path without four billion searches.
    #[cfg(test)]
    fn with_stamp(mut self, stamp: u32) -> Self {
        self.stamp = stamp;
        self
    }

    /// Starts a new search: marks the holders of every distinct object in
    /// `wants` among `num_peers` peers.
    pub(super) fn mark(
        &mut self,
        num_peers: usize,
        holders: &[BTreeSet<PeerId>],
        wants: &[ObjectId],
    ) {
        if self.stamp == u32::MAX {
            self.heads.fill((0, NO_LINK));
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.heads.len() < num_peers {
            self.heads.resize(num_peers, (0, NO_LINK));
        }
        self.links.clear();
        for (i, &object) in wants.iter().enumerate() {
            if wants.iter().take(i).any(|&seen| seen == object) {
                continue;
            }
            for peer in &holders[object.as_usize()] {
                let (stamp, head) = &mut self.heads[peer.as_usize()];
                let next = if *stamp == self.stamp { *head } else { NO_LINK };
                *stamp = self.stamp;
                *head = u32::try_from(self.links.len())
                    .expect("a search marks fewer than u32::MAX holder links");
                self.links.push((object, next));
            }
        }
    }

    /// Whether the current search marked `peer` as a holder of `object`.
    pub(super) fn holds(&self, peer: PeerId, object: ObjectId) -> bool {
        let Some(&(stamp, mut link)) = self.heads.get(peer.as_usize()) else {
            return false;
        };
        if stamp != self.stamp {
            return false;
        }
        while let Some(&(held, next)) = self.links.get(link as usize) {
            if held == object {
                return true;
            }
            link = next;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashSet};

    use proptest::collection::vec;
    use proptest::prelude::*;
    use workload::{ObjectId, PeerId};

    use super::HolderMarks;

    /// Peers in the property's population; holder lists draw from the
    /// first `PEERS` ids and the probes also ask a few ids past the end.
    /// Sparse enough that a search leaves many peers unmarked, so entries
    /// stamped by earlier searches stay live and a reissued stamp would
    /// collide with them.
    const PEERS: u32 = 120;

    proptest! {
        /// One table reused across a sequence of searches answers exactly
        /// like a naive `(peer, object)` set built from the same holder
        /// lists, for every peer and every wanted object — with repeated
        /// wants, more than 64 distinct wants, peers holding several wants,
        /// and (when `force` is set) a stamp counter forced near
        /// `u32::MAX` after the first few searches, so the table clears
        /// itself on exhaustion while the low stamps those searches left
        /// behind are still live.
        #[test]
        fn holder_marks_agree_with_a_naive_holder_set(
            holders in vec(vec(0..PEERS, 0..6), 1..200),
            searches in vec(vec(0usize..1_000, 0..150), 1..12),
            force in proptest::bool::ANY,
            force_at in (1usize..4, 0u32..3),
        ) {
            let holders: Vec<BTreeSet<PeerId>> = holders
                .iter()
                .map(|peers| peers.iter().map(|&p| PeerId::new(p)).collect())
                .collect();
            let mut marks = HolderMarks::default();
            for (index, wants) in searches.iter().enumerate() {
                if force && index == force_at.0 {
                    marks = marks.with_stamp(u32::MAX - force_at.1);
                }
                let wants: Vec<ObjectId> = wants
                    .iter()
                    .map(|&o| ObjectId::new((o % holders.len()) as u32))
                    .collect();
                let naive: HashSet<(PeerId, ObjectId)> = wants
                    .iter()
                    .flat_map(|&o| holders[o.as_usize()].iter().map(move |&p| (p, o)))
                    .collect();
                marks.mark(PEERS as usize, &holders, &wants);
                for peer in (0..PEERS + 4).map(PeerId::new) {
                    for &object in &wants {
                        prop_assert_eq!(
                            marks.holds(peer, object),
                            naive.contains(&(peer, object))
                        );
                    }
                }
            }
        }
    }
}
