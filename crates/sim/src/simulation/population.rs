//! Population dynamics: churn departures and rejoins, the scripted
//! catastrophic removal of the top providers, and flash-crowd object
//! releases.
//!
//! All three processes are first-class events on the same deterministic
//! timeline as the rest of the simulation:
//!
//! * **Churn** ([`crate::ChurnConfig`]) — every arrival opens a session
//!   whose length is an exponential draw from the dedicated `"churn"` RNG
//!   stream; the departure tears the peer out of every live structure and
//!   schedules a rejoin after an exponential downtime.  A rejoining peer
//!   keeps its stored objects (they re-enter the lookup index) and re-arms
//!   its request-generation chain.
//! * **Catastrophe** ([`crate::CatastropheConfig`]) — at the scripted time
//!   the `top_k` online sharing peers by uploaded bytes leave permanently
//!   (no rejoin is ever scheduled for them).
//! * **Flash crowd** ([`crate::FlashCrowdConfig`]) — at the scripted time a
//!   new object enters the catalog's most popular category, is seeded into
//!   a few holders, and a burst of sampled peers requests it at once.
//!
//! Every teardown path goes through the same invalidation machinery as the
//! organic mutations (graph dirty log, holders index, ring-candidate cache,
//! `world_epoch`), so cached runs stay bit-identical to uncached ones under
//! any population schedule.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use des::SimDuration;
use workload::{CategoryId, ObjectId, PeerId};

use crate::population::exp_draw_s;
use crate::SessionEnd;

use super::events::Event;
use super::{Simulation, TransferId};

impl Simulation {
    // ---- churn --------------------------------------------------------------

    /// Opens a churn session for `peer`: draws its length from the `"churn"`
    /// stream and schedules the departure.  A no-op without churn, consuming
    /// no randomness — churn-off runs stay bit-identical to the pre-churn
    /// engine.
    pub(super) fn schedule_departure(&mut self, peer: PeerId) {
        let Some(churn) = &self.config.churn else {
            return;
        };
        let mean_session_s = churn.mean_session_s;
        let session = exp_draw_s(&mut self.rng_churn, mean_session_s);
        self.engine
            .schedule_in(SimDuration::from_secs_f64(session), Event::Depart(peer));
    }

    /// A churning peer's session ends.  Stale events — the peer was already
    /// removed by a catastrophe — are no-ops, and deliberately do *not*
    /// schedule a rejoin: only the `Depart` of a live session continues the
    /// peer's on/off chain, so catastrophic departures stay permanent.
    pub(super) fn handle_depart(&mut self, peer: PeerId) {
        if !self.peer(peer).online {
            return;
        }
        self.depart_peer(peer);
        let Some(churn) = &self.config.churn else {
            return;
        };
        let mean_downtime_s = churn.mean_downtime_s;
        let downtime = exp_draw_s(&mut self.rng_churn, mean_downtime_s);
        self.engine
            .schedule_in(SimDuration::from_secs_f64(downtime), Event::Rejoin(peer));
    }

    /// A departed peer's downtime ends: it comes back with the objects it
    /// stored, re-enters the lookup index, re-arms request generation and
    /// maintenance, and opens its next churn session.
    pub(super) fn handle_rejoin(&mut self, peer: PeerId) {
        if self.peer(peer).online {
            return;
        }
        self.peers[peer.as_usize()].online = true;
        let stored: Vec<ObjectId> = self.peer(peer).storage.iter().collect();
        for object in stored {
            self.index_holding_gained(peer, object);
        }
        // No cached search can depend on an offline peer (it has no request
        // edges, so no BFS reaches it), but the whole-peer invalidation keeps
        // the cache provably exact rather than argued exact.
        self.ring_cache.invalidate_peer(peer);
        self.world_epoch += 1;
        // The store may sit over capacity from before the departure.
        self.schedule_maintenance_if_over_capacity(peer);
        self.generate_queued[peer.as_usize()] += 1;
        self.engine.schedule_now(Event::GenerateRequests(peer));
        self.schedule_departure(peer);
    }

    // ---- scripted scenarios -------------------------------------------------

    /// The scripted catastrophe: the `top_k` online sharing peers by uploaded
    /// bytes (ties to the lower peer id) leave permanently.
    pub(super) fn handle_catastrophe(&mut self) {
        let Some(cfg) = &self.config.catastrophe else {
            return;
        };
        let top_k = cfg.top_k;
        let mut ranked: Vec<PeerId> = self
            .peers
            .iter()
            .filter(|p| p.online && p.sharing)
            .map(|p| p.id)
            .collect();
        ranked.sort_by(|a, b| {
            let ua = self.peers[a.as_usize()].uploaded_bytes;
            let ub = self.peers[b.as_usize()].uploaded_bytes;
            ub.cmp(&ua).then(a.cmp(b))
        });
        ranked.truncate(top_k);
        for peer in ranked {
            // No rejoin is scheduled here, and the peer's pending churn
            // `Depart` (if any) no-ops against the offline flag without
            // continuing the chain — the removal is permanent.
            self.depart_peer(peer);
        }
    }

    /// The scripted flash crowd: a new object is released into the most
    /// popular category, seeded into the first online sharing peers, and a
    /// sampled burst of peers requests it immediately.  Organic popularity
    /// draws pick the object up from its (last) category rank afterwards.
    pub(super) fn handle_flash_crowd(&mut self) {
        let Some(cfg) = &self.config.flash_crowd else {
            return;
        };
        let requesters = cfg.requesters;
        let seed_holders = cfg.seed_holders;
        let size = self.config.workload.object_size_bytes;
        let object = self.catalog.release_object(CategoryId::new(0), size);
        self.holders.push(std::collections::BTreeSet::new());
        self.honest_holders.push(0);

        let seeds: Vec<PeerId> = self
            .peers
            .iter()
            .filter(|p| p.online && p.sharing)
            .take(seed_holders)
            .map(|p| p.id)
            .collect();
        for peer in seeds {
            self.peers[peer.as_usize()].storage.insert(object);
            self.index_holding_gained(peer, object);
            self.ring_cache.invalidate_holding(peer, object);
            self.schedule_maintenance_if_over_capacity(peer);
        }
        self.world_epoch += 1;

        let max_pending = self.config.max_pending_objects;
        let eligible: Vec<PeerId> = self
            .peers
            .iter()
            .filter(|p| p.online && !p.has_or_wants(object) && p.can_issue_request(max_pending))
            .map(|p| p.id)
            .collect();
        let burst: Vec<PeerId> = self
            .rng_churn
            .sample(&eligible, requesters)
            .into_iter()
            .copied()
            .collect();
        for requester in burst {
            self.issue_request(requester, object);
        }
    }

    // ---- teardown -----------------------------------------------------------

    /// Tears `peer` out of every live structure: its transfers end
    /// ([`SessionEnd::PeerDeparted`], dissolving any rings they were part
    /// of), its request-graph edges are withdrawn one by one (keeping the
    /// dirty log exact for the ring-candidate cache), its outstanding
    /// wants are dropped, and its holdings leave the lookup index.  The peer
    /// keeps its storage — a churn rejoin brings the objects back.
    fn depart_peer(&mut self, peer: PeerId) {
        // Flip the flag first: `end_transfer` consults it before re-arming
        // the departing uploader, and every gate downstream reads it.
        self.peers[peer.as_usize()].online = false;

        // End every session the peer is part of, at either end.
        let mut open: Vec<TransferId> =
            self.uploads_by_peer.get(&peer).cloned().unwrap_or_default();
        let wanted = self.peer(peer).wanted_objects();
        for object in &wanted {
            if let Some(tids) = self.downloads_by_want.get(&(peer, *object)) {
                open.extend(tids.iter().copied());
            }
        }
        open.sort_unstable();
        open.dedup();
        for tid in open {
            self.end_transfer(tid, SessionEnd::PeerDeparted);
        }

        // Withdraw the peer's outgoing requests (it no longer downloads) and
        // the requests directed at it (it no longer serves).  Both go through
        // the graph's per-edge removal so the dirty log stays exact.
        for object in &wanted {
            self.graph.remove_object_requests(peer, *object);
        }
        let incoming: Vec<(PeerId, ObjectId)> = self
            .graph
            .incoming(peer)
            .map(|r| (r.requester, r.object))
            .collect();
        for (requester, object) in incoming {
            self.graph.remove_request(requester, peer, object);
        }
        for object in &wanted {
            self.downloads_by_want.remove(&(peer, *object));
        }
        self.peers[peer.as_usize()].wants.clear();

        // The peer's holdings leave the lookup index; any middleman claim
        // that just lost its final honest source is withdrawn with them.
        let stored: Vec<ObjectId> = self.peer(peer).storage.iter().collect();
        for object in stored {
            self.index_holding_lost(peer, object);
            self.withdraw_unsourceable_middleman_claims(object);
        }

        self.ring_cache.invalidate_peer(peer);
        self.world_epoch += 1;
    }
}
