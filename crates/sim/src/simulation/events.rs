//! Event vocabulary, peer arrivals, request generation and storage
//! maintenance.
//!
//! The event load is *demand-driven* at 10⁵ peers:
//!
//! * arrivals are a chain — each [`Event::Arrive`] schedules the next peer's
//!   arrival, so the queue holds O(1) arrival entries instead of the old
//!   O(n) upfront stagger;
//! * request-generation retries only stay armed while the peer has spare
//!   request budget (a completed download re-arms generation directly), and
//!   a per-peer pending flag keeps retry cycles from multiplying;
//! * storage maintenance materialises lazily through the
//!   [`super::maintenance::MaintenanceSchedule`] timing wheel: an event
//!   exists only for peers actually over capacity, scheduled for exactly the
//!   boundary the per-peer-event baseline would have evicted at.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use des::SimDuration;
use workload::{ObjectId, PeerId};

use crate::WantState;

use super::Simulation;

/// Seconds between consecutive peers' arrivals (the historical stagger that
/// keeps peers from acting in lock-step at t = 0).
pub(super) const ARRIVAL_STAGGER_S: f64 = 0.25;

/// Everything that can happen in the discrete-event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A peer joins: its first request generation, chaining the next peer's
    /// arrival (on-demand staggering instead of O(n) upfront events).
    Arrive(PeerId),
    /// Top up a peer's outstanding requests.
    GenerateRequests(PeerId),
    /// Let a provider (re)fill its upload slots.
    TrySchedule(PeerId),
    /// One block of a transfer finished.
    BlockComplete(super::TransferId),
    /// Periodic storage-capacity enforcement at a peer.
    StorageMaintenance(PeerId),
    /// A churning peer's session ends: it leaves, tearing down everything it
    /// was part of (see [`super::population`]).
    Depart(PeerId),
    /// A departed peer's downtime ends: it comes back with its stored objects.
    Rejoin(PeerId),
    /// The scripted removal of the top-k providers
    /// ([`crate::CatastropheConfig`]).
    Catastrophe,
    /// A new object enters the catalog with a burst of requesters
    /// ([`crate::FlashCrowdConfig`]).
    FlashCrowd,
}

impl Simulation {
    // ---- arrivals -----------------------------------------------------------

    /// Peer `peer` arrives: schedule the next arrival of the chain, then act
    /// like its first `GenerateRequests` event.
    pub(super) fn handle_arrive(&mut self, peer: PeerId) {
        let next = peer.as_usize() + 1;
        if next < self.peers.len() {
            self.engine.schedule_at(
                des::SimTime::from_secs_f64(next as f64 * ARRIVAL_STAGGER_S),
                Event::Arrive(PeerId::new(next as u32)),
            );
        }
        // Under churn the arrival opens the peer's first session: draw its
        // length now and put the departure on the timeline.
        self.schedule_departure(peer);
        self.handle_generate_requests(peer);
    }

    // ---- request generation -------------------------------------------------

    pub(super) fn handle_generate_requests(&mut self, peer: PeerId) {
        // Arrivals call in directly without a queued event; saturate.
        let queued = &mut self.generate_queued[peer.as_usize()];
        *queued = queued.saturating_sub(1);
        // A departed peer generates nothing; its rejoin re-arms the chain.
        if !self.peer(peer).online {
            return;
        }
        let max_pending = self.config.max_pending_objects;
        let mut attempts = 0usize;
        // A peer never wants more objects than the catalog holds, so a
        // larger `max_pending_objects` only buys draws that cannot succeed.
        let attempt_budget = max_pending
            .min(self.catalog.num_objects())
            .saturating_mul(4);
        while self.peer(peer).can_issue_request(max_pending) && attempts < attempt_budget {
            attempts += 1;
            // The three sub-phases run back to back: each one's stop is
            // the next one's start, one clock read per boundary.
            let timer = self.profile_timer();
            let candidate = self.next_request_for(peer);
            let timer = self.add_elapsed(|p| &mut p.request_draw, timer);
            let Some(object) = candidate else { break };
            let providers = self.lookup_providers(peer, object);
            let timer = self.add_elapsed(|p| &mut p.provider_lookup, timer);
            self.register_request(peer, object, providers);
            self.add_elapsed(|p| &mut p.request_register, timer);
        }
        // Retry on demand: wants for which no provider was found, or spare
        // budget freed by abandoned lookups, get another chance — but a peer
        // whose budget is full has nothing to retry, and a completed
        // download re-arms generation immediately, so the retry cycle is
        // only kept alive while it can do work.  This is what keeps the
        // standing event count demand-driven instead of O(peers).
        if self.peer(peer).can_issue_request(max_pending) {
            self.schedule_generate_requests(
                peer,
                SimDuration::from_secs_f64(self.config.request_retry_interval_s),
            );
        }
    }

    /// Schedules a `GenerateRequests` event for `peer` after `delay`, unless
    /// one is already queued — the counter keeps the per-peer retry chain
    /// singular even when a completion's immediate regeneration overlaps a
    /// pending retry (the immediate pass then declines to re-arm, and the
    /// surviving retry event owns the chain).  Dedup is an event-count
    /// optimisation, not a correctness invariant: a redundant generation
    /// pass is a no-op (budget full → no RNG draws, no mutations).
    pub(super) fn schedule_generate_requests(&mut self, peer: PeerId, delay: SimDuration) {
        if self.generate_queued[peer.as_usize()] > 0 {
            return;
        }
        self.generate_queued[peer.as_usize()] = 1;
        self.engine
            .schedule_in(delay, Event::GenerateRequests(peer));
    }

    /// Draws `peer`'s next request: the paper's two-level draw (category by
    /// local preference, object by within-category power law), skipping
    /// objects the peer already holds or wants.
    fn next_request_for(&mut self, peer: PeerId) -> Option<ObjectId> {
        let state = &self.peers[peer.as_usize()];
        self.request_gen.next_request(
            &self.catalog,
            &state.interests,
            &mut self.rng_requests,
            |o| state.has_or_wants(o),
        )
    }

    /// Looks up providers for `object` and registers requests with them.
    pub(super) fn issue_request(&mut self, requester: PeerId, object: ObjectId) {
        let providers = self.lookup_providers(requester, object);
        self.register_request(requester, object, providers);
    }

    /// The providers `requester` sends its request for `object` to: a
    /// sample of at most `lookup_max_providers` of the peers advertising
    /// it, empty when nobody does.
    ///
    /// The lookup sees *advertised* holdings: every sharing peer that stores
    /// the object (honest or junk-serving — a requester cannot tell), plus
    /// any middleman that advertises it without storing it.  Middlemen only
    /// advertise objects some honest holder could source, so relayed content
    /// never materialises out of thin air.
    fn lookup_providers(&mut self, requester: PeerId, object: ObjectId) -> Vec<PeerId> {
        // The lookup index keeps the sharing holders of every object in
        // peer-id order (exactly the order the old full-population scan
        // produced), plus the honest-holder count middleman advertisements
        // hinge on — each request costs O(holders), not O(peers).
        let mut all_providers: Vec<PeerId> = self.holders[object.as_usize()]
            .iter()
            .copied()
            .filter(|p| *p != requester)
            .collect();
        // A requester never looks up an object it already stores, so the
        // honest-holder count needs no self-exclusion.
        let honest_source = self.honest_holders[object.as_usize()] > 0;
        if honest_source {
            let peers = &self.peers;
            // The advertiser list is static (behaviors are fixed per run);
            // departed middlemen drop out of lookups here.
            all_providers.extend(self.advertisers.iter().copied().filter(|p| {
                let state = &peers[p.as_usize()];
                *p != requester && state.online && !state.storage.contains(object)
            }));
        }
        if all_providers.is_empty() {
            return Vec::new(); // nothing to request from right now
        }
        self.rng_lookup
            .sample(&all_providers, self.config.lookup_max_providers)
            .into_iter()
            .copied()
            .collect()
    }

    /// Registers `requester`'s request for `object` with each of `chosen`
    /// that has room in its incoming queue, then records the want and
    /// wakes the schedulers it concerns.  A no-op when no provider accepts.
    fn register_request(&mut self, requester: PeerId, object: ObjectId, chosen: Vec<PeerId>) {
        let now = self.now();
        let mut registered = Vec::new();
        for provider in chosen {
            if self.graph.incoming(provider).len() >= self.config.irq_capacity {
                continue;
            }
            if self.graph.add_request(requester, provider, object) {
                registered.push(provider);
            }
        }
        if registered.is_empty() {
            return;
        }
        self.peer_mut(requester)
            .wants
            .insert(object, WantState::new(now));
        for provider in registered {
            self.engine.schedule_now(Event::TrySchedule(provider));
        }
        // The requester's own exchange opportunities changed too: it now has
        // one more want that a peer in its request tree might satisfy.
        if self.peer(requester).sharing {
            self.engine.schedule_now(Event::TrySchedule(requester));
        }
    }

    // ---- storage maintenance ------------------------------------------------

    /// Arms a maintenance event for `peer` at its next wheel boundary if the
    /// peer is over capacity and none is pending.  Call after anything that
    /// grows storage (a completed download) — the only way past capacity.
    pub(super) fn schedule_maintenance_if_over_capacity(&mut self, peer: PeerId) {
        // Offline stores are frozen: nothing is served from them, so nothing
        // needs evicting until the peer rejoins (which re-arms the wheel).
        if !self.peers[peer.as_usize()].online {
            return;
        }
        if !self.peers[peer.as_usize()].storage.over_capacity() {
            return;
        }
        if std::mem::replace(&mut self.maintenance_pending[peer.as_usize()], true) {
            return;
        }
        let due = self.maintenance.next_due(peer.as_usize(), self.now());
        self.engine
            .schedule_at(due, Event::StorageMaintenance(peer));
    }

    pub(super) fn handle_storage_maintenance(&mut self, peer: PeerId) {
        self.maintenance_pending[peer.as_usize()] = false;
        // The peer departed after this pass was armed; rejoin re-arms it.
        if !self.peer(peer).online {
            return;
        }
        // Objects currently being uploaded by this peer are pinned, as the
        // paper postpones removal of objects used in an ongoing exchange.
        let evicted = {
            let pinned = &self.uploads[peer.as_usize()];
            let state = &mut self.peers[peer.as_usize()];
            (state.storage).evict_over_capacity(&mut self.rng_storage, |o| {
                pinned.iter().any(|l| l.object == o)
            })
        };
        // Requests directed at this peer for evicted objects can no longer be
        // served here; withdraw them so the request graph stays truthful, and
        // drop cached ring candidates that relied on the peer holding exactly
        // these objects (entries that never probed them survive).
        for object in &evicted {
            self.index_holding_lost(peer, *object);
            self.ring_cache.invalidate_holding(peer, *object);
        }
        for object in evicted {
            let stale: Vec<PeerId> = self
                .graph
                .incoming(peer)
                .iter()
                .filter(|&&(_, o)| o == object)
                .map(|&(requester, _)| requester)
                .collect();
            for requester in stale {
                self.graph.remove_request(requester, peer, object);
            }
            self.withdraw_unsourceable_middleman_claims(object);
        }
        // Pinned uploads may have blocked eviction entirely; stay armed until
        // the store is actually back within capacity.  Otherwise the event
        // dematerialises — the next completed download re-arms the wheel.
        self.schedule_maintenance_if_over_capacity(peer);
    }

    /// `object` just lost a holder.  A middleman's advertisement is only as
    /// good as its source: if no honest holder remains anywhere, withdraw
    /// every request edge that backs a middleman's claim on the object, so
    /// relayed content never materialises out of thin air.  The withdrawals
    /// go through the graph's dirty set, which keeps the ring-candidate
    /// cache exact.
    pub(super) fn withdraw_unsourceable_middleman_claims(&mut self, object: ObjectId) {
        if self.honest_holders[object.as_usize()] > 0 {
            return;
        }
        let advertisers: Vec<PeerId> = self
            .advertisers
            .iter()
            .copied()
            .filter(|p| !self.peer(*p).storage.contains(object))
            .collect();
        for middleman in advertisers {
            let stale: Vec<PeerId> = self
                .graph
                .incoming(middleman)
                .iter()
                .filter(|&&(_, o)| o == object)
                .map(|&(requester, _)| requester)
                .collect();
            for requester in stale {
                self.graph.remove_request(requester, middleman, object);
            }
        }
    }
}
