//! Upload-slot scheduling: exchange-ring discovery and activation,
//! preemption, and the pluggable non-exchange fallback.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use credit::QueuedRequest;
use exchange::{ExchangeRing, RingSearch, RingToken, TokenOutcome};
use workload::{ObjectId, PeerId};

use crate::{SessionEnd, SessionKind};

use super::holder_marks::HolderMarks;
use super::transfers::TransferLink;
use super::Simulation;

impl Simulation {
    /// Fills `provider`'s upload slots: exchange rings first, then the
    /// non-exchange fallback, until neither makes progress.
    pub(super) fn handle_try_schedule(&mut self, provider: PeerId) {
        // A departed peer serves nobody; a stale TrySchedule queued before
        // its departure is a no-op.
        if !self.peer(provider).sharing || !self.peer(provider).online {
            return;
        }
        loop {
            let free_slot = self.peer(provider).upload_slots.has_free();
            let mut progressed = false;
            // The preemption probe runs only when no slot is free.
            if self.config.discipline.allows_exchange()
                && (free_slot || (self.config.preemption && self.has_preemptible_upload(provider)))
            {
                progressed = self.try_form_exchange(provider);
            }
            if !progressed && self.peer(provider).upload_slots.has_free() {
                progressed = self.serve_non_exchange(provider);
            }
            if !progressed {
                break;
            }
        }
    }

    pub(super) fn has_preemptible_upload(&self, uploader: PeerId) -> bool {
        self.serving(uploader).iter().any(|l| !l.is_exchange())
    }

    /// Attempts to discover and activate one exchange ring rooted at
    /// `provider`.  Returns `true` if a ring was activated.
    ///
    /// Candidate discovery goes through the [`super::RingCandidateCache`]
    /// when enabled: the last search's rings are reused verbatim until a
    /// graph or holdings delta touches a peer that search depended on, so
    /// repeated scheduling rounds at a quiet provider skip the BFS entirely.
    fn try_form_exchange(&mut self, provider: PeerId) -> bool {
        let Some(search) = self.ring_search() else {
            return false;
        };
        let wants = self.peer(provider).wanted_objects();
        if wants.is_empty() {
            return false;
        }
        let candidates: Vec<ExchangeRing<PeerId, ObjectId>> = if self.config.ring_candidate_cache {
            let timer = self.profile_timer();
            self.drain_graph_deltas();
            let cached = (self.ring_cache.lookup(provider, &wants)).map(<[_]>::to_vec);
            self.add_elapsed(|p| &mut p.cache_upkeep, timer);
            if let Some(candidates) = cached {
                candidates
            } else {
                let trace = self.search_rings(search, provider, &wants);
                let timer = self.profile_timer();
                let candidates = trace.rings.clone();
                self.ring_cache.store(provider, wants, trace);
                self.add_elapsed(|p| &mut p.cache_upkeep, timer);
                candidates
            }
        } else {
            // Nothing consumes the dirty log without the cache, but it is
            // discarded where the cached path drains it, so the log never
            // grows for the whole run.
            self.graph.take_dirty_edges();
            self.search_rings(search, provider, &wants).rings
        };
        for ring in &candidates {
            if self.activate_ring(provider, ring) {
                return true;
            }
        }
        false
    }

    /// Drains the request graph's dirty log into the ring-candidate cache,
    /// which drops only the entries whose search read a changed aspect.
    /// Edges back claims only for behaviors that advertise unstored objects;
    /// without middlemen in the population the probe-side pass is provably
    /// irrelevant.
    pub(super) fn drain_graph_deltas(&mut self) {
        let claims_read_edges = !self.advertisers.is_empty();
        self.ring_cache.drain_graph(
            &mut self.graph,
            self.config.ring_search_fanout,
            claims_read_edges,
        );
    }

    /// The run's ring search, or `None` if its discipline never searches:
    /// the discipline's policy under the configured budget and fanout,
    /// capped at `ring_attempts_per_schedule` rings.  The paper's peers
    /// take the first feasible exchange rather than probing every proposal,
    /// so a provider tries only that many candidates, and a shorter-first
    /// search stops once it has found them.  The scheduler and the audit
    /// both search through this one constructor.
    pub(super) fn ring_search(&self) -> Option<RingSearch> {
        let policy = self.config.discipline.search_policy()?;
        let search = RingSearch::new(policy)
            .with_expansion_budget(self.config.ring_search_budget)
            .with_fanout(self.config.ring_search_fanout)
            .with_max_rings(self.config.ring_attempts_per_schedule);
        Some(search)
    }

    /// Runs one fresh ring search rooted at `provider`, inside the
    /// simulation's shared [`exchange::SearchScratch`] so consecutive
    /// searches of a round reuse their buffers.
    ///
    /// A peer in the request tree can close a ring if it shares and *claims*
    /// an object the provider wants — its advertised holdings, which for a
    /// middleman exceed its real storage ([`Simulation::claims`]).  The
    /// search asks [`search_claims`](Self::search_claims): the holders of
    /// the provider's wants are marked once from the holders index, so each
    /// probe is a mark lookup instead of a storage lookup.  (Following the
    /// paper, the provider examines its pending requests against what the
    /// peers in its request tree advertise; it is not limited to the
    /// providers its own lookups sampled.)
    fn search_rings(
        &mut self,
        search: RingSearch,
        provider: PeerId,
        wants: &[ObjectId],
    ) -> exchange::SearchTrace<PeerId, ObjectId> {
        let timer = self.profile_timer();
        self.marks.mark(self.peers.len(), &self.holders, wants);
        // The scratch is lent out for the search, so the oracle can read
        // the rest of the simulation.
        let mut scratch = std::mem::take(&mut self.scratch);
        let trace = search.find_traced_in(
            &mut scratch,
            &self.graph,
            provider,
            wants,
            |peer, object| self.search_claims(&self.marks, *peer, *object),
        );
        self.scratch = scratch;
        self.add_elapsed(|p| &mut p.ring_search, timer);
        if let Some(profile) = &mut self.profile {
            profile.ring_searches += 1;
        }
        trace
    }

    /// The claims oracle of one ring search whose root's wants are marked in
    /// `marks`: equal to [`claims`](Self::claims) for every peer and every
    /// marked object (the audit checks this).  Only a middleman
    /// (`advertises[peer]`) still goes through `claims`, for its relay
    /// claims.
    pub(super) fn search_claims(
        &self,
        marks: &HolderMarks,
        peer: PeerId,
        object: ObjectId,
    ) -> bool {
        marks.holds(peer, object) || (self.advertises[peer.as_usize()] && self.claims(peer, object))
    }

    /// Whether `peer` could take on the upload described by `edge` as part of
    /// an exchange ring (the token-confirmation predicate).
    fn can_confirm_ring_member(
        &self,
        peer: PeerId,
        edge: &exchange::RingEdge<PeerId, ObjectId>,
    ) -> bool {
        if !self.claims(peer, edge.object) {
            return false;
        }
        let uploader = self.peer(peer);
        let slot_available = uploader.upload_slots.has_free()
            || (self.config.preemption && self.has_preemptible_upload(peer));
        if !slot_available {
            return false;
        }
        let downloader = self.peer(edge.downloader);
        if !downloader.download_slots.has_free() {
            return false;
        }
        if !downloader.wants.contains_key(&edge.object) {
            return false;
        }
        // An identical transfer already part of an exchange means this edge is
        // already served at exchange priority; re-forming it would double-count.
        !self.serves_in_exchange(peer, edge.downloader, edge.object)
    }

    /// Whether an exchange transfer already serves `object` from `uploader`
    /// to `downloader`.
    pub(super) fn serves_in_exchange(
        &self,
        uploader: PeerId,
        downloader: PeerId,
        object: ObjectId,
    ) -> bool {
        (self.serving(uploader).iter())
            .any(|l| l.peer == downloader && l.object == object && l.is_exchange())
    }

    /// Validates `ring` with a token pass and, if confirmed, activates it.
    fn activate_ring(&mut self, initiator: PeerId, ring: &ExchangeRing<PeerId, ObjectId>) -> bool {
        let token = RingToken::new(initiator);
        let timer = self.profile_timer();
        let outcome = token.circulate(ring, |peer, edge| self.can_confirm_ring_member(*peer, edge));
        self.add_elapsed(|p| &mut p.token_pass, timer);
        if let TokenOutcome::Declined { .. } = outcome {
            if self.measuring() {
                self.report.record_token_decline();
            }
            return false;
        }

        let ring_id = self.next_ring_id;
        self.next_ring_id += 1;
        let kind = SessionKind::Exchange {
            ring_size: ring.len(),
        };
        let mut created = Vec::new();
        for edge in ring.edges() {
            // Replace any ongoing low-priority transfer on the same edge, and
            // free a slot by preemption if the uploader is saturated.
            self.preempt_duplicate(edge.uploader, edge.downloader, edge.object);
            let slot_free = self.peer(edge.uploader).upload_slots.has_free()
                || (self.config.preemption && self.preempt_one_upload(edge.uploader));
            if !slot_free {
                break;
            }
            match self.start_transfer(
                edge.uploader,
                edge.downloader,
                edge.object,
                kind,
                Some(ring_id),
            ) {
                Some(tid) => created.push(tid),
                None => break,
            }
        }
        if created.len() != ring.len() {
            // A member became infeasible between confirmation and activation
            // (e.g. its slot was consumed while activating an earlier edge).
            // Distinct from a token decline: the ring passed validation and
            // fell apart while being wired up.
            for tid in created {
                self.end_transfer(tid, SessionEnd::RingDissolved);
            }
            if self.measuring() {
                self.report.record_ring_dissolved_at_activation();
            }
            return false;
        }
        self.rings
            .insert(ring_id, super::ActiveRing { transfers: created });
        if self.measuring() {
            self.report.record_ring(ring.len());
        }
        true
    }

    /// Ends a low-priority transfer on exactly this edge, if one is running.
    pub(super) fn preempt_duplicate(
        &mut self,
        uploader: PeerId,
        downloader: PeerId,
        object: ObjectId,
    ) {
        let duplicate = (self.serving(uploader).iter())
            .find(|l| l.peer == downloader && l.object == object && !l.is_exchange())
            .map(|l| l.id());
        if let Some(tid) = duplicate {
            self.end_transfer(tid, SessionEnd::Preempted);
            if self.measuring() {
                self.report.record_preemption();
            }
        }
    }

    /// Preempts the oldest (lowest-id) non-exchange upload of `uploader`,
    /// freeing a slot.
    pub(super) fn preempt_one_upload(&mut self, uploader: PeerId) -> bool {
        let victim = (self.serving(uploader).iter())
            .find(|l| !l.is_exchange())
            .map(|l| l.id());
        if let Some(tid) = victim {
            self.end_transfer(tid, SessionEnd::Preempted);
            if self.measuring() {
                self.report.record_preemption();
            }
            true
        } else {
            false
        }
    }

    /// Serves one non-exchange request at `provider`, if any is eligible.
    ///
    /// The queue is assembled afresh from the provider's incoming requests
    /// and handed to the run's [`credit::UploadScheduler`], which picks the
    /// winner; the simulation itself imposes no ordering policy.
    fn serve_non_exchange(&mut self, provider: PeerId) -> bool {
        let timer = self.profile_timer();
        let (queue, objects) = self.build_serve_queue(provider);
        self.add_elapsed(|p| &mut p.serve_queue, timer);
        if queue.is_empty() {
            return false;
        }
        let Some(index) = self.scheduler.pick(provider, &queue) else {
            return false;
        };
        let requester = queue
            .get(index)
            .expect("pick returns an index into the queue it was given")
            .requester;
        let object = *objects
            .get(index)
            .expect("serve queue keeps objects parallel to queue");
        self.start_transfer(provider, requester, object, SessionKind::NonExchange, None)
            .is_some()
    }

    /// The transfers `provider` is uploading right now, in ascending id
    /// order, each with its downloader, object and kind: at most one per
    /// upload slot, read in place from the upload index.
    pub(super) fn serving(&self, provider: PeerId) -> &[TransferLink] {
        &self.uploads[provider.as_usize()]
    }

    /// Assembles the eligible non-exchange queue at `provider`: the queued
    /// requests and, in parallel, the object each one asks for.  A request
    /// the provider already serves is skipped by a scan of its
    /// [`serving`](Self::serving) slice.
    fn build_serve_queue(&self, provider: PeerId) -> (Vec<QueuedRequest<PeerId>>, Vec<ObjectId>) {
        let provider_state = self.peer(provider);
        let needs_reciprocal = self.scheduler.needs_reciprocal();
        // The reciprocation flag costs a storage scan per queued request;
        // only compute it for schedulers that actually read it.
        let provider_wants = if needs_reciprocal {
            provider_state.wanted_objects()
        } else {
            Vec::new()
        };
        // The provider already serving the pair is by far the most common
        // reason an entry is ineligible, and the cheapest to test: its
        // uploads are one short slice.
        let serving = self.serving(provider);
        let now = self.now();
        let mut queue: Vec<QueuedRequest<PeerId>> = Vec::new();
        let mut objects: Vec<ObjectId> = Vec::new();
        for &(requester, object) in self.graph.incoming(provider) {
            if serving
                .iter()
                .any(|l| l.peer == requester && l.object == object)
            {
                continue;
            }
            let requester_state = self.peer(requester);
            let Some(want) = requester_state.wants.get(&object) else {
                continue;
            };
            // The provider must still claim the object.  This is `claims`
            // with its edge-existence scan elided: this IS an incoming edge
            // for exactly this object, so the capability probe alone decides,
            // and the queue rebuild stays O(queue) instead of O(queue²) at a
            // busy middleman.
            if !provider_state.storage.contains(object) && !self.advertises[provider.as_usize()] {
                continue;
            }
            if !requester_state.download_slots.has_free() {
                continue;
            }
            let reciprocal = needs_reciprocal
                && requester_state.sharing
                && provider_wants
                    .iter()
                    .any(|object| requester_state.storage.contains(*object));
            queue.push(
                QueuedRequest::new(
                    requester,
                    now.saturating_since(want.issued_at).as_secs_f64(),
                )
                .with_reciprocal(reciprocal)
                .with_participation(requester_state.announced_participation()),
            );
            objects.push(object);
        }
        (queue, objects)
    }
}
