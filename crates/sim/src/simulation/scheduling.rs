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
use super::Simulation;

/// The non-exchange request queue assembled for one provider, reused across
/// iterations of the scheduling loop as long as its validity stamps still
/// match.
///
/// Reuse is tiered by what actually moved since the queue was built:
///
/// * nothing (`transfer_epoch` equal) — reuse verbatim;
/// * only transfer **starts** (`transfer_end_epoch`, `generation` and
///   `world_epoch` equal, `transfer_epoch` moved) — patch in place:
///   under starts-only drift the eligible entry set can only *shrink*
///   (download slots fill, `already_serving` pairs appear), so dropping the
///   newly ineligible entries is provably identical to a full rebuild;
/// * anything else (a transfer ended, a request edge changed, storage or
///   claims moved) — rebuild from scratch.
///
/// In the scheduling loop only the transfer epochs can actually move
/// between iterations; the graph stamps are insurance that keeps a future
/// graph-mutating scheduling step from silently replaying a stale queue.
///
/// Neither building nor patching probes a hashed index per entry: the
/// "already served by this provider" test — the condition that rejects
/// most entries — runs against the `(downloader, object)` pairs of the
/// provider's own uploads, collected once per build or patch.
struct ServeQueue {
    queue: Vec<QueuedRequest<PeerId>>,
    objects: Vec<ObjectId>,
    transfer_epoch: u64,
    transfer_end_epoch: u64,
    generation: u64,
    world_epoch: u64,
}

impl Simulation {
    /// Fills `provider`'s upload slots: exchange rings first, then the
    /// non-exchange fallback, until neither makes progress.
    pub(super) fn handle_try_schedule(&mut self, provider: PeerId) {
        // A departed peer serves nobody; a stale TrySchedule queued before
        // its departure is a no-op.
        if !self.peer(provider).sharing || !self.peer(provider).online {
            return;
        }
        let mut serve_queue = None;
        loop {
            let free_slot = self.peer(provider).upload_slots.has_free();
            let can_preempt = self.config.preemption && self.has_preemptible_upload(provider);
            let mut progressed = false;

            if self.config.discipline.allows_exchange() && (free_slot || can_preempt) {
                progressed = self.try_form_exchange(provider);
            }
            if !progressed && self.peer(provider).upload_slots.has_free() {
                progressed = self.serve_non_exchange(provider, &mut serve_queue);
            }
            if !progressed {
                break;
            }
        }
    }

    pub(super) fn has_preemptible_upload(&self, uploader: PeerId) -> bool {
        self.uploads_by_peer.get(&uploader).is_some_and(|tids| {
            tids.iter().any(|tid| {
                self.transfers
                    .get(tid)
                    .is_some_and(|t| !t.kind.is_exchange())
            })
        })
    }

    /// Attempts to discover and activate one exchange ring rooted at
    /// `provider`.  Returns `true` if a ring was activated.
    ///
    /// Candidate discovery goes through the [`super::RingCandidateCache`]
    /// when enabled: the last search's rings are reused verbatim until a
    /// graph or holdings delta touches a peer that search depended on, so
    /// repeated scheduling rounds at a quiet provider skip the BFS entirely.
    fn try_form_exchange(&mut self, provider: PeerId) -> bool {
        let Some(policy) = self.config.discipline.search_policy() else {
            return false;
        };
        let wants = self.peer(provider).wanted_objects();
        if wants.is_empty() {
            return false;
        }
        // Try only a handful of candidates: the paper's peers pick the first
        // feasible exchange rather than exhaustively probing every proposal.
        let attempts = self.config.ring_attempts_per_schedule;
        let candidates: Vec<ExchangeRing<PeerId, ObjectId>> = if self.config.ring_candidate_cache {
            let timer = self.profile_timer();
            self.drain_graph_deltas();
            let cached = (self.ring_cache.lookup(provider, &wants))
                .map(|rings| rings.iter().take(attempts).cloned().collect());
            Self::add_elapsed(&self.cache_upkeep_nanos, timer);
            if let Some(candidates) = cached {
                candidates
            } else {
                let trace = self.search_rings(policy, provider, &wants);
                let timer = self.profile_timer();
                let candidates = trace.rings.iter().take(attempts).cloned().collect();
                self.ring_cache.store(provider, wants, trace);
                Self::add_elapsed(&self.cache_upkeep_nanos, timer);
                candidates
            }
        } else {
            let mut rings = self.search_rings(policy, provider, &wants).rings;
            rings.truncate(attempts);
            rings
        };
        for ring in &candidates {
            if self.activate_ring(provider, ring) {
                return true;
            }
        }
        false
    }

    /// Drains the request graph's dirty log into the ring-candidate cache
    /// and the search scratch.
    ///
    /// The `(provider, object)` edge log drives both consumers: the cache
    /// drops only the entries whose search read a changed aspect, and the
    /// scratch's adjacency snapshot *advances* — forgetting only the queues
    /// that actually changed, so hub peers' materialised queues stay warm
    /// across mutations.
    pub(super) fn drain_graph_deltas(&mut self) {
        if !self.graph.has_dirty() {
            return;
        }
        let edges = self.graph.take_dirty_edges();
        let to = self.graph.generation();
        // Edges back claims only for behaviors that advertise unstored
        // objects; without middlemen in the population the whole probe-side
        // pass is provably irrelevant.
        let edges_back_claims = !self.advertisers.is_empty();
        let mut scratch_updates: Vec<(PeerId, bool)> = Vec::new();
        for &(provider, requester, object) in &edges {
            if scratch_updates.last().map(|(p, _)| *p) != Some(provider) {
                // First — therefore smallest — changed edge of this
                // provider's group: every queue entry sorting before it is
                // untouched by the whole batch, so the fanout-bounded prefix
                // interior expansions read survives iff `fanout` untouched
                // entries precede it.
                let prefix_changed = self.edge_in_search_prefix(provider, requester, object);
                if prefix_changed {
                    self.ring_cache.invalidate_edge_readers(provider);
                } else {
                    self.ring_cache.invalidate_root(provider);
                }
                scratch_updates.push((provider, prefix_changed));
            }
            if edges_back_claims {
                // Claim probes scan the whole queue; prefix position is
                // irrelevant to them.
                self.ring_cache.invalidate_holding(provider, object);
            }
        }
        self.scratch
            .advance(self.drained_generation, to, scratch_updates);
        self.drained_generation = to;
    }

    /// Whether fewer than `ring_search_fanout` entries of `provider`'s
    /// current incoming queue sort before the changed edge
    /// `(requester, object)` — i.e. whether the change can reach the queue
    /// prefix a depth-limited search expands.  Entries before the edge are
    /// unaffected by adding or removing it, so `fanout` of them shield the
    /// prefix entirely.
    fn edge_in_search_prefix(&self, provider: PeerId, requester: PeerId, object: ObjectId) -> bool {
        let fanout = self.config.ring_search_fanout;
        let mut smaller = 0usize;
        for req in self.graph.incoming(provider) {
            if (req.requester, req.object) >= (requester, object) {
                break;
            }
            smaller += 1;
            if smaller >= fanout {
                return false;
            }
        }
        true
    }

    /// Runs one fresh ring search rooted at `provider`, inside the
    /// simulation's shared [`exchange::SearchScratch`] so consecutive
    /// searches of a round reuse their buffers and adjacency snapshot.
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
        policy: exchange::SearchPolicy,
        provider: PeerId,
        wants: &[ObjectId],
    ) -> exchange::SearchTrace<PeerId, ObjectId> {
        let timer = self.profile_timer();
        self.marks.mark(self.peers.len(), &self.holders, wants);
        // The scratch is lent out for the search, so the oracle can read
        // the rest of the simulation.
        let mut scratch = std::mem::take(&mut self.scratch);
        let trace = RingSearch::new(policy)
            .with_expansion_budget(self.config.ring_search_budget)
            .with_fanout(self.config.ring_search_fanout)
            .find_traced_in(
                &mut scratch,
                &self.graph,
                provider,
                wants,
                |peer, object| self.search_claims(&self.marks, *peer, *object),
            );
        self.scratch = scratch;
        if timer.is_some() {
            Self::add_elapsed(&self.ring_search_nanos, timer);
            self.ring_searches.set(self.ring_searches.get() + 1);
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
        let duplicate_exchange = self
            .downloads_by_want
            .get(&(edge.downloader, edge.object))
            .is_some_and(|tids| {
                tids.iter().any(|tid| {
                    self.transfers
                        .get(tid)
                        .is_some_and(|t| t.uploader == peer && t.kind.is_exchange())
                })
            });
        !duplicate_exchange
    }

    /// Validates `ring` with a token pass and, if confirmed, activates it.
    fn activate_ring(&mut self, initiator: PeerId, ring: &ExchangeRing<PeerId, ObjectId>) -> bool {
        let token = RingToken::new(initiator);
        let timer = self.profile_timer();
        let outcome = token.circulate(ring, |peer, edge| self.can_confirm_ring_member(*peer, edge));
        Self::add_elapsed(&self.token_pass_nanos, timer);
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
    fn preempt_duplicate(&mut self, uploader: PeerId, downloader: PeerId, object: ObjectId) {
        let duplicate = self
            .downloads_by_want
            .get(&(downloader, object))
            .into_iter()
            .flatten()
            .copied()
            .find(|tid| {
                self.transfers
                    .get(tid)
                    .is_some_and(|t| t.uploader == uploader && !t.kind.is_exchange())
            });
        if let Some(tid) = duplicate {
            self.end_transfer(tid, SessionEnd::Preempted);
            if self.measuring() {
                self.report.record_preemption();
            }
        }
    }

    /// Preempts one arbitrary non-exchange upload of `uploader`, freeing a slot.
    fn preempt_one_upload(&mut self, uploader: PeerId) -> bool {
        let victim = self
            .uploads_by_peer
            .get(&uploader)
            .into_iter()
            .flatten()
            .copied()
            .find(|tid| {
                self.transfers
                    .get(tid)
                    .is_some_and(|t| !t.kind.is_exchange())
            });
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
    /// The queue is assembled from the provider's incoming requests and
    /// handed to the configured [`credit::UploadScheduler`], which picks the
    /// winner; the simulation itself imposes no ordering policy.
    ///
    /// The assembled queue is kept in `cached` between iterations of the
    /// scheduling loop.  It is reused verbatim while no transfer started or
    /// ended since it was built; when only transfer *starts* intervened
    /// (the epoch taxonomy [`ServeQueue`] documents) it is patched in place
    /// instead of rebuilt.
    fn serve_non_exchange(&mut self, provider: PeerId, cached: &mut Option<ServeQueue>) -> bool {
        let timer = self.profile_timer();
        let reusable = matches!(cached, Some(sq) if sq.generation == self.graph.generation()
            && sq.world_epoch == self.world_epoch
            && sq.transfer_end_epoch == self.transfer_end_epoch);
        match cached.as_mut() {
            Some(sq) if reusable && sq.transfer_epoch == self.transfer_epoch => {}
            Some(sq) if reusable => self.patch_serve_queue(provider, sq),
            _ => *cached = Some(self.build_serve_queue(provider)),
        }
        Self::add_elapsed(&self.serve_queue_nanos, timer);
        let sq = cached.as_mut().expect("serve queue was just built");
        if sq.queue.is_empty() {
            return false;
        }
        let Some(index) = self.scheduler.pick(provider, &sq.queue) else {
            return false;
        };
        if index >= sq.queue.len() {
            // A custom scheduler returned a nonsense index; treat the slot as
            // idle rather than panicking the whole run.
            debug_assert!(
                false,
                "scheduler {} picked index {index} from a queue of {}",
                self.scheduler.label(),
                sq.queue.len()
            );
            return false;
        }
        let requester = sq
            .queue
            .get(index)
            .expect("pick index validated against queue length above")
            .requester;
        let object = *sq
            .objects
            .get(index)
            .expect("serve queue keeps objects parallel to queue");
        // A successful serve bumps only `transfer_epoch`; the next loop
        // iteration's stamp check patches the queue lazily — there is no
        // next iteration to pay for when the serve failed or the loop ends.
        self.start_transfer(provider, requester, object, SessionKind::NonExchange, None)
            .is_some()
    }

    /// Brings a starts-only-stale [`ServeQueue`] back to current, dropping
    /// exactly the entries a full rebuild would now exclude.
    ///
    /// Transfer starts never touch the request graph, want issue times,
    /// storage, claims, sharing flags or the clock (the graph/world stamps
    /// already matched, and the scheduling loop runs within one event), so
    /// of [`build_serve_queue`](Self::build_serve_queue)'s per-entry
    /// conditions only two can have changed — and both only towards
    /// exclusion: the `(requester, object)` pair may now be served by this
    /// provider, and the requester's download slots may have filled.
    /// Filtering on those two reproduces the rebuild, at O(queue) with no
    /// graph walk, no want lookups and no reciprocity scans: the first is a
    /// scan of the provider's few current uploads
    /// ([`serving`](Self::serving)), the second one slot-pool read.
    fn patch_serve_queue(&self, provider: PeerId, sq: &mut ServeQueue) {
        let serving = self.serving(provider);
        let mut kept_queue = Vec::with_capacity(sq.queue.len());
        let mut kept_objects = Vec::with_capacity(sq.objects.len());
        let entries = std::mem::take(&mut sq.queue)
            .into_iter()
            .zip(std::mem::take(&mut sq.objects));
        for (entry, object) in entries {
            if serving.contains(&(entry.requester, object))
                || !self.peer(entry.requester).download_slots.has_free()
            {
                continue;
            }
            kept_queue.push(entry);
            kept_objects.push(object);
        }
        sq.queue = kept_queue;
        sq.objects = kept_objects;
        sq.transfer_epoch = self.transfer_epoch;
    }

    /// The `(downloader, object)` pairs `provider` is uploading right now:
    /// at most one per upload slot, so a serve queue tests each entry's
    /// already-served condition against this short list instead of probing
    /// the download index.
    fn serving(&self, provider: PeerId) -> Vec<(PeerId, ObjectId)> {
        let uploads = self.uploads_by_peer.get(&provider).into_iter().flatten();
        uploads
            .filter_map(|tid| self.transfers.get(tid))
            .map(|t| (t.downloader, t.object))
            .collect()
    }

    /// Assembles the eligible non-exchange queue at `provider` from scratch,
    /// stamped with the epochs [`serve_non_exchange`](Self::serve_non_exchange)
    /// checks before reusing it.
    fn build_serve_queue(&self, provider: PeerId) -> ServeQueue {
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
        // reason an entry is ineligible, and the cheapest to test.
        let serving = self.serving(provider);
        let now = self.now();
        let mut queue: Vec<QueuedRequest<PeerId>> = Vec::new();
        let mut objects: Vec<ObjectId> = Vec::new();
        for req in self.graph.incoming(provider) {
            if serving.contains(&(req.requester, req.object)) {
                continue;
            }
            let requester_state = self.peer(req.requester);
            let Some(want) = requester_state.wants.get(&req.object) else {
                continue;
            };
            // The provider must still claim the object.  This is `claims`
            // with its edge-existence scan elided: `req` IS an incoming edge
            // for exactly this object, so the capability probe alone decides,
            // and the queue rebuild stays O(queue) instead of O(queue²) at a
            // busy middleman.
            if !provider_state.storage.contains(req.object) && !self.advertises[provider.as_usize()]
            {
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
                    req.requester,
                    now.saturating_since(want.issued_at).as_secs_f64(),
                )
                .with_reciprocal(reciprocal),
            );
            objects.push(req.object);
        }
        ServeQueue {
            queue,
            objects,
            transfer_epoch: self.transfer_epoch,
            transfer_end_epoch: self.transfer_end_epoch,
            generation: self.graph.generation(),
            world_epoch: self.world_epoch,
        }
    }
}
