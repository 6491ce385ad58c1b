//! Sharded provider scheduling with a deterministic merge.
//!
//! `TrySchedule` is the hot event: at 10⁴–10⁵ peers, ring searches and
//! serve-queue assembly dominate the run.  The key structural fact is that
//! handling a `TrySchedule` event **never mutates what another provider's
//! search reads** — the request graph, peer storage, sharing flags and want
//! lists only change in `GenerateRequests`, `BlockComplete` and
//! `StorageMaintenance` handlers.  A run of consecutive same-timestamp
//! `TrySchedule` events can therefore be *planned* in parallel:
//!
//! 1. **Batch** — pop the maximal prefix of consecutive `TrySchedule` events
//!    sharing the current timestamp.
//! 2. **Plan** — hand the batch to the persistent
//!    [`ShardPool`](super::pool::ShardPool) of
//!    [`SimConfig::shards`](crate::SimConfig::shards) workers.  The state the
//!    workers read is *moved* into an owned
//!    [`BatchJob`](super::pool::BatchJob) for the duration of the barrier, so
//!    no `unsafe` and no scoped lifetimes are involved.  Each worker, with
//!    its own long-lived [`SearchScratch`] and [`HolderMarks`], plans only
//!    work the merge is predicted to consume: a traced ring search for
//!    *slot-eligible* providers whose `RingCandidateCache::peek` predicts a
//!    miss, and the assembled non-exchange serve queue only where a free
//!    upload slot makes it reachable.
//! 3. **Merge** — a single thread replays the events **in their original
//!    queue order** (the event queue's deterministic FIFO sequence), running
//!    the exact sequential control flow — cache lookups and stores included,
//!    so hit/miss/invalidation stats match bit for bit — but substituting
//!    each precomputed trace for the BFS it replaces.  A precomputed result
//!    is only substituted while its stamps
//!    ([`RequestGraph::generation`] and the simulation's `world_epoch` for
//!    searches, additionally `transfer_epoch` for serve queues) still match;
//!    anything stale falls back to inline recomputation.  Worker completion
//!    order is irrelevant: workers never touch shared mutable state.
//!
//! The result is bit-identical to the sequential engine with the cache on or
//! off and under every behavior mix and protection —
//! `tests/sharded_equivalence.rs`, `tests/shard_pool.rs` and the `audit`
//! feature prove it — while the searches, the dominant cost, run on all
//! shards, the planned searches are exactly the ones the sequential engine
//! would run (sharded `ring_searches` counts consumed searches only, so it
//! equals the sequential count), and the worker threads persist across
//! batches instead of being respawned per batch.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use std::collections::{BTreeSet, HashMap, HashSet};
use std::mem;
use std::sync::Arc;
use std::time::Instant;

use credit::QueuedRequest;
use des::SimTime;
use exchange::{FastState, RequestGraph, RingSearch, SearchScratch, SearchTrace};
use workload::{ObjectId, PeerId};

use crate::PeerState;

use super::events::Event;
use super::pool::{self, BatchJob, ShardPool};
use super::scheduling::ServeQueue;
use super::transfers::ActiveTransfer;
use super::{PhaseProfile, Simulation, TransferId};

/// Whether `peer` claims to be able to serve `object` — its advertised
/// holdings.  Every uploading behavior claims its real storage; a middleman
/// (`advertises[peer]`) additionally claims any object someone has an
/// accepted request for at it.
///
/// This is the per-pair claims oracle of the simulation: [`Simulation::claims`]
/// calls it, and so does every ring search (through [`search_oracle`]) for
/// the middleman relay term, so sequential and sharded searches can never
/// diverge on what a peer advertises.
pub(super) fn claims_with(
    peers: &[PeerState],
    graph: &RequestGraph<PeerId, ObjectId>,
    advertises: &[bool],
    peer: PeerId,
    object: ObjectId,
) -> bool {
    let state = &peers[peer.as_usize()];
    // A departed peer claims nothing: its holdings are unreachable until it
    // rejoins, and a middleman's standing edges are torn down at departure.
    if !state.sharing || !state.online {
        return false;
    }
    if state.storage.contains(object) {
        return true;
    }
    advertises[peer.as_usize()] && graph.incoming(peer).any(|r| r.object == object)
}

/// The claims oracle of one ring search rooted at a peer wanting `wants`,
/// equal to [`claims_with`] for every peer and every wanted object.
///
/// A search probes thousands of peers per root and almost every probe
/// answers "no", while the wanted objects have only a few dozen holders
/// between them.  So the holders of the distinct wants are marked in
/// `marks` once, from the `holders` index — the sharing, online peers
/// storing each object — and the storage half of [`claims_with`] becomes
/// a mark lookup.  Only a middleman (`advertises[peer]`) still goes
/// through [`claims_with`], for its relay claims.  Both the sequential
/// search and the shard workers build their oracle here.
pub(super) fn search_oracle<'a>(
    marks: &'a mut HolderMarks,
    holders: &[BTreeSet<PeerId>],
    peers: &'a [PeerState],
    graph: &'a RequestGraph<PeerId, ObjectId>,
    advertises: &'a [bool],
    wants: &[ObjectId],
) -> impl Fn(&PeerId, &ObjectId) -> bool + 'a {
    marks.mark(peers.len(), holders, wants);
    let marks = &*marks;
    move |peer, object| {
        marks.holds(*peer, *object)
            || (advertises[peer.as_usize()]
                && claims_with(peers, graph, advertises, *peer, *object))
    }
}

/// Which of one search's wanted objects each peer holds, marked from the
/// `holders` index (see [`search_oracle`]).
///
/// Per peer it keeps a `(stamp, head)` pair: the peer was marked by the
/// current search iff its stamp equals the table's, and `head` then
/// indexes the first of its `(object, next)` links.  An unmarked peer is
/// rejected in O(1); a marked one walks only the wanted objects it holds.
/// The per-peer array is sized on the first search and, once warm, a
/// search allocates nothing.  When the stamp counter is exhausted the
/// table clears itself, so a stale stamp can never match a reissued one.
/// Like [`SearchScratch`] this is scratch state: never serialized, and a
/// cold table answers exactly like a warm one.
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
    fn mark(&mut self, num_peers: usize, holders: &[BTreeSet<PeerId>], wants: &[ObjectId]) {
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
    fn holds(&self, peer: PeerId, object: ObjectId) -> bool {
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

/// The immutable slice of simulation state a shard worker reads — borrowed
/// either from the live simulation (the sequential serve-queue rebuild) or
/// from the [`BatchJob`] the state was moved into for a batch barrier.  The
/// mutable side (engine, report, upload scheduler, RNGs) never crosses a
/// thread boundary.  Fields are `pub(super)`-in-`pool` via the sibling
/// module's constructor ([`BatchJob::snapshot`]).
pub(super) struct BatchSnapshot<'a> {
    pub(super) graph: &'a RequestGraph<PeerId, ObjectId>,
    pub(super) peers: &'a [PeerState],
    pub(super) advertises: &'a [bool],
    pub(super) holders: &'a [BTreeSet<PeerId>],
    pub(super) transfers: &'a HashMap<TransferId, Box<ActiveTransfer>, FastState>,
    pub(super) uploads_by_peer: &'a HashMap<PeerId, Vec<TransferId>, FastState>,
    pub(super) now: SimTime,
    pub(super) needs_reciprocal: bool,
    pub(super) transfer_epoch: u64,
    pub(super) transfer_end_epoch: u64,
    pub(super) generation: u64,
    pub(super) world_epoch: u64,
}

impl BatchSnapshot<'_> {
    /// Runs one traced ring search rooted at `provider` inside `scratch`
    /// and `marks`.  Identical to the sequential engine's fresh search:
    /// same policy object, same [`search_oracle`], same graph.
    pub(super) fn search(
        &self,
        search: &RingSearch,
        scratch: &mut SearchScratch<PeerId, ObjectId>,
        marks: &mut HolderMarks,
        provider: PeerId,
        wants: &[ObjectId],
    ) -> SearchTrace<PeerId, ObjectId> {
        let provides = search_oracle(
            marks,
            self.holders,
            self.peers,
            self.graph,
            self.advertises,
            wants,
        );
        search.find_traced_in(scratch, self.graph, provider, wants, provides)
    }

    /// The `(downloader, object)` pairs `provider` is uploading right now:
    /// at most one per upload slot, so a serve queue tests each entry's
    /// already-served condition against this short list instead of probing
    /// the download index.
    pub(super) fn serving(&self, provider: PeerId) -> Vec<(PeerId, ObjectId)> {
        let uploads = self.uploads_by_peer.get(&provider).into_iter().flatten();
        uploads
            .filter_map(|tid| self.transfers.get(tid))
            .map(|t| (t.downloader, t.object))
            .collect()
    }

    /// Assembles the eligible non-exchange queue at `provider` from scratch.
    ///
    /// This is *the* serve-queue builder — the sequential path calls it too
    /// (via [`Simulation::batch_snapshot`]), so a precomputed queue can only
    /// ever equal what an inline rebuild would produce.  The returned queue
    /// carries the snapshot's validity stamps; `serve_non_exchange` rebuilds
    /// if any of them moved.
    pub(super) fn build_serve_queue(&self, provider: PeerId) -> ServeQueue {
        let provider_state = &self.peers[provider.as_usize()];
        // The reciprocation flag costs a storage scan per queued request;
        // only compute it for schedulers that actually read it.
        let provider_wants = if self.needs_reciprocal {
            provider_state.wanted_objects()
        } else {
            Vec::new()
        };
        // The provider already serving the pair is by far the most common
        // reason an entry is ineligible, and the cheapest to test.
        let serving = self.serving(provider);
        let mut queue: Vec<QueuedRequest<PeerId>> = Vec::new();
        let mut objects: Vec<ObjectId> = Vec::new();
        for req in self.graph.incoming(provider) {
            if serving.contains(&(req.requester, req.object)) {
                continue;
            }
            let requester_state = &self.peers[req.requester.as_usize()];
            let Some(want) = requester_state.wants.get(&req.object) else {
                continue;
            };
            // The provider must still claim the object.  This is `claims_with`
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
            let reciprocal = self.needs_reciprocal
                && requester_state.sharing
                && provider_wants
                    .iter()
                    .any(|object| requester_state.storage.contains(*object));
            queue.push(
                QueuedRequest::new(
                    req.requester,
                    self.now.saturating_since(want.issued_at).as_secs_f64(),
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
            generation: self.generation,
            world_epoch: self.world_epoch,
        }
    }
}

/// One provider's precomputed batch work.
pub(super) struct PlannedProvider {
    /// The provider's wanted objects at snapshot time (the search key).
    wants: Vec<ObjectId>,
    /// Fresh traced search against the snapshot — present when the planner
    /// predicted the merge would consume it: a slot-eligible provider whose
    /// candidate-cache peek predicted a miss (or the cache is disabled).
    /// *Moved* into the merge on consumption: it feeds the ring-candidate
    /// cache store directly, so the merge never clones or re-runs the
    /// search it replaces.
    trace: Option<SearchTrace<PeerId, ObjectId>>,
    /// Assembled non-exchange queue (only built where a free upload slot
    /// made it reachable), consumed by the provider's first event of the
    /// batch (later events rebuild lazily, exactly like sequential).
    serve_queue: Option<ServeQueue>,
    /// Worker-side nanoseconds of the search; folded into the `ring_search`
    /// phase if and when the trace is consumed.
    nanos: u64,
    /// Graph generation the plan was computed at.
    generation: u64,
    /// Simulation `world_epoch` (storage/claims state) at plan time.
    world_epoch: u64,
}

impl PlannedProvider {
    /// Takes the precomputed serve queue (first caller wins).
    pub(super) fn take_serve_queue(&mut self) -> Option<ServeQueue> {
        self.serve_queue.take()
    }

    /// Takes the precomputed trace and its search time, if the trace is
    /// provably identical to what a fresh search would return right now:
    /// same wants, and neither the request graph nor the storage/claims
    /// state has moved since the snapshot.
    pub(super) fn take_valid_trace(
        &mut self,
        wants: &[ObjectId],
        generation: u64,
        world_epoch: u64,
    ) -> Option<(SearchTrace<PeerId, ObjectId>, u64)> {
        if self.generation == generation && self.world_epoch == world_epoch && self.wants == wants {
            self.trace.take().map(|trace| (trace, self.nanos))
        } else {
            None
        }
    }
}

/// The worker output for one batch: per-provider plans plus the profiling
/// tallies of the parallel window.
pub(super) struct BatchPlan {
    providers: HashMap<PeerId, PlannedProvider>,
}

impl BatchPlan {
    pub(super) fn provider_mut(&mut self, provider: PeerId) -> Option<&mut PlannedProvider> {
        self.providers.get_mut(&provider)
    }

    /// Whether every plan entry's stamps still match the live simulation —
    /// the audit-mode invariant that a batch's precomputations are consumed
    /// within the window they were computed for.
    #[cfg(feature = "audit")]
    pub(super) fn stamps_current(&self, generation: u64, world_epoch: u64) -> bool {
        let fresh =
            |p: &PlannedProvider| p.generation == generation && p.world_epoch == world_epoch;
        // exchange-lint: allow(D001, reason = "order-independent all() over an invariant predicate; no simulation state derived")
        self.providers.values().all(fresh)
    }
}

impl Simulation {
    /// The immutable view of the current state that shard workers (and the
    /// sequential serve-queue builder) read.
    pub(super) fn batch_snapshot(&self) -> BatchSnapshot<'_> {
        BatchSnapshot {
            graph: &self.graph,
            peers: &self.peers,
            advertises: &self.advertises,
            holders: &self.holders,
            transfers: &self.transfers,
            uploads_by_peer: &self.uploads_by_peer,
            now: self.now(),
            needs_reciprocal: self.scheduler.needs_reciprocal(),
            transfer_epoch: self.transfer_epoch,
            transfer_end_epoch: self.transfer_end_epoch,
            generation: self.graph.generation(),
            world_epoch: self.world_epoch,
        }
    }

    /// Pops the maximal run of consecutive `TrySchedule` events sharing the
    /// current timestamp (`first` is the one already popped).  Events the
    /// merge schedules while applying the batch land *after* the batch in
    /// the queue — exactly where the sequential engine would pop them — so
    /// batching never reorders delivery.
    pub(super) fn collect_try_schedule_batch(&mut self, first: PeerId) -> Vec<PeerId> {
        let now = self.engine.now();
        let mut batch = vec![first];
        while matches!(self.engine.peek(), Some((t, Event::TrySchedule(_))) if t == now) {
            match self.engine.next() {
                Some(Event::TrySchedule(peer)) => batch.push(peer),
                _ => unreachable!("peeked a TrySchedule event at the current timestamp"),
            }
        }
        batch
    }

    /// Fans the batch's read-only work out across the persistent worker
    /// pool (created lazily on the first batch that reaches it).
    ///
    /// Returns `None` (fall back to fully sequential handling) for batches
    /// too small to amortise the barrier: fewer than `max(shards, 2)`
    /// distinct plannable providers.
    /// Slot eligibility and the candidate-cache `peek` are evaluated
    /// *worker-side* against the moved-out state, so workers only run
    /// searches the merge is predicted to consume.  Planning never drains
    /// the graph's dirty log: the drain stays where the sequential engine
    /// runs it (the first scheduling attempt that reaches a ring search), so
    /// invalidation counts match.  A peek can therefore see an entry the
    /// pending drain will drop; the merge then misses and searches inline.
    pub(super) fn plan_batch(&mut self, batch: &[PeerId]) -> Option<BatchPlan> {
        let policy = self.config.discipline.search_policy();
        // Distinct sharing providers, first-occurrence order.
        let mut seen: HashSet<PeerId> = HashSet::with_capacity(batch.len());
        let mut tasks: Vec<(PeerId, Vec<ObjectId>)> = Vec::with_capacity(batch.len());
        for &provider in batch {
            if !seen.insert(provider) || !self.peer(provider).sharing || !self.peer(provider).online
            {
                continue;
            }
            tasks.push((provider, self.peer(provider).wanted_objects()));
        }
        if tasks.len() < self.config.shards.max(2) {
            return None;
        }

        let search = policy.map(|p| {
            RingSearch::new(p)
                .with_expansion_budget(self.config.ring_search_budget)
                .with_fanout(self.config.ring_search_fanout)
        });
        let profiling = self.profile_searches;
        // Scalars first (struct literal fields evaluate in order), then the
        // owned state moves out for the duration of the barrier.
        let job = BatchJob {
            now: self.now(),
            needs_reciprocal: self.scheduler.needs_reciprocal(),
            transfer_epoch: self.transfer_epoch,
            transfer_end_epoch: self.transfer_end_epoch,
            generation: self.graph.generation(),
            world_epoch: self.world_epoch,
            search,
            cache_enabled: self.config.ring_candidate_cache,
            allows_exchange: self.config.discipline.allows_exchange(),
            preemption: self.config.preemption,
            profiling,
            tasks,
            graph: mem::take(&mut self.graph),
            peers: mem::take(&mut self.peers),
            advertises: mem::take(&mut self.advertises),
            holders: mem::take(&mut self.holders),
            transfers: mem::take(&mut self.transfers),
            uploads_by_peer: mem::take(&mut self.uploads_by_peer),
            ring_cache: mem::take(&mut self.ring_cache),
        };
        let shards = self.config.shards;
        let census = Arc::clone(&self.shard_census);
        let pool = self
            .pool
            .get_or_insert_with(|| ShardPool::new(shards, census));
        let (job, results) = pool.run(job);

        self.graph = job.graph;
        self.peers = job.peers;
        self.advertises = job.advertises;
        self.holders = job.holders;
        self.transfers = job.transfers;
        self.uploads_by_peer = job.uploads_by_peer;
        self.ring_cache = job.ring_cache;

        let mut providers = HashMap::with_capacity(results.len());
        for (provider, slot) in results {
            if profiling && slot.trace.is_some() {
                // A worker ran a search; whether it was wasted speculation
                // is only known at consumption time, where `ring_searches`
                // and `ring_search_nanos` are advanced (`planned_consumed`)
                // so the sharded totals equal the sequential engine's.
                self.planned_searches.set(self.planned_searches.get() + 1);
            }
            let pool::PlannedSlot {
                wants,
                trace,
                serve_queue,
                nanos,
            } = slot;
            providers.insert(
                provider,
                PlannedProvider {
                    wants,
                    trace,
                    serve_queue,
                    nanos,
                    generation: job.generation,
                    world_epoch: job.world_epoch,
                },
            );
        }
        Some(BatchPlan { providers })
    }

    /// The sharded main loop: event semantics identical to the sequential
    /// loop, with same-timestamp `TrySchedule` runs planned in parallel and
    /// merged in queue order.
    ///
    /// With `until` set, stops before the first event past that time (the
    /// checkpoint stepping bound, see [`Simulation::run_until`]).  A batch
    /// shares one timestamp, so the bound never splits a batch.
    pub(super) fn run_event_loop_sharded(
        &mut self,
        mut profile: Option<&mut PhaseProfile>,
        until: Option<SimTime>,
    ) {
        // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
        let loop_start = Instant::now();
        loop {
            if let Some(until) = until {
                match self.engine.peek() {
                    Some((t, _)) if t <= until => {}
                    _ => break,
                }
            }
            let Some(event) = self.engine.next() else {
                break;
            };
            match event {
                Event::TrySchedule(first) => {
                    let batch = self.collect_try_schedule_batch(first);
                    // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
                    let planning = profile.is_some().then(Instant::now);
                    let mut plan = self.plan_batch(&batch);
                    if let (Some(profile), Some(started)) = (profile.as_deref_mut(), planning) {
                        profile.shard_planning += started.elapsed();
                    }
                    for &provider in &batch {
                        let planned = plan.as_mut().and_then(|p| p.provider_mut(provider));
                        match profile.as_deref_mut() {
                            Some(profile) => {
                                profile.events += 1;
                                // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
                                let started = Instant::now();
                                self.handle_try_schedule_planned(provider, planned);
                                profile.scheduling += started.elapsed();
                            }
                            None => self.handle_try_schedule_planned(provider, planned),
                        }
                    }
                }
                other => match profile.as_deref_mut() {
                    Some(profile) => self.dispatch_profiled(other, profile),
                    None => self.dispatch(other),
                },
            }
        }
        if let Some(profile) = profile {
            profile.event_loop = loop_start.elapsed();
        }
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
