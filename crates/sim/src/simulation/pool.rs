//! The persistent shard worker pool.
//!
//! PR 10 replaces the per-batch `thread::scope` fan-out with long-lived
//! workers owned by [`Simulation`](super::Simulation): spawned lazily at the
//! first sharded batch, fed one [`BatchJob`] per batch over channels, and
//! joined when the simulation drops.  At 10⁵-peer scale the sharded run
//! dispatches millions of `TrySchedule` batches; paying thread spawn and
//! teardown per batch was a measurable slice of the planning overhead the
//! nightly `speedup_sharded` figure showed.
//!
//! The handoff protocol keeps the engine free of `unsafe` and of scoped
//! lifetimes:
//!
//! 1. The merge thread `mem::take`s the state the workers read (graph,
//!    peers, transfer tables, ring cache) into an owned [`BatchJob`], wraps
//!    it in an `Arc`, and sends one clone to every worker.
//! 2. Each worker plans the task indices congruent to its own index, **drops
//!    its `Arc` handle first**, and then reports its
//!    `(provider, PlannedSlot)` results on its private result channel.
//! 3. The merge thread receives every worker's result batch (a panicked
//!    worker drops its sole result sender, so the `recv` fails immediately
//!    instead of deadlocking), unwraps the now-unique `Arc`, and moves the
//!    state back into the simulation.
//!
//! Workers keep their [`SearchScratch`] and [`HolderMarks`] alive across
//! batches, so the warm adjacency snapshots that make repeated searches
//! cheap survive from batch to batch — under `thread::scope` they had to be
//! shuttled through the simulation object instead.
//!
//! What a worker plans is strictly the work the merge is predicted to
//! consume: a traced ring search only for a slot-eligible provider whose
//! candidate-cache peek predicts a miss, and a serve queue only when the
//! provider has a free upload slot.  Mispredictions (an earlier event of the
//! batch freeing a slot, say) fall back to inline recomputation at merge —
//! exactly the sequential control flow — so results stay bit-identical.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use des::SimTime;
use exchange::{FastState, RequestGraph, RingSearch, SearchScratch, SearchTrace};
use workload::{ObjectId, PeerId};

use crate::PeerState;

use super::ring_cache::RingCandidateCache;
use super::scheduling::ServeQueue;
use super::shard::{BatchSnapshot, HolderMarks};
use super::transfers::ActiveTransfer;
use super::TransferId;

/// Everything a shard worker reads for one batch, moved out of the
/// simulation for the duration of the planning barrier.  Scalars are
/// captured first (struct literal fields evaluate in order); the owned
/// collections are `mem::take`n and restored by the merge when the barrier
/// completes.
pub(super) struct BatchJob {
    /// Current virtual time (the batch's shared timestamp).
    pub(super) now: SimTime,
    /// Whether the upload scheduler reads the reciprocation flag.
    pub(super) needs_reciprocal: bool,
    pub(super) transfer_epoch: u64,
    pub(super) transfer_end_epoch: u64,
    /// Request-graph generation at the snapshot.
    pub(super) generation: u64,
    /// Storage/claims epoch at the snapshot.
    pub(super) world_epoch: u64,
    /// The configured ring search, `None` under a no-search discipline.
    pub(super) search: Option<RingSearch>,
    /// Whether the ring-candidate cache is consulted at all.
    pub(super) cache_enabled: bool,
    /// Whether the discipline forms exchanges (gates the search).
    pub(super) allows_exchange: bool,
    /// Whether preemption can free a saturated provider's slot.
    pub(super) preemption: bool,
    /// Whether workers should time their searches.
    pub(super) profiling: bool,
    /// The batch's distinct plannable providers with their wanted objects,
    /// in first-occurrence order; workers own indices congruent to their id.
    pub(super) tasks: Vec<(PeerId, Vec<ObjectId>)>,
    pub(super) graph: RequestGraph<PeerId, ObjectId>,
    pub(super) peers: Vec<PeerState>,
    pub(super) advertises: Vec<bool>,
    /// The holders index the search oracle marks its wanted objects from.
    pub(super) holders: Vec<BTreeSet<PeerId>>,
    pub(super) transfers: HashMap<TransferId, Box<ActiveTransfer>, FastState>,
    pub(super) uploads_by_peer: HashMap<PeerId, Vec<TransferId>, FastState>,
    /// The ring-candidate cache, read-only here: workers `peek` it to skip
    /// searches a merge-side lookup will answer from cache.  Stats are only
    /// ever advanced by the merge thread's real lookups.
    pub(super) ring_cache: RingCandidateCache,
}

/// One provider's planned batch work, as produced by a worker.
pub(super) struct PlannedSlot {
    /// The provider's wanted objects at snapshot time (the search key).
    pub(super) wants: Vec<ObjectId>,
    /// Traced search, present only for slot-eligible predicted cache misses.
    pub(super) trace: Option<SearchTrace<PeerId, ObjectId>>,
    /// Assembled non-exchange queue, present only when the provider had a
    /// free upload slot at snapshot time.
    pub(super) serve_queue: Option<ServeQueue>,
    /// Worker-side nanoseconds of the search (profiled runs only); folded
    /// into the `ring_search` phase if and when the trace is consumed.
    pub(super) nanos: u64,
}

impl BatchJob {
    fn snapshot(&self) -> BatchSnapshot<'_> {
        BatchSnapshot {
            graph: &self.graph,
            peers: &self.peers,
            advertises: &self.advertises,
            holders: &self.holders,
            transfers: &self.transfers,
            uploads_by_peer: &self.uploads_by_peer,
            now: self.now,
            needs_reciprocal: self.needs_reciprocal,
            transfer_epoch: self.transfer_epoch,
            transfer_end_epoch: self.transfer_end_epoch,
            generation: self.generation,
            world_epoch: self.world_epoch,
        }
    }

    /// Mirror of [`Simulation::has_preemptible_upload`] against the job's
    /// moved-in tables (the slot-eligibility half the sequential scheduling
    /// loop evaluates before searching).
    ///
    /// [`Simulation::has_preemptible_upload`]: super::Simulation
    fn has_preemptible_upload(&self, uploader: PeerId) -> bool {
        self.uploads_by_peer.get(&uploader).is_some_and(|tids| {
            tids.iter().any(|tid| {
                self.transfers
                    .get(tid)
                    .is_some_and(|t| !t.kind.is_exchange())
            })
        })
    }

    /// Plans one provider: the traced search (only if the merge is predicted
    /// to consume it — slot-eligible, exchange-forming, and a predicted
    /// candidate-cache miss) and the serve queue (only reachable when a free
    /// slot exists).
    fn plan_provider(
        &self,
        scratch: &mut SearchScratch<PeerId, ObjectId>,
        marks: &mut HolderMarks,
        provider: PeerId,
        wants: &[ObjectId],
    ) -> PlannedSlot {
        let state = &self.peers[provider.as_usize()];
        let free_slot = state.upload_slots.has_free();
        let slot_eligible = free_slot || (self.preemption && self.has_preemptible_upload(provider));
        let want_search = slot_eligible
            && self.allows_exchange
            && !wants.is_empty()
            && (!self.cache_enabled || !self.ring_cache.peek(provider, wants));
        let mut nanos = 0u64;
        let trace = match (&self.search, want_search) {
            (Some(search), true) => {
                // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
                let started = self.profiling.then(Instant::now);
                let trace = self
                    .snapshot()
                    .search(search, scratch, marks, provider, wants);
                if let Some(started) = started {
                    nanos = started.elapsed().as_nanos() as u64;
                }
                Some(trace)
            }
            _ => None,
        };
        let serve_queue = free_slot.then(|| self.snapshot().build_serve_queue(provider));
        PlannedSlot {
            wants: wants.to_vec(),
            trace,
            serve_queue,
            nanos,
        }
    }
}

/// One worker's merge-side endpoints.
#[derive(Debug)]
struct WorkerHandle {
    result_rx: mpsc::Receiver<Vec<(PeerId, PlannedSlot)>>,
    handle: thread::JoinHandle<()>,
}

/// The persistent worker pool: created lazily at the first sharded batch,
/// joined when the owning [`Simulation`](super::Simulation) drops (dropping
/// the job senders ends every worker's receive loop).
#[derive(Debug)]
pub(super) struct ShardPool {
    job_txs: Vec<mpsc::Sender<Arc<BatchJob>>>,
    workers: Vec<WorkerHandle>,
}

impl ShardPool {
    /// Spawns `shards` workers.  `census` counts live worker threads (the
    /// audit harness asserts it returns to zero when the simulation drops).
    pub(super) fn new(shards: usize, census: Arc<AtomicUsize>) -> Self {
        let shards = shards.max(1);
        let mut job_txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for index in 0..shards {
            let (job_tx, job_rx) = mpsc::channel::<Arc<BatchJob>>();
            let (result_tx, result_rx) = mpsc::channel();
            let census = Arc::clone(&census);
            census.fetch_add(1, Ordering::SeqCst);
            let handle = thread::Builder::new()
                .name(format!("shard-worker-{index}"))
                .spawn(move || {
                    // Decrements even if planning panics, so the census
                    // cannot leak a phantom live worker.
                    struct CensusGuard(Arc<AtomicUsize>);
                    impl Drop for CensusGuard {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _guard = CensusGuard(census);
                    // The scratch and the holder marks live as long as the
                    // worker: adjacency snapshots stay warm across batches.
                    let mut scratch = SearchScratch::new();
                    let mut marks = HolderMarks::default();
                    while let Ok(job) = job_rx.recv() {
                        let mut out = Vec::new();
                        for (slot, (provider, wants)) in job.tasks.iter().enumerate() {
                            if slot % shards == index {
                                out.push((
                                    *provider,
                                    job.plan_provider(&mut scratch, &mut marks, *provider, wants),
                                ));
                            }
                        }
                        // Drop the job handle BEFORE reporting: once the
                        // merge has received every result, its Arc is
                        // provably unique and `try_unwrap` restores the
                        // state without a copy.
                        drop(job);
                        if result_tx.send(out).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawning a shard worker thread");
            job_txs.push(job_tx);
            workers.push(WorkerHandle { result_rx, handle });
        }
        ShardPool { job_txs, workers }
    }

    /// Runs one batch barrier: hands `job` to every worker, collects every
    /// worker's planned slots, and returns the job's state for restoration.
    ///
    /// # Panics
    ///
    /// Panics if a worker exited or panicked — a dead worker would otherwise
    /// silently drop its share of the batch and corrupt determinism.
    pub(super) fn run(&self, job: BatchJob) -> (BatchJob, Vec<(PeerId, PlannedSlot)>) {
        let job = Arc::new(job);
        for job_tx in &self.job_txs {
            job_tx
                .send(Arc::clone(&job))
                .expect("a shard worker exited before the simulation dropped");
        }
        let mut results = Vec::with_capacity(job.tasks.len());
        for worker in &self.workers {
            let planned = worker
                .result_rx
                .recv()
                .expect("a shard worker panicked mid-batch");
            results.extend(planned);
        }
        let job = Arc::try_unwrap(job)
            .ok()
            .expect("workers drop their job handle before reporting");
        (job, results)
    }

    /// Whether every worker is parked on its job channel with no unread
    /// results — the between-batches steady state the audit asserts.
    #[cfg(feature = "audit")]
    pub(super) fn idle(&self) -> bool {
        self.workers
            .iter()
            .all(|w| matches!(w.result_rx.try_recv(), Err(mpsc::TryRecvError::Empty)))
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the job channels ends every worker's receive loop; join
        // so no worker thread outlives the simulation that spawned it.  A
        // worker that panicked already surfaced at the batch barrier — the
        // join result is deliberately ignored to avoid a double panic.
        self.job_txs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.handle.join();
        }
    }
}
