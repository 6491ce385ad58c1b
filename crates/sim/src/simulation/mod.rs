//! The discrete-event file-sharing simulation.
//!
//! The run logic is split by concern:
//!
//! * [`events`] — the event vocabulary, request generation and storage
//!   maintenance;
//! * [`scheduling`] — filling upload slots: exchange-ring discovery,
//!   token-validated activation, preemption, and the pluggable
//!   [`UploadScheduler`] fallback;
//! * [`transfers`] — the block-by-block transfer lifecycle and its
//!   bookkeeping;
//! * [`population`] — population dynamics: churn departures/rejoins,
//!   catastrophic top-provider removal, flash-crowd releases.

#[cfg(feature = "audit")]
pub mod audit;
mod events;
mod holder_marks;
mod maintenance;
mod population;
mod ring_cache;
mod scheduling;
mod snapshot;
mod transfers;

pub use ring_cache::{CachedEntry, RingCacheStats, RingCandidateCache};
pub(crate) use snapshot::{record_codec, Cursor, Decode, Encode};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use credit::UploadScheduler;
use des::{DetRng, Scheduler, SimDuration, SimTime};
use exchange::{FastState, RequestGraph, SearchScratch};
use netsim::SlotPool;
use workload::{Catalog, ObjectId, PeerId, PeerInterests, RequestGenerator, Storage};

use crate::{BehaviorKind, PeerBehavior, PeerState, SessionEnd, SimConfig, SimReport};

use events::Event;
use holder_marks::HolderMarks;
use maintenance::MaintenanceSchedule;
use transfers::{ActiveRing, ActiveTransfer};

/// Identifier of an active transfer session within one run.
pub(crate) type TransferId = u64;
/// Identifier of an active exchange ring within one run.
pub(crate) type RingId = u64;

/// The seed-dependent but *run-independent* setup of one configuration: the
/// generated catalog, the behavior assignment, and the pristine peer states
/// (interests, initial storage placement, empty slot pools).
///
/// Generating this is pure function of `(config, setup seed)` — building a
/// [`Simulation`] from a shared setup via [`Simulation::from_setup`] with the
/// same seed is bit-identical to [`Simulation::new`].  Warm restarts
/// ([`crate::Scenario::warm_restarts`]) generate one setup per grid point and
/// share it across that point's seeds, regenerating only the per-run RNG
/// streams (requests, lookups, storage eviction), so every seed of a point
/// runs on one catalog and peer topology.  Generating a setup is cheap next
/// to the run: ~0.12 s at 10⁴ peers and ~3.5 ms at 200 Table II peers on
/// a 2-core x86-64 host, against seconds of event loop.
#[derive(Debug, Clone)]
pub struct SimSetup {
    seed: u64,
    catalog: Catalog,
    kinds: Vec<BehaviorKind>,
    peers: Vec<PeerState>,
}

impl SimSetup {
    /// Generates the catalog and peer topology for `config`,
    /// deterministically seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    #[must_use]
    pub fn generate(config: &SimConfig, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        let root_rng = DetRng::seed_from(seed);
        let mut rng_setup = root_rng.stream("setup");
        let catalog = Catalog::generate(&config.workload, &mut rng_setup);
        let num_peers = config.num_peers;
        let kinds = config.behaviors.assign(num_peers, &mut rng_setup);
        // Capacity classes draw from the setup stream *after* behaviors, and
        // the homogeneous default consumes no randomness at all — existing
        // seeded topologies are bit-identical.
        let classes = config.classes.assign(num_peers, &mut rng_setup);

        let mut peers = Vec::with_capacity(num_peers);
        for (index, behavior) in kinds.iter().enumerate() {
            let mut peer_rng = root_rng.indexed_stream("peer-setup", index as u64);
            let interests = PeerInterests::generate(&catalog, &config.workload, &mut peer_rng);
            let (cap_lo, cap_hi) = config.workload.storage_capacity_objects;
            let capacity = peer_rng.gen_range(cap_lo..=cap_hi) as usize;
            let storage = Storage::initial_placement(capacity, &catalog, &interests, &mut peer_rng);
            peers.push(PeerState {
                id: PeerId::new(index as u32),
                behavior: *behavior,
                sharing: behavior.build().uploads(),
                online: true,
                capacity: classes[index],
                interests,
                storage,
                upload_slots: SlotPool::new(config.link.upload_slots()),
                download_slots: SlotPool::new(config.link.download_slots()),
                wants: Default::default(),
                downloaded_bytes: 0,
                uploaded_bytes: 0,
                junk_bytes: 0,
                ciphertext_bytes: 0,
            });
        }
        SimSetup {
            seed,
            catalog,
            kinds,
            peers,
        }
    }

    /// The seed this setup was generated from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of peers in the generated topology.
    #[must_use]
    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }
}

/// Wall-clock breakdown of one [profiled](Simulation::run_profiled) run by
/// event phase.  `scheduling` includes `ring_search`, `serve_queue`,
/// `cache_upkeep` and `token_pass`; `generate_requests` includes
/// `request_draw`, `provider_lookup` and `request_register`; `event_loop`
/// covers the whole dispatch loop (the phases plus engine overhead).  Setup
/// time is not included — time [`Simulation::new`]/[`SimSetup::generate`]
/// separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Total events dispatched.
    pub events: u64,
    /// Wall-clock time of the whole event loop.
    pub event_loop: Duration,
    /// Time spent generating and registering requests (including arrivals).
    pub generate_requests: Duration,
    /// Time spent drawing which object to request next (a subset of
    /// `generate_requests`).
    pub request_draw: Duration,
    /// Time spent collecting a drawn object's advertised providers and
    /// sampling the ones to ask (a subset of `generate_requests`).
    pub provider_lookup: Duration,
    /// Time spent registering requests: graph inserts, scheduler hooks,
    /// the want entry and the `TrySchedule` wake-ups (a subset of
    /// `generate_requests`).
    pub request_register: Duration,
    /// Time spent filling upload slots (ring discovery + activation + the
    /// non-exchange fallback).
    pub scheduling: Duration,
    /// Time spent inside fresh ring searches (a subset of `scheduling`).
    pub ring_search: Duration,
    /// Number of fresh ring searches run.
    pub ring_searches: u64,
    /// Time spent building and patching non-exchange serve queues (a subset
    /// of `scheduling`).
    pub serve_queue: Duration,
    /// Time spent keeping the ring-candidate cache current: draining graph
    /// deltas into it, lookups and stores (a subset of `scheduling`).
    pub cache_upkeep: Duration,
    /// Time spent circulating ring tokens, i.e. confirming candidate rings
    /// member by member (a subset of `scheduling`).
    pub token_pass: Duration,
    /// Inert, always zero: read only by `perfbench` until the benchmark
    /// drops its sharded pass.
    #[doc(hidden)]
    pub shard_planning: Duration,
    /// Inert, always zero: read only by `perfbench` until the benchmark
    /// drops its sharded pass.
    #[doc(hidden)]
    pub planned_searches: u64,
    /// Inert, always zero: read only by `perfbench` until the benchmark
    /// drops its sharded pass.
    #[doc(hidden)]
    pub planned_consumed: u64,
    /// Time spent completing transfer blocks.
    pub transfers: Duration,
    /// Time spent in storage-maintenance passes.
    pub maintenance: Duration,
    /// Time spent in population-dynamics events (churn departures and
    /// rejoins, catastrophic removals, flash-crowd releases).
    pub population: Duration,
}

/// One run of the file-sharing system.
///
/// A `Simulation` is built from a [`SimConfig`] and a seed, run to its
/// configured horizon, and consumed into a [`SimReport`].  The upload
/// scheduler named by [`SimConfig::scheduler`] is instantiated as a single
/// boxed [`UploadScheduler`]; the simulation itself never names a concrete
/// mechanism.
///
/// # Example
///
/// ```
/// use sim::{SimConfig, Simulation};
///
/// let report = Simulation::new(SimConfig::quick_test(), 1).run();
/// assert!(report.total_sessions() > 0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    /// The seed the run's [`SimSetup`] was generated with.  Checkpoints
    /// store this instead of the setup itself: [`SimSetup::generate`] is
    /// pure, so restore regenerates the catalog and pristine peers and then
    /// overwrites only what the run mutated (see [`snapshot`]).
    setup_seed: u64,
    /// How many objects the setup catalog held before any flash-crowd
    /// release; the checkpoint serializes only the released delta.
    setup_objects: usize,
    catalog: Catalog,
    peers: Vec<PeerState>,
    /// One strategic behavior per peer, built from
    /// [`SimConfig::behaviors`]; indexed like `peers`.
    behaviors: Vec<Box<dyn PeerBehavior>>,
    graph: RequestGraph<PeerId, ObjectId>,
    request_gen: RequestGenerator,
    /// Open transfer sessions.  Boxed, so the table stores pointers: it
    /// grows with the session count, and while it resizes the old and new
    /// tables coexist, which with inline sessions made the last resize the
    /// high-water mark of a 10k-peer run's memory.
    transfers: HashMap<TransferId, Box<ActiveTransfer>, FastState>,
    rings: HashMap<RingId, ActiveRing, FastState>,
    uploads_by_peer: HashMap<PeerId, Vec<TransferId>, FastState>,
    downloads_by_want: HashMap<(PeerId, ObjectId), Vec<TransferId>, FastState>,
    next_transfer_id: TransferId,
    next_ring_id: RingId,
    engine: Scheduler<Event>,
    report: SimReport,
    rng_requests: DetRng,
    rng_lookup: DetRng,
    rng_storage: DetRng,
    /// Drives the population-dynamics processes: per-peer session/downtime
    /// draws and flash-crowd requester sampling.  A dedicated keyed stream,
    /// so enabling churn never perturbs the request/lookup/storage draws.
    rng_churn: DetRng,
    scheduler: Box<dyn UploadScheduler<PeerId>>,
    /// Memoised ring-search results (see [`RingCandidateCache`]); only
    /// consulted when [`SimConfig::ring_candidate_cache`] is set.
    ring_cache: RingCandidateCache,
    /// Shared ring-search working memory: BFS buffers plus the
    /// per-generation adjacency snapshot reused across providers
    /// (see [`exchange::SearchScratch`]).  The snapshot survives graph
    /// mutations: the dirty-edge drain advances it, forgetting only the
    /// queues that changed.
    scratch: SearchScratch<PeerId, ObjectId>,
    /// Which wanted objects of the current search's root each peer holds,
    /// marked from [`holders`](Self::holders) before every fresh search so
    /// the search's probes skip per-peer storage lookups (see
    /// [`search_claims`](Self::search_claims)).  Scratch state beside
    /// [`scratch`](Self::scratch): sized on the first search, never
    /// serialized.
    marks: HolderMarks,
    /// The graph generation up to which the dirty log has been drained
    /// (the `from` side of the scratch's incremental advance).
    drained_generation: u64,
    /// Sharing, online peers currently storing each object, indexed by
    /// object id and iterated in peer-id order — the lookup index that
    /// replaces the old O(peers) provider scan per issued request, and the
    /// source of every ring search's holder marks.  Maintained at every
    /// storage or presence change (download completed, eviction, departure,
    /// rejoin, flash-crowd seeding); the audit checks it after every event.
    holders: Vec<std::collections::BTreeSet<PeerId>>,
    /// How many of [`holders`](Self::holders) per object also share
    /// honestly (a middleman advertisement is only as good as an honest
    /// source).
    honest_holders: Vec<u32>,
    /// The peers whose behavior may advertise unstored objects (middlemen),
    /// in id order; behaviors are fixed per run, so this is static.
    advertisers: Vec<PeerId>,
    /// Per-peer bitmap of [`advertisers`](Self::advertisers): lets the claims
    /// oracle answer `advertises_unstored` without a virtual call.
    /// Behaviors are fixed per run, so this is static.
    advertises: Vec<bool>,
    /// Bumped whenever a transfer starts or ends; lets the scheduling loop
    /// detect that an assembled non-exchange queue is still current.
    transfer_epoch: u64,
    /// Bumped only when a transfer *ends*.  A serve queue whose graph/world
    /// stamps and end epoch still match saw at most transfer starts since it
    /// was built, and starts only shrink its eligible entry set — so it can
    /// be patched in place instead of rebuilt (see
    /// [`scheduling::ServeQueue`]).  Deliberately not serialized: serve
    /// queues are event-locals that never straddle a checkpoint, so a
    /// restored run safely restarts the counter at zero.
    transfer_end_epoch: u64,
    /// Bumped whenever a peer's storage (and with it the claims oracle)
    /// changes outside the request graph: a completed download entering the
    /// store, a maintenance eviction.  Together with
    /// [`RequestGraph::generation`] this stamps the state a serve queue was
    /// built against; the queue is reused or patched only while both are
    /// unchanged.
    world_epoch: u64,
    /// The lazy maintenance timing wheel (see [`maintenance`]).
    maintenance: MaintenanceSchedule,
    /// Whether a `StorageMaintenance` event is currently queued per peer.
    maintenance_pending: Vec<bool>,
    /// How many `GenerateRequests` events are currently queued per peer.
    /// Retries only arm when this is zero, so the on-demand retry chain
    /// stays singular even across a completion's immediate regeneration.
    generate_queued: Vec<u32>,
    /// Set by [`run_profiled`](Self::run_profiled): fresh ring searches and
    /// the scheduling and request-generation sub-phases time themselves
    /// into their `*_nanos` counters (see
    /// [`profile_timer`](Self::profile_timer)).
    profile_searches: bool,
    /// Test-only fault injection for the time-travel audit tests: when the
    /// engine's delivered-event count reaches this value,
    /// [`audit::run_audited`](Self::run_audited) corrupts one accounting
    /// tally so the audit trips deterministically.  Never serialized —
    /// callers re-arm it after [`Self::restore`] to replay the failure.
    #[cfg(feature = "audit")]
    audit_fault_at: Option<u64>,
    /// Explicit destination for the pre-failure checkpoint
    /// [`audit::run_audited`](Self::run_audited) dumps; falls back to
    /// `AUDIT_CHECKPOINT_PATH` or a temp-dir default.
    #[cfg(feature = "audit")]
    audit_dump_path: Option<std::path::PathBuf>,
    /// Nanoseconds spent in fresh ring searches (profiled runs only).
    ring_search_nanos: Cell<u64>,
    /// Number of fresh ring searches run (profiled runs only).
    ring_searches: Cell<u64>,
    /// Nanoseconds spent building and patching serve queues (profiled runs
    /// only).
    serve_queue_nanos: Cell<u64>,
    /// Nanoseconds spent in ring-cache drains, lookups and stores (profiled
    /// runs only).
    cache_upkeep_nanos: Cell<u64>,
    /// Nanoseconds spent circulating ring tokens (profiled runs only).
    token_pass_nanos: Cell<u64>,
    /// Nanoseconds spent drawing request objects (profiled runs only).
    request_draw_nanos: Cell<u64>,
    /// Nanoseconds spent looking up and sampling providers (profiled runs
    /// only).
    provider_lookup_nanos: Cell<u64>,
    /// Nanoseconds spent registering requests (profiled runs only).
    request_register_nanos: Cell<u64>,
}

impl Simulation {
    /// Builds a simulation from `config`, deterministically seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    #[must_use]
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let setup = SimSetup::generate(&config, seed);
        Simulation::from_setup(config, &setup, seed)
    }

    /// Builds a simulation on a pre-generated [`SimSetup`], regenerating only
    /// the per-run RNG streams from `seed`.
    ///
    /// `Simulation::from_setup(config, &SimSetup::generate(&config, s), s)`
    /// is bit-identical to `Simulation::new(config, s)`; sharing one setup
    /// across several run seeds is the warm-restart mode of
    /// [`crate::Scenario`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`] or the setup
    /// was generated for a different population size.
    #[must_use]
    pub fn from_setup(config: SimConfig, setup: &SimSetup, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        assert_eq!(
            setup.num_peers(),
            config.num_peers,
            "setup was generated for a different number of peers"
        );
        let root_rng = DetRng::seed_from(seed);
        let behaviors: Vec<Box<dyn PeerBehavior>> =
            setup.kinds.iter().map(crate::BehaviorKind::build).collect();
        let peers = setup.peers.clone();
        let catalog = setup.catalog.clone();
        let num_peers = config.num_peers;

        let horizon = SimTime::from_secs_f64(config.sim_duration_s);
        let mut engine = Scheduler::with_horizon(horizon);
        // Peers arrive staggered (so they do not act in lock-step), but the
        // stagger is generated on demand: each arrival schedules the next,
        // keeping the queue at O(1) arrival entries instead of O(n) upfront
        // pushes.  Maintenance events materialise lazily when a peer goes
        // over capacity (see `events.rs`), so the queue starts with exactly
        // one entry regardless of the population size.
        if num_peers > 0 {
            engine.schedule_at(SimTime::ZERO, Event::Arrive(PeerId::new(0)));
        }
        // Scripted population events are fixed points on the timeline; the
        // engine's horizon naturally drops any scheduled past the end.
        if let Some(catastrophe) = &config.catastrophe {
            engine.schedule_at(SimTime::from_secs_f64(catastrophe.at_s), Event::Catastrophe);
        }
        if let Some(flash) = &config.flash_crowd {
            engine.schedule_at(SimTime::from_secs_f64(flash.at_s), Event::FlashCrowd);
        }

        let report = SimReport::new(num_peers);
        let ring_cache = RingCandidateCache::new();
        let mut holders = vec![std::collections::BTreeSet::new(); catalog.num_objects()];
        let mut honest_holders = vec![0u32; catalog.num_objects()];
        let mut advertisers = Vec::new();
        let mut advertises = vec![false; num_peers];
        for (peer, behavior) in peers.iter().zip(behaviors.iter()) {
            if !peer.sharing {
                continue;
            }
            let honest = behavior.shares_honestly();
            for object in peer.storage.iter() {
                holders[object.as_usize()].insert(peer.id);
                if honest {
                    honest_holders[object.as_usize()] += 1;
                }
            }
            if behavior.advertises_unstored() {
                advertisers.push(peer.id);
                advertises[peer.id.as_usize()] = true;
            }
        }
        let config_maintenance_interval = config.storage_maintenance_interval_s;
        Simulation {
            setup_seed: setup.seed(),
            setup_objects: catalog.num_objects(),
            request_gen: RequestGenerator::new(),
            rng_requests: root_rng.stream("requests"),
            rng_lookup: root_rng.stream("lookup"),
            rng_storage: root_rng.stream("storage"),
            rng_churn: root_rng.stream("churn"),
            scheduler: config.scheduler.build(),
            config,
            catalog,
            peers,
            behaviors,
            graph: RequestGraph::new(),
            transfers: HashMap::default(),
            rings: HashMap::default(),
            uploads_by_peer: HashMap::default(),
            downloads_by_want: HashMap::default(),
            next_transfer_id: 0,
            next_ring_id: 0,
            engine,
            report,
            ring_cache,
            scratch: SearchScratch::new(),
            marks: HolderMarks::default(),
            drained_generation: 0,
            holders,
            honest_holders,
            advertisers,
            advertises,
            transfer_epoch: 0,
            transfer_end_epoch: 0,
            world_epoch: 0,
            maintenance: MaintenanceSchedule::new(config_maintenance_interval),
            maintenance_pending: vec![false; num_peers],
            generate_queued: vec![0; num_peers],
            profile_searches: false,
            #[cfg(feature = "audit")]
            audit_fault_at: None,
            #[cfg(feature = "audit")]
            audit_dump_path: None,
            ring_search_nanos: Cell::new(0),
            ring_searches: Cell::new(0),
            serve_queue_nanos: Cell::new(0),
            cache_upkeep_nanos: Cell::new(0),
            token_pass_nanos: Cell::new(0),
            request_draw_nanos: Cell::new(0),
            provider_lookup_nanos: Cell::new(0),
            request_register_nanos: Cell::new(0),
        }
    }

    /// The configuration this run uses.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Read access to the peers (useful for tests and examples).
    #[must_use]
    pub fn peers(&self) -> &[PeerState] {
        &self.peers
    }

    /// The label of the active upload scheduler.
    #[must_use]
    pub fn scheduler_label(&self) -> &'static str {
        self.scheduler.label()
    }

    /// Hit/miss/invalidation counters of the ring-candidate cache so far.
    /// All zeros when [`SimConfig::ring_candidate_cache`] is disabled.
    #[must_use]
    pub fn ring_cache_stats(&self) -> RingCacheStats {
        self.ring_cache.stats()
    }

    /// Swaps in a custom upload scheduler (instrumentation in tests).
    #[cfg(test)]
    pub(crate) fn set_scheduler(&mut self, scheduler: Box<dyn UploadScheduler<PeerId>>) {
        self.scheduler = scheduler;
    }

    /// Runs the simulation to its horizon and returns the collected report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        while let Some(event) = self.engine.next() {
            self.dispatch(event);
        }
        self.finalize()
    }

    /// Processes every event with a timestamp `<= until`, then stops with
    /// the simulation still live (the clock rests on the last processed
    /// event).  Running to `T` in one go and running to `T/2` then `T` are
    /// bit-identical — this is the stepping primitive behind
    /// [`run_checkpointed`](Self::run_checkpointed).
    pub fn run_until(&mut self, until: SimTime) {
        while matches!(self.engine.peek(), Some((t, _)) if t <= until) {
            let Some(event) = self.engine.next() else {
                break;
            };
            self.dispatch(event);
        }
    }

    /// Processes exactly the next event and returns its timestamp, or
    /// `None` once the horizon is reached (the simulation is then ready to
    /// [`run`](Self::run) straight to finalisation).  Stepping through a
    /// whole run event by event is bit-identical to [`run`](Self::run) —
    /// tests use this to checkpoint/restore at every event boundary.
    pub fn step(&mut self) -> Option<SimTime> {
        let event = self.engine.next()?;
        let time = self.engine.now();
        self.dispatch(event);
        Some(time)
    }

    /// Runs to the horizon like [`run`](Self::run), invoking `on_checkpoint`
    /// with `(checkpoint time, &self)` at every multiple of `every_s` virtual
    /// seconds strictly before the horizon.  The callback typically calls
    /// [`checkpoint`](Self::checkpoint) into a file; the report is
    /// bit-identical to an uninterrupted [`run`](Self::run).
    ///
    /// Checkpoint times are derived by integer multiplication of the
    /// microsecond-rounded interval, so long runs never accumulate float
    /// drift.
    ///
    /// # Panics
    ///
    /// Panics if `every_s` is not positive and finite.
    #[must_use]
    pub fn run_checkpointed<F>(mut self, every_s: f64, mut on_checkpoint: F) -> SimReport
    where
        F: FnMut(SimTime, &Simulation),
    {
        assert!(
            every_s.is_finite() && every_s > 0.0,
            "checkpoint interval must be positive and finite"
        );
        let step = SimDuration::from_secs_f64(every_s).as_micros().max(1);
        let horizon = SimTime::from_secs_f64(self.config.sim_duration_s);
        let mut k: u64 = 1;
        loop {
            let target = SimTime::from_micros(step.saturating_mul(k));
            if target >= horizon {
                break;
            }
            // A run resumed from a checkpoint starts mid-timeline; targets
            // the original run already passed are skipped rather than
            // re-announced (a fresh run starts at zero, so this never
            // fires for it).
            if target <= self.engine.now() {
                k += 1;
                continue;
            }
            self.run_until(target);
            on_checkpoint(target, &self);
            k += 1;
        }
        self.run()
    }

    /// Handles one event (the shared body of every run loop).
    pub(crate) fn dispatch(&mut self, event: Event) {
        match event {
            Event::Arrive(peer) => self.handle_arrive(peer),
            Event::GenerateRequests(peer) => self.handle_generate_requests(peer),
            Event::TrySchedule(peer) => self.handle_try_schedule(peer),
            Event::BlockComplete(transfer) => self.handle_block_complete(transfer),
            Event::StorageMaintenance(peer) => self.handle_storage_maintenance(peer),
            Event::Depart(peer) => self.handle_depart(peer),
            Event::Rejoin(peer) => self.handle_rejoin(peer),
            Event::Catastrophe => self.handle_catastrophe(),
            Event::FlashCrowd => self.handle_flash_crowd(),
        }
    }

    /// [`dispatch`](Self::dispatch) with per-phase wall-clock attribution.
    fn dispatch_profiled(&mut self, event: Event, profile: &mut PhaseProfile) {
        profile.events += 1;
        // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
        let start = Instant::now();
        match event {
            Event::Arrive(peer) => {
                self.handle_arrive(peer);
                profile.generate_requests += start.elapsed();
            }
            Event::GenerateRequests(peer) => {
                self.handle_generate_requests(peer);
                profile.generate_requests += start.elapsed();
            }
            Event::TrySchedule(peer) => {
                self.handle_try_schedule(peer);
                profile.scheduling += start.elapsed();
            }
            Event::BlockComplete(transfer) => {
                self.handle_block_complete(transfer);
                profile.transfers += start.elapsed();
            }
            Event::StorageMaintenance(peer) => {
                self.handle_storage_maintenance(peer);
                profile.maintenance += start.elapsed();
            }
            Event::Depart(peer) => {
                self.handle_depart(peer);
                profile.population += start.elapsed();
            }
            Event::Rejoin(peer) => {
                self.handle_rejoin(peer);
                profile.population += start.elapsed();
            }
            Event::Catastrophe => {
                self.handle_catastrophe();
                profile.population += start.elapsed();
            }
            Event::FlashCrowd => {
                self.handle_flash_crowd();
                profile.population += start.elapsed();
            }
        }
    }

    /// Like [`run`](Self::run), but additionally times every event phase and
    /// the fresh ring searches, returning the wall-clock breakdown alongside
    /// the report.  The report is identical to an unprofiled run.
    #[must_use]
    pub fn run_profiled(mut self) -> (SimReport, PhaseProfile) {
        self.profile_searches = true;
        let mut profile = PhaseProfile::default();
        // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
        let loop_start = Instant::now();
        while let Some(event) = self.engine.next() {
            self.dispatch_profiled(event, &mut profile);
        }
        profile.event_loop = loop_start.elapsed();
        profile.ring_search = Duration::from_nanos(self.ring_search_nanos.get());
        profile.ring_searches = self.ring_searches.get();
        profile.serve_queue = Duration::from_nanos(self.serve_queue_nanos.get());
        profile.cache_upkeep = Duration::from_nanos(self.cache_upkeep_nanos.get());
        profile.token_pass = Duration::from_nanos(self.token_pass_nanos.get());
        profile.request_draw = Duration::from_nanos(self.request_draw_nanos.get());
        profile.provider_lookup = Duration::from_nanos(self.provider_lookup_nanos.get());
        profile.request_register = Duration::from_nanos(self.request_register_nanos.get());
        (self.finalize(), profile)
    }

    /// Starts a sub-phase timer on profiled runs; `None` otherwise, so
    /// unprofiled runs never read the clock.
    fn profile_timer(&self) -> Option<Instant> {
        // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
        self.profile_searches.then(Instant::now)
    }

    /// Adds the time since `timer` started to `nanos` and returns the
    /// instant it stopped, so back-to-back sub-phases can chain one clock
    /// read each (a no-op returning `None` for an unprofiled run).
    fn add_elapsed(nanos: &Cell<u64>, timer: Option<Instant>) -> Option<Instant> {
        let start = timer?;
        // exchange-lint: allow(D002, reason = "profiling only: feeds PhaseProfile, never simulation state")
        let now = Instant::now();
        nanos.set(nanos.get() + now.duration_since(start).as_nanos() as u64);
        Some(now)
    }

    fn finalize(mut self) -> SimReport {
        // Close out still-active sessions so their bytes are accounted for.
        // Teardown walks only the open-transfer set the simulation already
        // tracks; the event queue it drops alongside is demand-driven (no
        // O(peers) standing maintenance/retry entries to deallocate).
        // exchange-lint: allow(D001, reason = "drained into a sorted Vec on the next line; teardown runs in TransferId order")
        let mut open: Vec<TransferId> = self.transfers.keys().copied().collect();
        open.sort_unstable();
        for tid in open {
            self.end_transfer(tid, SessionEnd::HorizonReached);
        }
        for peer in &self.peers {
            self.report
                .record_peer_volume(peer.class(), peer.downloaded_bytes);
            self.report.record_peer_behavior_totals(
                peer.behavior,
                peer.uploaded_bytes,
                peer.downloaded_bytes,
                peer.junk_bytes,
                peer.ciphertext_bytes,
            );
        }
        self.report.set_sim_seconds(self.engine.now().as_secs_f64());
        self.report.set_ring_cache_stats(self.ring_cache.stats());
        self.report
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Whether the current virtual time lies past the warm-up period, i.e.
    /// whether observations should enter the report.
    fn measuring(&self) -> bool {
        self.engine.now().as_secs_f64() >= self.config.warmup_s
    }

    fn peer(&self, id: PeerId) -> &PeerState {
        &self.peers[id.as_usize()]
    }

    fn peer_mut(&mut self, id: PeerId) -> &mut PeerState {
        &mut self.peers[id.as_usize()]
    }

    /// The strategic behavior of `id`.
    fn behavior(&self, id: PeerId) -> &dyn PeerBehavior {
        self.behaviors[id.as_usize()].as_ref()
    }

    /// Registers `peer` (which just stored `object`) in the lookup index.
    /// Only sharing peers serve, so only they are indexed.
    pub(crate) fn index_holding_gained(&mut self, peer: PeerId, object: ObjectId) {
        if !self.peer(peer).sharing {
            return;
        }
        if self.holders[object.as_usize()].insert(peer) && self.behavior(peer).shares_honestly() {
            self.honest_holders[object.as_usize()] += 1;
        }
    }

    /// Removes `peer` (which just evicted `object`) from the lookup index.
    pub(crate) fn index_holding_lost(&mut self, peer: PeerId, object: ObjectId) {
        if !self.peer(peer).sharing {
            return;
        }
        if self.holders[object.as_usize()].remove(&peer) && self.behavior(peer).shares_honestly() {
            self.honest_holders[object.as_usize()] -= 1;
        }
    }

    /// Whether `peer` claims to be able to serve `object` — its advertised
    /// holdings.  Every uploading behavior claims its real storage; a
    /// middleman additionally claims any object someone has an accepted
    /// request for at it (such a request is only registered when an honest
    /// holder existed to source the relay, see
    /// [`Simulation::handle_generate_requests`]).
    ///
    /// The middleman claim depends only on `peer`'s storage and its incident
    /// request edges, both of which invalidate the ring-candidate cache when
    /// they change, so cached searches stay exact under every behavior mix.
    pub(crate) fn claims(&self, peer: PeerId, object: ObjectId) -> bool {
        let state = self.peer(peer);
        // A departed peer claims nothing: its holdings are unreachable until it
        // rejoins, and a middleman's standing edges are torn down at departure.
        if !state.sharing || !state.online {
            return false;
        }
        if state.storage.contains(object) {
            return true;
        }
        self.advertises[peer.as_usize()] && self.graph.incoming(peer).any(|r| r.object == object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeerClass, SessionKind};
    use credit::SchedulerKind;
    use exchange::ExchangePolicy;

    fn run_quick(discipline: ExchangePolicy, seed: u64) -> SimReport {
        let mut config = SimConfig::quick_test();
        config.discipline = discipline;
        Simulation::new(config, seed).run()
    }

    #[test]
    fn quick_run_completes_downloads() {
        let report = run_quick(ExchangePolicy::two_five_way(), 1);
        assert!(
            report.completed_downloads() > 0,
            "some downloads must finish"
        );
        assert!(report.total_sessions() > 0);
        assert!(report.sim_seconds() > 0.0);
    }

    #[test]
    fn no_exchange_policy_creates_no_exchange_sessions() {
        let report = run_quick(ExchangePolicy::NoExchange, 2);
        assert_eq!(report.exchange_session_fraction(), 0.0);
        assert_eq!(report.total_rings(), 0);
        assert!(report.completed_downloads() > 0);
    }

    #[test]
    fn pairwise_policy_only_forms_two_way_rings() {
        let report = run_quick(ExchangePolicy::Pairwise, 3);
        for (size, count) in report.rings_formed() {
            assert!(*size == 2 || *count == 0, "unexpected ring size {size}");
        }
        for kind in report.observed_kinds() {
            if let SessionKind::Exchange { ring_size } = kind {
                assert_eq!(ring_size, 2);
            }
        }
    }

    #[test]
    fn bounded_ring_sizes_are_respected() {
        let report = run_quick(ExchangePolicy::PreferShorter { max_ring: 3 }, 4);
        for size in report.rings_formed().keys() {
            assert!(*size <= 3);
        }
    }

    #[test]
    fn same_seed_gives_identical_results() {
        let a = run_quick(ExchangePolicy::two_five_way(), 42);
        let b = run_quick(ExchangePolicy::two_five_way(), 42);
        assert_eq!(a.completed_downloads(), b.completed_downloads());
        assert_eq!(a.total_sessions(), b.total_sessions());
        assert_eq!(a.total_rings(), b.total_rings());
        assert_eq!(
            a.mean_download_time_min(PeerClass::Sharing),
            b.mean_download_time_min(PeerClass::Sharing)
        );
    }

    #[test]
    fn different_seeds_give_different_runs() {
        let a = run_quick(ExchangePolicy::two_five_way(), 1);
        let b = run_quick(ExchangePolicy::two_five_way(), 2);
        // Not strictly guaranteed, but overwhelmingly likely for a whole run.
        assert!(
            a.total_sessions() != b.total_sessions()
                || a.completed_downloads() != b.completed_downloads()
        );
    }

    #[test]
    fn exchange_policies_produce_exchange_sessions() {
        let report = run_quick(ExchangePolicy::two_five_way(), 5);
        assert!(
            report.exchange_session_fraction() > 0.0,
            "exchanges should occur under an exchange discipline"
        );
        assert!(report.total_rings() > 0);
    }

    #[test]
    fn slot_accounting_is_clean_after_run() {
        let mut config = SimConfig::quick_test();
        config.discipline = ExchangePolicy::two_five_way();
        let sim = Simulation::new(config, 6);
        let report = sim.run();
        // All sessions are closed in finalize(), so every recorded session has
        // released its slots; the report totals must be internally consistent.
        assert_eq!(
            report.total_sessions(),
            report.session_counts().values().sum::<u64>()
        );
    }

    #[test]
    fn sharing_users_do_better_under_exchanges() {
        // Use a slightly longer quick run to reduce noise.
        let mut config = SimConfig::quick_test();
        config.sim_duration_s = 6_000.0;
        config.discipline = ExchangePolicy::two_five_way();
        let report = Simulation::new(config, 7).run();
        let sharing = report.mean_download_time_min(PeerClass::Sharing);
        let non_sharing = report.mean_download_time_min(PeerClass::NonSharing);
        if let (Some(s), Some(n)) = (sharing, non_sharing) {
            assert!(
                s <= n * 1.05,
                "sharing users should not be noticeably worse off (sharing={s:.1}min, non-sharing={n:.1}min)"
            );
        }
    }

    #[test]
    fn all_honest_and_all_freerider_mixes_are_valid() {
        let mut config = SimConfig::quick_test();
        config.behaviors = crate::BehaviorMix::honest();
        let all_sharing = Simulation::new(config.clone(), 8);
        assert!(all_sharing.peers().iter().all(|p| p.sharing));
        let _ = all_sharing.run();

        config.behaviors = crate::BehaviorMix::with_freeriders(1.0);
        let none_sharing = Simulation::new(config, 9);
        assert!(none_sharing.peers().iter().all(|p| !p.sharing));
        let report = none_sharing.run();
        // Nobody uploads, so nothing can complete.
        assert_eq!(report.completed_downloads(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_config_panics() {
        let mut config = SimConfig::quick_test();
        config.num_peers = 0;
        let _ = Simulation::new(config, 1);
    }

    #[test]
    fn every_scheduler_kind_runs_and_reports_its_label() {
        for kind in SchedulerKind::all() {
            let mut config = SimConfig::quick_test();
            config.scheduler = kind;
            let sim = Simulation::new(config, 11);
            assert_eq!(sim.scheduler_label(), kind.label());
            let report = sim.run();
            assert!(
                report.completed_downloads() > 0,
                "downloads must complete under the {} scheduler",
                kind.label()
            );
        }
    }

    #[test]
    fn from_setup_with_the_setup_seed_matches_a_cold_start() {
        let config = SimConfig::quick_test();
        let setup = SimSetup::generate(&config, 17);
        assert_eq!(setup.seed(), 17);
        let warm = Simulation::from_setup(config.clone(), &setup, 17).run();
        let cold = Simulation::new(config, 17).run();
        assert_eq!(warm.completed_downloads(), cold.completed_downloads());
        assert_eq!(warm.total_sessions(), cold.total_sessions());
        assert_eq!(warm.total_rings(), cold.total_rings());
        assert_eq!(warm.session_counts(), cold.session_counts());
    }

    #[test]
    fn from_setup_varies_only_the_run_streams_across_seeds() {
        let config = SimConfig::quick_test();
        let setup = SimSetup::generate(&config, 3);
        let a = Simulation::from_setup(config.clone(), &setup, 3);
        let b = Simulation::from_setup(config.clone(), &setup, 4);
        // Identical topology...
        for (pa, pb) in a.peers().iter().zip(b.peers().iter()) {
            assert_eq!(pa.sharing, pb.sharing);
            assert_eq!(
                pa.storage.iter().collect::<Vec<_>>(),
                pb.storage.iter().collect::<Vec<_>>()
            );
        }
        // ...but different runs.
        let (ra, rb) = (a.run(), b.run());
        assert!(
            ra.total_sessions() != rb.total_sessions()
                || ra.completed_downloads() != rb.completed_downloads()
        );
    }

    #[test]
    #[should_panic(expected = "different number of peers")]
    fn from_setup_rejects_mismatched_population() {
        let config = SimConfig::quick_test();
        let setup = SimSetup::generate(&config, 1);
        let mut other = config;
        other.num_peers += 1;
        let _ = Simulation::from_setup(other, &setup, 1);
    }

    #[test]
    fn cached_runs_produce_identical_reports() {
        let mut config = SimConfig::quick_test();
        config.discipline = ExchangePolicy::two_five_way();
        let report = Simulation::new(config, 21).run();
        let mut baseline = SimConfig::quick_test();
        baseline.discipline = ExchangePolicy::two_five_way();
        baseline.ring_candidate_cache = false;
        let uncached = Simulation::new(baseline, 21).run();
        assert_eq!(report.completed_downloads(), uncached.completed_downloads());
        assert_eq!(report.total_sessions(), uncached.total_sessions());
        assert_eq!(report.total_rings(), uncached.total_rings());
    }

    #[test]
    fn profiled_runs_report_identical_results_plus_timings() {
        let mut config = SimConfig::quick_test();
        config.discipline = ExchangePolicy::two_five_way();
        let plain = Simulation::new(config.clone(), 31).run();
        let (profiled, profile) = Simulation::new(config, 31).run_profiled();
        assert_eq!(plain.completed_downloads(), profiled.completed_downloads());
        assert_eq!(plain.total_sessions(), profiled.total_sessions());
        assert!(profile.events > 0);
        assert!(profile.event_loop >= profile.scheduling);
        assert!(profile.scheduling >= profile.ring_search);
        assert!(profile.ring_searches > 0);
    }

    #[test]
    fn scheduling_sub_phases_are_disjoint_parts_of_scheduling() {
        let mut config = SimConfig::quick_test();
        config.discipline = ExchangePolicy::two_five_way();
        let (_, profile) = Simulation::new(config, 31).run_profiled();
        let parts =
            profile.ring_search + profile.serve_queue + profile.cache_upkeep + profile.token_pass;
        assert!(profile.scheduling >= parts, "{profile:?}");
        assert!(profile.serve_queue > Duration::ZERO);
        assert!(profile.cache_upkeep > Duration::ZERO);
        assert!(profile.token_pass > Duration::ZERO);
    }

    #[test]
    fn request_sub_phases_are_disjoint_parts_of_generate_requests() {
        let mut config = SimConfig::quick_test();
        config.discipline = ExchangePolicy::two_five_way();
        let (_, profile) = Simulation::new(config, 31).run_profiled();
        let parts = profile.request_draw + profile.provider_lookup + profile.request_register;
        assert!(profile.generate_requests >= parts, "{profile:?}");
        assert!(profile.request_draw > Duration::ZERO);
        assert!(profile.provider_lookup > Duration::ZERO);
        assert!(profile.request_register > Duration::ZERO);
    }

    /// `SimConfig::shards` and the three planning fields of `PhaseProfile`
    /// are inert compatibility fields: any valid shard count runs the one
    /// sequential engine, and the planning fields stay zero.  `validate`
    /// still rejects zero shards.
    #[test]
    fn shards_are_inert() {
        let fingerprint = |report: &SimReport| {
            (
                report.completed_downloads(),
                report.total_sessions(),
                report.session_end_counts().clone(),
                report.total_rings(),
                report.token_declines(),
                report.preemptions(),
                report.ring_cache_stats(),
            )
        };
        let sequential = Simulation::new(SimConfig::quick_test(), 5).run();
        let mut config = SimConfig::quick_test();
        config.shards = 4;
        let (report, profile) = Simulation::new(config.clone(), 5).run_profiled();
        assert_eq!(fingerprint(&report), fingerprint(&sequential));
        assert!(profile.ring_searches > 0);
        assert_eq!(profile.shard_planning, Duration::ZERO);
        assert_eq!(profile.planned_searches, 0);
        assert_eq!(profile.planned_consumed, 0);
        config.shards = 0;
        assert!(config.validate().is_err());
    }

    /// What one scheduler call was, for the participation-report regression
    /// test: `Request(requester)`, `Transfer(uploader)` or
    /// `Report(peer, level)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum SchedulerCall {
        Request(PeerId),
        Transfer(PeerId),
        Report(PeerId, f64),
    }

    /// A FIFO-ish scheduler that logs every lifecycle hook it receives.
    #[derive(Debug)]
    struct RecordingScheduler {
        log: std::sync::Arc<std::sync::Mutex<Vec<SchedulerCall>>>,
    }

    impl UploadScheduler<PeerId> for RecordingScheduler {
        fn on_request(&mut self, requester: PeerId, _provider: PeerId) {
            self.log
                .lock()
                .unwrap()
                .push(SchedulerCall::Request(requester));
        }

        fn on_transfer_complete(&mut self, uploader: PeerId, _downloader: PeerId, _bytes: u64) {
            self.log
                .lock()
                .unwrap()
                .push(SchedulerCall::Transfer(uploader));
        }

        fn on_participation_report(&mut self, peer: PeerId, level: f64) {
            self.log
                .lock()
                .unwrap()
                .push(SchedulerCall::Report(peer, level));
        }

        fn pick(
            &mut self,
            _provider: PeerId,
            queue: &[credit::QueuedRequest<PeerId>],
        ) -> Option<usize> {
            (!queue.is_empty()).then_some(0)
        }

        fn label(&self) -> &'static str {
            "recording"
        }
    }

    /// Regression test: `UploadScheduler::on_participation_report` must fire
    /// for peers that never upload — not only when they register a request,
    /// but also when one of their sessions ends, so a scheduler's view of a
    /// silent downloader stays current.
    #[test]
    fn participation_reports_flow_for_never_uploading_peers_and_on_session_end() {
        let mut config = SimConfig::quick_test();
        config.num_peers = 20;
        config.sim_duration_s = 2_000.0;
        config.behaviors = crate::BehaviorMix::weighted([
            (crate::BehaviorKind::Honest, 0.5),
            (crate::BehaviorKind::ParticipationCheater, 0.5),
        ]);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulation::new(config, 23);
        sim.set_scheduler(Box::new(RecordingScheduler { log: log.clone() }));
        let report = sim.run();
        assert!(report.completed_downloads() > 0, "cheaters must get served");

        let log = log.lock().unwrap();
        let uploaders: std::collections::HashSet<PeerId> = log
            .iter()
            .filter_map(|call| match call {
                SchedulerCall::Transfer(uploader) => Some(*uploader),
                _ => None,
            })
            .collect();
        // (1) Never-uploading peers deliver reports at all, and cheaters'
        // announcements arrive behavior-inflated through the trait object.
        assert!(
            log.iter().any(|call| matches!(
                call,
                SchedulerCall::Report(peer, level)
                    if !uploaders.contains(peer)
                        && *level >= crate::INFLATED_PARTICIPATION_LEVEL
            )),
            "no inflated report from a never-uploading peer reached the scheduler"
        );
        // (2) Reports are delivered on session end too.  Registration-time
        // reports are immediately preceded by an `on_request` of the same
        // peer (the registration loop notifies edge by edge, then reports);
        // any report without that prefix came from a session ending.
        let session_end_reports = log
            .iter()
            .enumerate()
            .filter(|(index, call)| {
                matches!(call, SchedulerCall::Report(peer, _)
                    if *index == 0
                        || !matches!(&log[index - 1], SchedulerCall::Request(r) if r == peer))
            })
            .count();
        assert!(
            session_end_reports > 0,
            "no participation report was delivered outside request registration"
        );
        // (3) Never-uploading peers are among the session-end reporters.
        let session_end_from_silent = log.iter().enumerate().any(|(index, call)| {
            matches!(call, SchedulerCall::Report(peer, _)
                if !uploaders.contains(peer)
                    && (index == 0
                        || !matches!(&log[index - 1], SchedulerCall::Request(r) if r == peer)))
        });
        assert!(
            session_end_from_silent,
            "session-end reports never covered a never-uploading peer"
        );
    }

    #[test]
    fn scheduler_choice_does_not_perturb_setup_rng_streams() {
        // The initial placement draws from the setup/per-peer streams only;
        // swapping the upload scheduler must leave them untouched.
        let mut fifo_config = SimConfig::quick_test();
        fifo_config.scheduler = SchedulerKind::Fifo;
        let mut tft_config = SimConfig::quick_test();
        tft_config.scheduler = SchedulerKind::TitForTat;
        let a = Simulation::new(fifo_config, 13);
        let b = Simulation::new(tft_config, 13);
        for (pa, pb) in a.peers().iter().zip(b.peers().iter()) {
            assert_eq!(pa.sharing, pb.sharing);
            let objects_a: Vec<_> = pa.storage.iter().collect();
            let objects_b: Vec<_> = pb.storage.iter().collect();
            assert_eq!(objects_a, objects_b);
        }
    }
}
