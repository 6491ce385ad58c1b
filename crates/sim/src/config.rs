//! Simulation configuration (the paper's Table II plus engine knobs).

use credit::SchedulerKind;
use exchange::ExchangePolicy;
use netsim::LinkConfig;
use serde::{Deserialize, Serialize};
use workload::WorkloadConfig;

use crate::{BehaviorMix, CatastropheConfig, ChurnConfig, ClassMix, FlashCrowdConfig, Protection};

/// The simulation clock's resolution, in seconds.  Intervals and means that
/// set how often an event recurs must be at least this long: a shorter one
/// rounds to zero, and an event that re-arms itself zero microseconds later
/// keeps the clock from ever reaching the horizon.
pub(crate) const CLOCK_RESOLUTION_S: f64 = 1e-6;

/// Full configuration of one simulation run.
///
/// [`SimConfig::paper_defaults`] reproduces Table II of the paper;
/// [`SimConfig::quick_test`] is a drastically scaled-down variant for unit
/// tests and doc examples.
///
/// # Example
///
/// ```
/// use sim::SimConfig;
///
/// let config = SimConfig::paper_defaults();
/// assert_eq!(config.num_peers, 200);
/// assert_eq!(config.max_pending_objects, 6);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of peers in the system.
    pub num_peers: usize,
    /// The weighted population of peer behaviors (honest sharers,
    /// free-riders, and the Section III-B adversaries).  A plain
    /// sharer/free-rider split is [`BehaviorMix::with_freeriders`].
    pub behaviors: BehaviorMix,
    /// The Section III-B countermeasure active on the transfer path.
    pub protection: Protection,
    /// Round-trip time between peers, in seconds.  Only read by
    /// [`Protection::Windowed`], whose synchronous validation caps the
    /// exchange rate at `window × block / rtt`.
    pub rtt_s: f64,
    /// Content and storage parameters.
    pub workload: WorkloadConfig,
    /// Access-link capacities and slot size.
    pub link: LinkConfig,
    /// The exchange discipline under evaluation.
    pub discipline: ExchangePolicy,
    /// The upload scheduler ordering non-exchange requests (and, under
    /// [`ExchangePolicy::NoExchange`], all requests).  Built into a fresh
    /// [`credit::UploadScheduler`] per run.
    pub scheduler: SchedulerKind,
    /// Whether a newly feasible exchange may preempt an ongoing non-exchange
    /// upload (the paper reclaims such slots "as soon as another exchange
    /// becomes possible").
    pub preemption: bool,
    /// Maximum number of objects a peer downloads concurrently
    /// ("max pending objects" in Table II).
    pub max_pending_objects: usize,
    /// Capacity of each peer's incoming-request queue.
    pub irq_capacity: usize,
    /// Maximum number of providers a lookup returns for one object
    /// (the paper: "locate up to a certain fraction of peers").
    pub lookup_max_providers: usize,
    /// Bytes moved per transfer block.
    pub block_bytes: u64,
    /// Maximum nodes visited per ring search (bounds the per-scheduling-step
    /// cost on providers with very busy incoming-request queues).
    pub ring_search_budget: usize,
    /// Maximum incoming-request entries followed per node during ring search
    /// (the effective branching factor of the shipped request tree).
    pub ring_search_fanout: usize,
    /// How many discovered candidate rings a provider probes per scheduling
    /// step before giving up (the paper's peers pick the first feasible
    /// exchange rather than exhaustively trying every proposal).  The ring
    /// search returns at most this many, and a shorter-first search stops
    /// once it has found them.
    pub ring_attempts_per_schedule: usize,
    /// Whether discovered ring candidates are memoised across scheduling
    /// rounds (see [`crate::RingCandidateCache`], which invalidates entry by
    /// entry against what each cached search read).  The cache is exact —
    /// runs produce identical reports with it on or off — so this knob
    /// exists for benchmarking and debugging, not for accuracy trade-offs.
    pub ring_candidate_cache: bool,
    /// Inert: the simulation never reads it, so every value runs the same
    /// sequential engine.  Read only by `perfbench` until the benchmark
    /// drops its sharded pass; [`validate`](Self::validate) still rejects 0.
    #[doc(hidden)]
    pub shards: usize,
    /// Virtual length of the run, in seconds.
    pub sim_duration_s: f64,
    /// Warm-up period excluded from all reported statistics, in seconds.
    /// The system starts empty, so early completions are unrepresentative;
    /// figures use a warm-up of a few simulated hours.
    pub warmup_s: f64,
    /// Interval between a peer's storage-maintenance passes, in seconds.
    pub storage_maintenance_interval_s: f64,
    /// Interval at which a peer retries generating requests for which no
    /// provider was found, in seconds.
    pub request_retry_interval_s: f64,
    /// Session churn: peers alternate exponentially distributed online
    /// sessions and offline downtimes (`None` = the fixed population the
    /// paper simulates, the default).
    pub churn: Option<ChurnConfig>,
    /// Scripted catastrophic departure of the top-k providers (`None` = off,
    /// the default).
    pub catastrophe: Option<CatastropheConfig>,
    /// Scripted flash-crowd object release (`None` = off, the default).
    pub flash_crowd: Option<FlashCrowdConfig>,
    /// The weighted population of capacity classes (rate multipliers on
    /// uploads).  Defaults to the homogeneous all-`Medium` mix, which is
    /// bit-identical to the pre-class engine.
    pub classes: ClassMix,
}

impl SimConfig {
    /// The configuration of Table II in the paper.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SimConfig {
            num_peers: 200,
            behaviors: BehaviorMix::with_freeriders(0.5),
            protection: Protection::None,
            rtt_s: 0.2,
            workload: WorkloadConfig::paper_defaults(),
            link: LinkConfig::paper_defaults(),
            discipline: ExchangePolicy::two_five_way(),
            scheduler: SchedulerKind::Fifo,
            preemption: true,
            max_pending_objects: 6,
            irq_capacity: 1000,
            lookup_max_providers: 10,
            block_bytes: 256 * 1024,
            ring_search_budget: 6_000,
            ring_search_fanout: 16,
            ring_attempts_per_schedule: 8,
            ring_candidate_cache: true,
            shards: 1,
            sim_duration_s: 48.0 * 3600.0,
            warmup_s: 8.0 * 3600.0,
            storage_maintenance_interval_s: 600.0,
            request_retry_interval_s: 300.0,
            churn: None,
            catastrophe: None,
            flash_crowd: None,
            classes: ClassMix::uniform(),
        }
    }

    /// A small, fast configuration for tests and doc examples: 30 peers,
    /// small objects, a short horizon.
    #[must_use]
    pub fn quick_test() -> Self {
        let mut workload = WorkloadConfig::small();
        workload.object_size_bytes = 2 * 1024 * 1024;
        SimConfig {
            num_peers: 30,
            behaviors: BehaviorMix::with_freeriders(0.5),
            protection: Protection::None,
            rtt_s: 0.2,
            workload,
            link: LinkConfig::paper_defaults(),
            discipline: ExchangePolicy::two_five_way(),
            scheduler: SchedulerKind::Fifo,
            preemption: true,
            max_pending_objects: 4,
            irq_capacity: 200,
            lookup_max_providers: 8,
            block_bytes: 128 * 1024,
            ring_search_budget: 4_000,
            ring_search_fanout: 8,
            ring_attempts_per_schedule: 8,
            ring_candidate_cache: true,
            shards: 1,
            sim_duration_s: 3_000.0,
            warmup_s: 0.0,
            storage_maintenance_interval_s: 300.0,
            request_retry_interval_s: 120.0,
            churn: None,
            catastrophe: None,
            flash_crowd: None,
            classes: ClassMix::uniform(),
        }
    }

    /// Scales the run length and warm-up by `factor`, for quick looks at
    /// otherwise paper-sized experiments.
    #[must_use]
    pub fn with_duration_scale(mut self, factor: f64) -> Self {
        self.sim_duration_s *= factor.max(0.0);
        self.warmup_s *= factor.max(0.0);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_peers < 2 {
            return Err("a file-sharing system needs at least two peers".into());
        }
        self.behaviors.validate()?;
        self.protection.validate()?;
        if !(self.rtt_s.is_finite() && self.rtt_s > 0.0) {
            return Err(format!("rtt_s must be positive, got {}", self.rtt_s));
        }
        self.workload.validate()?;
        self.link.validate()?;
        if let ExchangePolicy::PreferLonger { max_ring }
        | ExchangePolicy::PreferShorter { max_ring } = self.discipline
        {
            if max_ring < 2 {
                return Err(format!(
                    "discipline max_ring must be at least 2 (a pairwise exchange), got {max_ring}"
                ));
            }
        }
        if self.max_pending_objects == 0 {
            return Err("max_pending_objects must be positive".into());
        }
        if self.irq_capacity == 0 {
            return Err("irq_capacity must be positive".into());
        }
        if self.lookup_max_providers == 0 {
            return Err("lookup_max_providers must be positive".into());
        }
        if self.block_bytes == 0 {
            return Err("block_bytes must be positive".into());
        }
        if self.ring_search_budget == 0 {
            return Err("ring_search_budget must be positive".into());
        }
        if self.ring_search_fanout == 0 {
            return Err("ring_search_fanout must be positive".into());
        }
        if self.ring_attempts_per_schedule == 0 {
            return Err("ring_attempts_per_schedule must be at least 1".into());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1 (1 = sequential scheduling)".into());
        }
        if !(self.sim_duration_s.is_finite() && self.sim_duration_s > 0.0) {
            return Err("sim_duration_s must be positive".into());
        }
        if !(self.warmup_s.is_finite() && self.warmup_s >= 0.0) {
            return Err("warmup_s must be non-negative".into());
        }
        if self.warmup_s >= self.sim_duration_s {
            return Err(format!(
                "warmup_s ({}) must be shorter than sim_duration_s ({})",
                self.warmup_s, self.sim_duration_s
            ));
        }
        for (name, v) in [
            (
                "storage_maintenance_interval_s",
                self.storage_maintenance_interval_s,
            ),
            ("request_retry_interval_s", self.request_retry_interval_s),
        ] {
            if !(v.is_finite() && v >= CLOCK_RESOLUTION_S) {
                return Err(format!(
                    "{name} must be at least the clock's 1 µs resolution, got {v}"
                ));
            }
        }
        if let Some(churn) = &self.churn {
            churn.validate()?;
        }
        if let Some(catastrophe) = &self.catastrophe {
            catastrophe.validate()?;
            if catastrophe.top_k >= self.num_peers {
                return Err(format!(
                    "catastrophe.top_k ({}) must leave at least one peer in a \
                     {}-peer system",
                    catastrophe.top_k, self.num_peers
                ));
            }
        }
        if let Some(flash_crowd) = &self.flash_crowd {
            flash_crowd.validate()?;
        }
        self.classes.validate()?;
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BehaviorKind;

    #[test]
    fn paper_defaults_match_table_ii() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.num_peers, 200);
        assert_eq!(c.behaviors.share(BehaviorKind::FreeRider), 0.5);
        assert_eq!(c.protection, Protection::None);
        assert_eq!(c.max_pending_objects, 6);
        assert_eq!(c.irq_capacity, 1000);
        assert_eq!(c.link.upload_kbps, 80.0);
        assert_eq!(c.link.download_kbps, 800.0);
        assert_eq!(c.workload.num_categories, 300);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quick_test_is_valid_and_small() {
        let c = SimConfig::quick_test();
        assert!(c.validate().is_ok());
        assert!(c.num_peers < 50);
        assert!(c.sim_duration_s < 10_000.0);
    }

    #[test]
    fn duration_scaling() {
        let c = SimConfig::paper_defaults().with_duration_scale(0.5);
        assert_eq!(c.sim_duration_s, 24.0 * 3600.0);
        assert_eq!(c.warmup_s, 4.0 * 3600.0);
    }

    #[test]
    fn warmup_must_fit_inside_duration() {
        let mut c = SimConfig::quick_test();
        c.warmup_s = c.sim_duration_s;
        assert!(c.validate().is_err());
        c.warmup_s = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SimConfig::quick_test();
        c.num_peers = 1;
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.behaviors = BehaviorMix::weighted([(BehaviorKind::Honest, -1.0)]);
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.protection = Protection::Windowed { max_window: 0 };
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.rtt_s = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.block_bytes = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.sim_duration_s = -1.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.lookup_max_providers = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.ring_attempts_per_schedule = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.churn = Some(ChurnConfig::new(0.0, 100.0));
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.catastrophe = Some(CatastropheConfig::new(100.0, c.num_peers));
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.flash_crowd = Some(FlashCrowdConfig::new(100.0, 0));
        assert!(c.validate().is_err());

        let mut c = SimConfig::quick_test();
        c.classes = ClassMix::weighted([]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn ring_bounds_below_two_and_sub_microsecond_intervals_are_rejected() {
        for max_ring in [0, 1] {
            let mut c = SimConfig::quick_test();
            c.discipline = ExchangePolicy::PreferLonger { max_ring };
            assert!(c.validate().is_err());
            c.discipline = ExchangePolicy::PreferShorter { max_ring };
            assert!(c.validate().is_err());
        }
        let tiny = 4e-7; // rounds to zero microseconds
        let mut c = SimConfig::quick_test();
        c.request_retry_interval_s = tiny;
        assert!(c.validate().is_err());
        let mut c = SimConfig::quick_test();
        c.storage_maintenance_interval_s = tiny;
        assert!(c.validate().is_err());
        let mut c = SimConfig::quick_test();
        c.churn = Some(ChurnConfig::new(100.0, tiny));
        assert!(c.validate().is_err());
        c.churn = Some(ChurnConfig::new(CLOCK_RESOLUTION_S, CLOCK_RESOLUTION_S));
        c.discipline = ExchangePolicy::PreferShorter { max_ring: 2 };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn population_knobs_default_off_and_validate_on() {
        for c in [SimConfig::paper_defaults(), SimConfig::quick_test()] {
            assert!(c.churn.is_none());
            assert!(c.catastrophe.is_none());
            assert!(c.flash_crowd.is_none());
            assert_eq!(c.classes, ClassMix::uniform());
        }
        let mut c = SimConfig::quick_test();
        c.churn = Some(ChurnConfig::new(600.0, 120.0));
        c.catastrophe = Some(CatastropheConfig::new(500.0, 2));
        c.flash_crowd = Some(FlashCrowdConfig::new(200.0, 8));
        c.classes = crate::ClassMix::weighted([
            (crate::CapacityClass::Fast, 0.3),
            (crate::CapacityClass::Medium, 0.4),
            (crate::CapacityClass::Slow, 0.3),
        ]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ring_scheduling_knobs_default_to_paper_behaviour() {
        for c in [SimConfig::paper_defaults(), SimConfig::quick_test()] {
            assert_eq!(c.ring_attempts_per_schedule, 8);
            assert!(c.ring_candidate_cache);
        }
    }
}
