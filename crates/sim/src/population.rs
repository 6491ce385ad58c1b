//! Population dynamics: session churn, scripted catastrophes, flash-crowd
//! object releases, heterogeneous capacity classes and chunk-selection
//! strategies.
//!
//! The paper's evaluation assumes the scenario axes a real exchange network
//! has — peers joining and leaving, sudden demand spikes, unequal link
//! capacities — while the simulator's population used to be fixed for the
//! whole run.  This module holds the *plain-data* side of the subsystem
//! (configs, classes, mixes, strategies); the event-loop glue lives in
//! `simulation/population.rs`.
//!
//! All knobs default to "off" / homogeneous, and with the defaults the
//! engine draws no extra randomness: existing seeded runs stay bit-identical.

use std::fmt;

use des::DetRng;
use serde::{Deserialize, Serialize};

use crate::config::CLOCK_RESOLUTION_S;

/// Session churn: every peer alternates online sessions and offline
/// downtimes, both drawn from per-event exponential distributions off a
/// dedicated RNG stream (existing streams are untouched, so enabling churn
/// never perturbs the workload draws of a churn-free run).
///
/// A departing peer tears down its in-flight transfers and standing rings,
/// withdraws its request-graph edges and leaves the object→holders index; it
/// keeps its stored objects and re-advertises them when it rejoins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean online-session length, in seconds (exponentially distributed).
    pub mean_session_s: f64,
    /// Mean offline downtime between sessions, in seconds (exponentially
    /// distributed).
    pub mean_downtime_s: f64,
}

impl ChurnConfig {
    /// A churn process with the given mean session and downtime lengths.
    #[must_use]
    pub fn new(mean_session_s: f64, mean_downtime_s: f64) -> Self {
        ChurnConfig {
            mean_session_s,
            mean_downtime_s,
        }
    }

    /// The label used on sweep axes.
    #[must_use]
    pub fn label(&self) -> String {
        format!("on{}s-off{}s", self.mean_session_s, self.mean_downtime_s)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("churn.mean_session_s", self.mean_session_s),
            ("churn.mean_downtime_s", self.mean_downtime_s),
        ] {
            if !(v.is_finite() && v >= CLOCK_RESOLUTION_S) {
                return Err(format!(
                    "{name} must be at least the clock's 1 µs resolution, got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// A scripted catastrophic departure: at `at_s` the `top_k` online sharing
/// peers that have uploaded the most bytes leave permanently (they are never
/// rescheduled to rejoin, unlike churn departures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatastropheConfig {
    /// Simulated time of the departure, in seconds.
    pub at_s: f64,
    /// How many top providers vanish (ranked by uploaded bytes, ties to the
    /// lower peer id).
    pub top_k: usize,
}

impl CatastropheConfig {
    /// Removal of the `top_k` best providers at time `at_s`.
    #[must_use]
    pub fn new(at_s: f64, top_k: usize) -> Self {
        CatastropheConfig { at_s, top_k }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.at_s.is_finite() && self.at_s >= 0.0) {
            return Err(format!(
                "catastrophe.at_s must be non-negative, got {}",
                self.at_s
            ));
        }
        if self.top_k == 0 {
            return Err("catastrophe.top_k must be at least 1".into());
        }
        Ok(())
    }
}

/// A flash-crowd release: at `at_s` a brand-new object enters the catalog
/// (appended to the most popular category), is seeded into the storage of
/// the first `seed_holders` online sharing peers, and a burst of `requesters`
/// online peers immediately issue a request for it.  Organic request
/// generation also sees the new object from then on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdConfig {
    /// Simulated time of the release, in seconds.
    pub at_s: f64,
    /// Size of the burst: how many online peers request the object at
    /// release time (peers with no spare request budget are skipped).
    pub requesters: usize,
    /// How many online sharing peers are seeded with the object at release
    /// (the initial provider set the crowd stampedes).
    pub seed_holders: usize,
}

impl FlashCrowdConfig {
    /// A release at `at_s` with `requesters` immediate requesters and one
    /// seed holder.
    #[must_use]
    pub fn new(at_s: f64, requesters: usize) -> Self {
        FlashCrowdConfig {
            at_s,
            requesters,
            seed_holders: 1,
        }
    }

    /// Overrides the number of initial seed holders.
    #[must_use]
    pub fn with_seed_holders(mut self, seed_holders: usize) -> Self {
        self.seed_holders = seed_holders;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.at_s.is_finite() && self.at_s >= 0.0) {
            return Err(format!(
                "flash_crowd.at_s must be non-negative, got {}",
                self.at_s
            ));
        }
        if self.requesters == 0 {
            return Err("flash_crowd.requesters must be at least 1".into());
        }
        if self.seed_holders == 0 {
            return Err(
                "flash_crowd.seed_holders must be at least 1 (someone must hold the object)".into(),
            );
        }
        Ok(())
    }
}

/// A peer's access-link capacity class (coppa's `Speed`, adapted): a
/// multiplier on the per-slot transfer rate of the peer's *uploads*.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum CapacityClass {
    /// Twice the baseline per-slot rate.
    Fast,
    /// The baseline rate (the homogeneous default — a `×1.0` multiplier,
    /// which is bit-exact, so an all-`Medium` population reproduces the
    /// pre-class engine's transfers).
    #[default]
    Medium,
    /// Half the baseline rate.
    Slow,
}

impl CapacityClass {
    /// Every class, in reporting order.
    #[must_use]
    pub fn all() -> [CapacityClass; 3] {
        [
            CapacityClass::Fast,
            CapacityClass::Medium,
            CapacityClass::Slow,
        ]
    }

    /// The multiplier applied to the uploader's per-slot rate.
    #[must_use]
    pub fn rate_multiplier(&self) -> f64 {
        match self {
            CapacityClass::Fast => 2.0,
            CapacityClass::Medium => 1.0,
            CapacityClass::Slow => 0.5,
        }
    }

    /// The label used in reports and export columns.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CapacityClass::Fast => "fast",
            CapacityClass::Medium => "medium",
            CapacityClass::Slow => "slow",
        }
    }
}

impl fmt::Display for CapacityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The weighted population of capacity classes, mirroring
/// [`crate::BehaviorMix`]: largest-remainder head counts, then a
/// deterministic shuffle.
///
/// # Example
///
/// ```
/// use sim::{CapacityClass, ClassMix};
///
/// let mix = ClassMix::weighted([
///     (CapacityClass::Fast, 0.2),
///     (CapacityClass::Medium, 0.5),
///     (CapacityClass::Slow, 0.3),
/// ]);
/// assert!(mix.validate().is_ok());
/// assert_eq!(mix.counts(10), vec![
///     (CapacityClass::Fast, 2),
///     (CapacityClass::Medium, 5),
///     (CapacityClass::Slow, 3),
/// ]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassMix {
    entries: Vec<(CapacityClass, f64)>,
}

impl ClassMix {
    /// The homogeneous default: every peer is `Medium` (a `×1.0` rate
    /// multiplier — the pre-class engine).
    #[must_use]
    pub fn uniform() -> Self {
        ClassMix {
            entries: vec![(CapacityClass::Medium, 1.0)],
        }
    }

    /// Builds a mix from `(class, weight)` pairs.  Weights need not sum
    /// to 1; they are normalised.
    #[must_use]
    pub fn weighted(entries: impl IntoIterator<Item = (CapacityClass, f64)>) -> Self {
        ClassMix {
            entries: entries.into_iter().collect(),
        }
    }

    /// Appends one more `(class, weight)` entry (builder style).
    #[must_use]
    pub fn and(mut self, class: CapacityClass, weight: f64) -> Self {
        self.entries.push((class, weight));
        self
    }

    /// The raw `(class, weight)` entries, in declaration order.
    #[must_use]
    pub fn entries(&self) -> &[(CapacityClass, f64)] {
        &self.entries
    }

    /// Whether every peer lands in one class (no draw needed, no rate
    /// heterogeneity).
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        let mut classes = self.entries.iter().filter(|(_, w)| *w > 0.0);
        match classes.next() {
            Some((first, _)) => classes.all(|(class, _)| class == first),
            None => true,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: no entries,
    /// a duplicate class, a non-finite or negative weight, or an all-zero
    /// total weight.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("a class mix needs at least one entry".into());
        }
        for (class, weight) in &self.entries {
            if !weight.is_finite() || *weight < 0.0 {
                return Err(format!(
                    "class weight for {class} must be finite and non-negative, got {weight}"
                ));
            }
            if self.entries.iter().filter(|(c, _)| c == class).count() > 1 {
                return Err(format!("class {class} appears more than once in the mix"));
            }
        }
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return Err("class weights must not all be zero".into());
        }
        Ok(())
    }

    /// The per-class head counts for a population of `num_peers`, via
    /// largest-remainder rounding (ties broken towards earlier entries).
    /// The counts always sum to `num_peers`.
    #[must_use]
    pub fn counts(&self, num_peers: usize) -> Vec<(CapacityClass, usize)> {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        let mut counts: Vec<(CapacityClass, usize)> = Vec::with_capacity(self.entries.len());
        let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(self.entries.len());
        let mut assigned = 0usize;
        for (index, (class, weight)) in self.entries.iter().enumerate() {
            let ideal = weight / total * num_peers as f64;
            let floor = ideal.floor() as usize;
            assigned += floor;
            counts.push((*class, floor));
            fractions.push((index, ideal - floor as f64));
        }
        fractions.sort_by(|(ia, fa), (ib, fb)| {
            fb.partial_cmp(fa)
                .expect("class fractions are finite")
                .then(ia.cmp(ib))
        });
        for (index, _) in fractions
            .into_iter()
            .take(num_peers.saturating_sub(assigned))
        {
            counts[index].1 += 1;
        }
        counts
    }

    /// Deterministically assigns one class per peer: expand the counts in
    /// entry order, then shuffle with `rng`.  A homogeneous mix skips the
    /// shuffle (its result is position-independent), so the default
    /// all-`Medium` mix consumes no randomness at all.
    #[must_use]
    pub fn assign(&self, num_peers: usize, rng: &mut DetRng) -> Vec<CapacityClass> {
        let mut classes = Vec::with_capacity(num_peers);
        for (class, count) in self.counts(num_peers) {
            classes.extend(std::iter::repeat_n(class, count));
        }
        if !self.is_homogeneous() {
            rng.shuffle(&mut classes);
        }
        classes
    }

    /// The label used on sweep axes: `class:weight` pairs joined with `+`.
    #[must_use]
    pub fn label(&self) -> String {
        self.entries
            .iter()
            .map(|(class, weight)| format!("{class}:{weight}"))
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl Default for ClassMix {
    /// The homogeneous all-`Medium` population.
    fn default() -> Self {
        ClassMix::uniform()
    }
}

impl fmt::Display for ClassMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which object a peer asks for next, within its interest categories
/// (coppa's chunk-selection `Strategy`, adapted to whole objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SelectionStrategy {
    /// The paper's workload: a power-law popularity draw within a
    /// popularity-weighted category (the default; byte-identical to the
    /// pre-strategy engine).
    #[default]
    Popularity,
    /// Prefer the eligible object held by the *fewest* sharing peers
    /// (BitTorrent's rarest-first; ties to the lower object id).
    RarestFirst,
    /// Prefer the eligible object held by the *most* sharing peers
    /// (ties to the lower object id).
    MostCommonFirst,
    /// A uniform draw over the eligible objects of a uniformly drawn
    /// interest category.
    Uniform,
}

impl SelectionStrategy {
    /// Every strategy, in reporting order.
    #[must_use]
    pub fn all() -> [SelectionStrategy; 4] {
        [
            SelectionStrategy::Popularity,
            SelectionStrategy::RarestFirst,
            SelectionStrategy::MostCommonFirst,
            SelectionStrategy::Uniform,
        ]
    }

    /// The label used in configs and sweep axes.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SelectionStrategy::Popularity => "popularity",
            SelectionStrategy::RarestFirst => "rarest-first",
            SelectionStrategy::MostCommonFirst => "most-common-first",
            SelectionStrategy::Uniform => "uniform",
        }
    }
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One exponential draw with the given mean, floored at a millisecond so a
/// degenerate draw can never produce a zero-length session/downtime loop.
#[must_use]
pub(crate) fn exp_draw_s(rng: &mut DetRng, mean_s: f64) -> f64 {
    let u = rng.gen_unit();
    (-mean_s * (1.0 - u).ln()).max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_config_validates_bounds() {
        assert!(ChurnConfig::new(600.0, 120.0).validate().is_ok());
        assert!(ChurnConfig::new(0.0, 120.0).validate().is_err());
        assert!(ChurnConfig::new(600.0, f64::NAN).validate().is_err());
        assert_eq!(ChurnConfig::new(600.0, 120.0).label(), "on600s-off120s");
    }

    #[test]
    fn catastrophe_and_flash_crowd_validate_bounds() {
        assert!(CatastropheConfig::new(100.0, 3).validate().is_ok());
        assert!(CatastropheConfig::new(-1.0, 3).validate().is_err());
        assert!(CatastropheConfig::new(100.0, 0).validate().is_err());
        assert!(FlashCrowdConfig::new(100.0, 10).validate().is_ok());
        assert!(FlashCrowdConfig::new(100.0, 0).validate().is_err());
        assert!(FlashCrowdConfig::new(100.0, 10)
            .with_seed_holders(0)
            .validate()
            .is_err());
    }

    #[test]
    fn class_mix_counts_use_largest_remainder() {
        let mix = ClassMix::weighted([
            (CapacityClass::Fast, 0.25),
            (CapacityClass::Medium, 0.5),
            (CapacityClass::Slow, 0.25),
        ]);
        assert_eq!(
            mix.counts(8),
            vec![
                (CapacityClass::Fast, 2),
                (CapacityClass::Medium, 4),
                (CapacityClass::Slow, 2),
            ]
        );
        let total: usize = mix.counts(7).iter().map(|(_, n)| n).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn class_mix_validation_catches_bad_mixes() {
        assert!(ClassMix::uniform().validate().is_ok());
        assert!(ClassMix::weighted([]).validate().is_err());
        assert!(ClassMix::weighted([(CapacityClass::Fast, -0.1)])
            .validate()
            .is_err());
        assert!(
            ClassMix::weighted([(CapacityClass::Fast, 0.5), (CapacityClass::Fast, 0.5)])
                .validate()
                .is_err()
        );
        assert!(ClassMix::weighted([(CapacityClass::Fast, 0.0)])
            .validate()
            .is_err());
    }

    #[test]
    fn homogeneous_mixes_draw_no_randomness() {
        let mix = ClassMix::uniform();
        assert!(mix.is_homogeneous());
        let mut rng_a = DetRng::seed_from(1);
        let assigned = mix.assign(5, &mut rng_a);
        assert_eq!(assigned, vec![CapacityClass::Medium; 5]);
        // The rng must be untouched: the next draw equals a fresh stream's.
        let mut rng_b = DetRng::seed_from(1);
        assert_eq!(rng_a.gen_unit().to_bits(), rng_b.gen_unit().to_bits());
    }

    #[test]
    fn heterogeneous_assignment_is_deterministic_and_counted() {
        let mix = ClassMix::weighted([(CapacityClass::Fast, 0.5), (CapacityClass::Slow, 0.5)]);
        assert!(!mix.is_homogeneous());
        let mut rng_a = DetRng::seed_from(9);
        let mut rng_b = DetRng::seed_from(9);
        let a = mix.assign(20, &mut rng_a);
        let b = mix.assign(20, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|c| **c == CapacityClass::Fast).count(), 10);
    }

    #[test]
    fn capacity_class_multipliers_and_labels() {
        assert_eq!(CapacityClass::Fast.rate_multiplier(), 2.0);
        assert_eq!(CapacityClass::Medium.rate_multiplier(), 1.0);
        assert_eq!(CapacityClass::Slow.rate_multiplier(), 0.5);
        let labels: Vec<&str> = CapacityClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["fast", "medium", "slow"]);
    }

    #[test]
    fn selection_strategy_labels_are_distinct() {
        let labels: Vec<&str> = SelectionStrategy::all().iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn exponential_draws_are_positive_and_mean_scaled() {
        let mut rng = DetRng::seed_from(3);
        let mut sum = 0.0;
        for _ in 0..4_000 {
            let d = exp_draw_s(&mut rng, 500.0);
            assert!(d >= 1e-3);
            sum += d;
        }
        let mean = sum / 4_000.0;
        assert!((350.0..650.0).contains(&mean), "sample mean {mean}");
    }
}
