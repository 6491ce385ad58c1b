//! Streaming summary statistics.

use serde::{Deserialize, Serialize};

/// Streaming mean / variance / min / max over a sequence of observations.
///
/// Uses Welford's online algorithm, so it is numerically stable and requires
/// constant memory regardless of how many samples are recorded.
///
/// # Example
///
/// ```
/// use metrics::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN; a NaN observation would silently poison every
    /// derived statistic.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN observation");
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sample variance (dividing by *n − 1*); 0.0 when fewer than 2 samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The raw accumulator state `(count, mean, m2, min, max, sum)`, for
    /// checkpointing.  The empty sentinel (`min = +inf`, `max = -inf`) is
    /// part of the state and round-trips through
    /// [`OnlineStats::from_raw_parts`].
    #[must_use]
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max, self.sum)
    }

    /// Rebuilds an accumulator from the state captured by
    /// [`OnlineStats::raw_parts`].
    #[must_use]
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, sum: f64) -> Self {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
            sum,
        }
    }

    /// Merges another accumulator into this one, as if all of its samples had
    /// been recorded here (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = (self.count + other.count) as f64;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total;
        self.mean = new_mean;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.record(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [1.0, 2.5, -3.0, 7.25, 0.0, 100.0, -42.5];
        let mut s = OnlineStats::new();
        xs.iter().for_each(|x| s.record(*x));
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), Some(-42.5));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (left, right) = xs.split_at(37);
        let mut a = OnlineStats::new();
        left.iter().for_each(|x| a.record(*x));
        let mut b = OnlineStats::new();
        right.iter().for_each(|x| b.record(*x));
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|x| whole.record(*x));

        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        OnlineStats::new().record(f64::NAN);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mean_is_bounded_by_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
                let mut s = OnlineStats::new();
                xs.iter().for_each(|x| s.record(*x));
                prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
                prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
                prop_assert!(s.sample_variance() >= 0.0);
            }

            #[test]
            fn merge_is_order_insensitive(
                xs in proptest::collection::vec(-1e3f64..1e3, 1..50),
                ys in proptest::collection::vec(-1e3f64..1e3, 1..50),
            ) {
                let mut a = OnlineStats::new();
                xs.iter().for_each(|x| a.record(*x));
                let mut b = OnlineStats::new();
                ys.iter().for_each(|y| b.record(*y));

                let mut ab = a;
                ab.merge(&b);
                let mut ba = b;
                ba.merge(&a);

                prop_assert_eq!(ab.count(), ba.count());
                prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
                prop_assert!((ab.sample_variance() - ba.sample_variance()).abs() < 1e-6);
            }
        }
    }
}
