//! Raw-sample collection and empirical CDF extraction.

use serde::{Deserialize, Serialize};

/// A bounded collection of raw samples.
///
/// Keeps every sample up to `capacity`; beyond that it keeps a uniform random
/// reservoir (deterministic, seeded internally from the sample count) so that
/// long runs do not consume unbounded memory while percentiles stay unbiased.
///
/// # Example
///
/// ```
/// use metrics::SampleSet;
///
/// let mut s = SampleSet::unbounded();
/// for x in 1..=100 {
///     s.record(x as f64);
/// }
/// let cdf = s.cdf();
/// assert!((cdf.percentile(0.5) - 50.0).abs() <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
}

impl SampleSet {
    /// Creates a sample set that keeps at most `capacity` samples
    /// (reservoir-sampled beyond that).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "sample capacity must be positive");
        SampleSet {
            samples: Vec::new(),
            capacity,
            seen: 0,
        }
    }

    /// Creates a sample set that keeps every sample.
    #[must_use]
    pub fn unbounded() -> Self {
        SampleSet {
            samples: Vec::new(),
            capacity: usize::MAX,
            seen: 0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN sample");
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            // Deterministic reservoir replacement driven by a cheap LCG of the
            // running count: keeps memory bounded without an external RNG.
            let r = lcg(self.seen) % self.seen;
            if (r as usize) < self.capacity {
                self.samples[r as usize % self.capacity] = value;
            }
        }
    }

    /// Total number of observations recorded (including ones evicted from the
    /// reservoir).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of samples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retained samples, unordered.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The configured retention capacity (`usize::MAX` when unbounded).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebuilds a sample set from checkpointed parts.  `seen` must be
    /// restored exactly — the deterministic reservoir replacement is driven
    /// by it, so future evictions depend on the full history count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or more samples are retained than the
    /// capacity allows.
    #[must_use]
    pub fn from_parts(samples: Vec<f64>, capacity: usize, seen: u64) -> Self {
        assert!(capacity > 0, "sample capacity must be positive");
        assert!(
            samples.len() <= capacity,
            "retained samples exceed capacity"
        );
        SampleSet {
            samples,
            capacity,
            seen,
        }
    }

    /// Arithmetic mean of the retained samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Builds the empirical CDF of the retained samples.
    #[must_use]
    pub fn cdf(&self) -> Cdf {
        Cdf::from_samples(self.samples.iter().copied())
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        >> 16
}

/// An empirical cumulative distribution function.
///
/// # Example
///
/// ```
/// use metrics::Cdf;
///
/// let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.percentile(0.0), 1.0);
/// assert_eq!(cdf.percentile(1.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples.  NaN samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    #[must_use]
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after assertion"));
        Cdf { sorted }
    }

    /// Number of samples underlying the CDF.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF was built from no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (p in `[0, 1]`) using nearest-rank interpolation.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "percentile of an empty CDF");
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile must be in [0,1], got {p}"
        );
        let idx = ((self.sorted.len() as f64 - 1.0) * p).round() as usize;
        self.sorted[idx]
    }

    /// Median shorthand.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Samples `n` evenly spaced points of the CDF as `(value, fraction)`
    /// pairs, suitable for plotting a figure series.
    #[must_use]
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let n = n.min(self.sorted.len());
        (0..n)
            .map(|i| {
                let idx = if n == 1 {
                    self.sorted.len() - 1
                } else {
                    i * (self.sorted.len() - 1) / (n - 1)
                };
                let value = self.sorted[idx];
                let frac = (idx + 1) as f64 / self.sorted.len() as f64;
                (value, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_keeps_everything() {
        let mut s = SampleSet::unbounded();
        for i in 0..1_000 {
            s.record(i as f64);
        }
        assert_eq!(s.len(), 1_000);
        assert_eq!(s.seen(), 1_000);
        assert!((s.mean() - 499.5).abs() < 1e-9);
    }

    #[test]
    fn bounded_reservoir_caps_memory() {
        let mut s = SampleSet::with_capacity(100);
        for i in 0..10_000 {
            s.record(i as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.seen(), 10_000);
        // The reservoir should contain values from across the whole range,
        // not only the first 100.
        assert!(s.samples().iter().any(|x| *x > 5_000.0));
    }

    #[test]
    fn cdf_percentiles() {
        let cdf = Cdf::from_samples((1..=10).map(f64::from));
        assert_eq!(cdf.len(), 10);
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.percentile(1.0), 10.0);
        // Nearest-rank median of an even-sized sample lands on the upper of
        // the two central observations.
        assert_eq!(cdf.median(), 6.0);
    }

    #[test]
    fn cdf_points_are_monotonic() {
        let cdf = Cdf::from_samples((0..100).map(|i| (i * i) as f64));
        let pts = cdf.points(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(std::iter::empty());
        assert!(cdf.is_empty());
        assert!(cdf.points(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty CDF")]
    fn percentile_of_empty_panics() {
        let cdf = Cdf::from_samples(std::iter::empty());
        let _ = cdf.percentile(0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SampleSet::with_capacity(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn percentile_is_an_observed_sample(xs in proptest::collection::vec(-1e4f64..1e4, 1..100), p in 0.0f64..=1.0) {
                let cdf = Cdf::from_samples(xs.iter().copied());
                let v = cdf.percentile(p);
                prop_assert!(xs.contains(&v));
            }
        }
    }
}
