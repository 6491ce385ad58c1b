//! Truncated power-law ("Zipf-like") popularity weights.

use serde::{Deserialize, Serialize};

/// Normalised popularity weights `p(rank) ∝ rank^-f` over `n` ranks.
///
/// The paper computes the popularity of the item of rank *c* as
/// `p_c = c^-f / Σ_i i^-f`; `f = 0` gives a uniform distribution and `f = 1`
/// a Zipf-like one.  Ranks here are zero-based indices (rank 0 is the most
/// popular item).
///
/// # Example
///
/// ```
/// use workload::PowerLawWeights;
///
/// let w = PowerLawWeights::new(5, 1.0);
/// assert_eq!(w.len(), 5);
/// assert!(w.weight(0) > w.weight(4));
/// let total: f64 = (0..5).map(|i| w.weight(i)).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerLawWeights {
    /// Unnormalised `rank^-f`, most popular first.
    raw: Vec<f64>,
    /// `totals[k] = raw[0] + … + raw[k]`, summed left to right.
    totals: Vec<f64>,
    factor: f64,
}

impl PowerLawWeights {
    /// Builds normalised weights for `n` ranks with power-law factor `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `factor` is negative or not finite.
    #[must_use]
    pub fn new(n: usize, factor: f64) -> Self {
        assert!(n > 0, "popularity distribution needs at least one rank");
        assert!(
            factor.is_finite() && factor >= 0.0,
            "popularity factor must be finite and non-negative, got {factor}"
        );
        let mut weights = PowerLawWeights {
            raw: Vec::with_capacity(n),
            totals: Vec::with_capacity(n),
            factor,
        };
        weights.extend_to(n);
        weights
    }

    /// Grows the distribution to at least `n` ranks; a no-op if it already
    /// has that many.
    ///
    /// The existing ranks' raw weights are kept, so the first `k` ranks of
    /// the grown distribution still sample exactly like
    /// `PowerLawWeights::new(k, factor)`; see [`PowerLawWeights::sample_first`].
    pub fn extend_to(&mut self, n: usize) {
        for rank in self.raw.len() + 1..=n {
            let w = (rank as f64).powf(-self.factor);
            // A sequential prefix sum: `totals[k]` is bit-identical to
            // `raw[..=k].iter().sum()`, a left fold.
            let total = self.totals.last().map_or(w, |t| t + w);
            self.raw.push(w);
            self.totals.push(total);
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the distribution has no ranks (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The power-law factor this distribution was built with.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The normalised probability of the item at zero-based `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of bounds.
    #[must_use]
    pub fn weight(&self, rank: usize) -> f64 {
        self.raw[rank] / self.total(self.len())
    }

    /// All normalised weights, most popular first.
    #[must_use]
    pub fn weights(&self) -> Vec<f64> {
        (0..self.len()).map(|rank| self.weight(rank)).collect()
    }

    /// Samples a rank given a uniform draw `u` in `[0, 1)`, in O(log n); see
    /// [`PowerLawWeights::sample_first`].
    ///
    /// Exposed separately from any RNG so that callers can use their own
    /// deterministic random streams.
    #[must_use]
    pub fn sample_with(&self, u: f64) -> usize {
        self.sample_first(self.len(), u)
    }

    /// Samples a rank of the distribution truncated to its first `n` ranks
    /// and renormalised, given a uniform draw `u` in `[0, 1)`.
    ///
    /// The result is exactly that of `PowerLawWeights::new(n, factor)
    /// .sample_with(u)`, without building it: one table of the longest
    /// length serves every shorter one.
    ///
    /// The rank is defined by a linear scan that subtracts each normalised
    /// weight `raw[k] / total` from `u` until the remainder falls below the
    /// next weight.  This finds the same rank in O(log n): it binary-searches
    /// the raw prefix sums for `x = u * total` and keeps the result `k` when
    /// `x` lies more than `tol = (2n + 8) · ε · total` from both `totals[k]`
    /// and `totals[k - 1]`.  Inside that guard band, rounding could make the
    /// scan disagree (an exact tie such as `f = 0` with `u = k/n`), and so
    /// could a NaN draw, a draw past the last prefix sum or a zero-weight
    /// tail: those draws run the scan itself.
    ///
    /// The band is wide enough.  Write `u` for the draw clamped to
    /// `[0, 1 − ε]`, `T = total`, `S_k` for the exact sum of the first
    /// `k + 1` raw weights and `2⁻⁵³` for the unit roundoff.
    /// - Each of the scan's divisions and subtractions rounds by at most
    ///   `2⁻⁵³` of a value at most 1, so its running remainder drifts from
    ///   `u − S_{k-1}/T` by at most `(k + 1)·2⁻⁵³`, and its test against
    ///   `w_k` by at most `(k + 2)·2⁻⁵³`: `(k + 2)·2⁻⁵³·T` in raw units.
    /// - `totals[k]` is `k` rounded additions of values at most `T`, so it is
    ///   off `S_k` by at most `k·2⁻⁵³·T`; `x` is off `u·T` by `2⁻⁵³·T`.
    /// - So when `x` clears `totals[k]` by `tol`, `u·T` clears `S_k` by more
    ///   than `tol − (k + 1)·2⁻⁵³·T`, which exceeds the scan's drift:
    ///   `(2k + 3)·2⁻⁵³ < (4n + 16)·2⁻⁵³ = tol / T`, a margin above 2×.
    /// - Weights are non-negative, so clearing `totals[k - 1]` from above
    ///   clears every earlier prefix sum too: the scan passes every rank
    ///   before `k` and stops at `k`.
    ///
    /// Debug builds check every fast-path rank against the scan.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`PowerLawWeights::len`].
    #[must_use]
    pub fn sample_first(&self, n: usize, u: f64) -> usize {
        let total = self.total(n);
        let totals = &self.totals[..n];
        let x = u.clamp(0.0, 1.0 - f64::EPSILON) * total;
        let rank = totals.partition_point(|&t| t <= x);
        let tol = (2 * n + 8) as f64 * f64::EPSILON * total;
        // A NaN `x` fails every comparison, so it takes the scan.
        let clears_above = rank < n && totals[rank] - x > tol;
        let clears_below = rank == 0 || x - totals[rank - 1] > tol;
        if clears_above && clears_below {
            debug_assert_eq!(rank, self.scan(n, u), "n={n} u={u:e}");
            rank
        } else {
            self.scan(n, u)
        }
    }

    /// The linear scan that defines [`PowerLawWeights::sample_first`].
    fn scan(&self, n: usize, u: f64) -> usize {
        let total = self.total(n);
        let mut target = u.clamp(0.0, 1.0 - f64::EPSILON);
        for (rank, raw) in self.raw[..n].iter().enumerate() {
            // The same division `weight` performs, so each step subtracts
            // the exact normalised weight of an `n`-rank distribution.
            let w = raw / total;
            if target < w {
                return rank;
            }
            target -= w;
        }
        n - 1
    }

    /// The sum of the raw weights of the first `n` ranks.
    fn total(&self, n: usize) -> f64 {
        assert!(
            n > 0 && n <= self.len(),
            "rank count {n} outside 1..={}",
            self.len()
        );
        self.totals[n - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_factor_is_uniform() {
        let w = PowerLawWeights::new(10, 0.0);
        for i in 0..10 {
            assert!((w.weight(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_are_normalised_and_decreasing() {
        for f in [0.2, 0.5, 1.0, 2.0] {
            let w = PowerLawWeights::new(50, f);
            let total: f64 = w.weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "factor {f}");
            for i in 1..w.len() {
                assert!(w.weight(i - 1) >= w.weight(i), "factor {f} rank {i}");
            }
        }
    }

    #[test]
    fn higher_factor_is_more_skewed() {
        let flat = PowerLawWeights::new(100, 0.2);
        let steep = PowerLawWeights::new(100, 1.0);
        assert!(steep.weight(0) > flat.weight(0));
        assert!(steep.weight(99) < flat.weight(99));
    }

    #[test]
    fn sample_with_covers_all_ranks() {
        let w = PowerLawWeights::new(4, 0.0);
        assert_eq!(w.sample_with(0.0), 0);
        assert_eq!(w.sample_with(0.30), 1);
        assert_eq!(w.sample_with(0.55), 2);
        assert_eq!(w.sample_with(0.99), 3);
        // Out-of-range draws are clamped.
        assert_eq!(w.sample_with(1.5), 3);
        assert_eq!(w.sample_with(-0.5), 0);
    }

    #[test]
    fn single_rank_distribution() {
        let w = PowerLawWeights::new(1, 1.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.weight(0), 1.0);
        assert_eq!(w.sample_with(0.7), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panic() {
        let _ = PowerLawWeights::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_factor_panics() {
        let _ = PowerLawWeights::new(5, -1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn sampling_respects_bounds(n in 1usize..200, f in 0.0f64..2.0, u in 0.0f64..1.0) {
                let w = PowerLawWeights::new(n, f);
                let rank = w.sample_with(u);
                prop_assert!(rank < n);
            }

            #[test]
            fn normalisation_holds(n in 1usize..500, f in 0.0f64..3.0) {
                let w = PowerLawWeights::new(n, f);
                let total: f64 = w.weights().iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-6);
            }
        }
    }
}
