//! Deterministic random number generation with named sub-streams.
//!
//! Self-contained (no external RNG crate): the generator is xoshiro256++,
//! seeded through SplitMix64, which is plenty for simulation workloads and
//! keeps the whole workspace building without network access.

use std::ops::{Range, RangeInclusive};

/// A deterministic random source for simulations.
///
/// All randomness in a simulation should flow through a single `DetRng` (or
/// sub-streams derived from it) so that a run is fully reproducible from its
/// seed.  Sub-streams derived with [`DetRng::stream`] are independent of the
/// draw order on the parent, which keeps experiments comparable when one
/// component changes how much randomness it consumes.
///
/// # Example
///
/// ```
/// use des::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.gen_range(0..100), b.gen_range(0..100));
///
/// // Sub-streams with different labels are decorrelated but reproducible.
/// let mut s1 = a.stream("placement");
/// let mut s2 = b.stream("placement");
/// assert_eq!(s1.gen_range(0..1_000_000), s2.gen_range(0..1_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        // Expand the seed into four independent words with SplitMix64, the
        // initialisation recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(sm)
        };
        let state = [next(), next(), next(), next()];
        DetRng { seed, state }
    }

    /// The seed this generator (or stream) was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current internal xoshiro256++ state, for checkpointing.
    ///
    /// Together with [`DetRng::seed`] this captures the generator exactly:
    /// [`DetRng::from_state`] rebuilds a generator that continues the same
    /// sequence bit-for-bit and derives the same sub-streams.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Rebuilds a generator from a checkpointed `(seed, state)` pair.
    ///
    /// The `seed` determines stream derivation ([`DetRng::stream`] and
    /// friends hash it, not the state); the `state` resumes the draw
    /// sequence exactly where [`DetRng::state`] captured it.
    #[must_use]
    pub fn from_state(seed: u64, state: [u64; 4]) -> Self {
        DetRng { seed, state }
    }

    /// Derives an independent, reproducible sub-stream identified by `label`.
    ///
    /// The sub-stream depends only on the parent's seed and the label, not on
    /// how many values have already been drawn from the parent.
    #[must_use]
    pub fn stream(&self, label: &str) -> DetRng {
        let mixed = mix64(self.seed ^ fnv1a(label.as_bytes()));
        DetRng::seed_from(mixed)
    }

    /// Derives an independent sub-stream identified by a numeric index,
    /// e.g. one stream per peer.
    #[must_use]
    pub fn indexed_stream(&self, label: &str, index: u64) -> DetRng {
        let mixed = mix64(self.seed ^ fnv1a(label.as_bytes()) ^ mix64(index.wrapping_add(1)));
        DetRng::seed_from(mixed)
    }

    /// Next 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform draw from `[0, n)`; `n` must be positive.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Samples a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_unit() < p.clamp(0.0, 1.0)
    }

    /// Samples a uniform floating point number in `[0, 1)`.
    pub fn gen_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Chooses a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let index = self.below(slice.len() as u64) as usize;
            Some(&slice[index])
        }
    }

    /// Chooses the index of an element with probability proportional to
    /// `weights[i]`.  Returns `None` if `weights` is empty or all zero.
    pub fn choose_weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total.is_nan() || total <= 0.0 {
            return None;
        }
        let mut target = self.gen_unit() * total;
        for (i, w) in weights.iter().copied().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples up to `n` distinct elements of `slice` (uniformly, without
    /// replacement), in random order.
    pub fn sample<'a, T>(&mut self, slice: &'a [T], n: usize) -> Vec<&'a T> {
        let mut idx: Vec<usize> = (0..slice.len()).collect();
        self.shuffle(&mut idx);
        idx.truncate(n.min(slice.len()));
        idx.into_iter().map(|i| &slice[i]).collect()
    }
}

/// Types [`DetRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[lo, hi]` (both bounds inclusive).
    fn sample_inclusive(rng: &mut DetRng, lo: Self, hi: Self) -> Self;
    /// Samples uniformly from `[lo, hi)`.
    fn sample_exclusive(rng: &mut DetRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Only reachable for the full u64/i64/u128-like domain.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }

            fn sample_exclusive(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    /// For floats the upper bound carries measure zero; a degenerate
    /// `lo..=lo` range returns `lo` rather than panicking.
    fn sample_inclusive(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "cannot sample from empty range");
        if lo == hi {
            return lo;
        }
        Self::sample_exclusive(rng, lo, hi)
    }

    fn sample_exclusive(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "cannot sample from empty range");
        lo + rng.gen_unit() * (hi - lo)
    }
}

/// Range shapes accepted by [`DetRng::gen_range`].
pub trait SampleRange<T: SampleUniform> {
    /// Samples one value uniformly from the range.
    fn sample_from(self, rng: &mut DetRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from(self, rng: &mut DetRng) -> T {
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from(self, rng: &mut DetRng) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

/// 64-bit finalizer from SplitMix64; decorrelates structured seed inputs.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a hash of a byte string, used to turn stream labels into seed material.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn streams_are_independent_of_parent_draws() {
        let mut a = DetRng::seed_from(99);
        let b = DetRng::seed_from(99);
        // Consume some values from `a` only.
        for _ in 0..10 {
            a.next_u64();
        }
        let mut sa = a.stream("foo");
        let mut sb = b.stream("foo");
        assert_eq!(sa.next_u64(), sb.next_u64());
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let root = DetRng::seed_from(5);
        let mut x = root.stream("alpha");
        let mut y = root.stream("beta");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn indexed_streams_differ_by_index() {
        let root = DetRng::seed_from(5);
        let mut x = root.indexed_stream("peer", 0);
        let mut y = root.indexed_stream("peer", 1);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn inclusive_and_exclusive_ranges() {
        let mut rng = DetRng::seed_from(3);
        for _ in 0..1_000 {
            let v = rng.gen_range(5u32..=7);
            assert!((5..=7).contains(&v));
            let w = rng.gen_range(-3i64..3);
            assert!((-3..3).contains(&w));
            let f = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
        }
        // Inclusive bounds are actually reachable.
        let mut seen = [false; 3];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..=2)] = true;
        }
        assert_eq!(seen, [true; 3]);
        // Degenerate inclusive ranges are valid for floats too.
        assert_eq!(rng.gen_range(1.5f64..=1.5), 1.5);
        assert_eq!(rng.gen_range(4u32..=4), 4);
    }

    #[test]
    fn weighted_choice_respects_zero_weights() {
        let mut rng = DetRng::seed_from(11);
        let weights = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..50 {
            assert_eq!(rng.choose_weighted_index(&weights), Some(2));
        }
        assert_eq!(rng.choose_weighted_index(&[]), None);
        assert_eq!(rng.choose_weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_choice_is_roughly_proportional() {
        let mut rng = DetRng::seed_from(13);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[rng.choose_weighted_index(&weights).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (2.0..4.0).contains(&ratio),
            "ratio {ratio} should be near 3"
        );
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let mut rng = DetRng::seed_from(17);
        let items: Vec<u32> = (0..100).collect();
        let picked = rng.sample(&items, 10);
        assert_eq!(picked.len(), 10);
        let mut vals: Vec<u32> = picked.into_iter().copied().collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 10);
        // Asking for more than available returns everything.
        assert_eq!(rng.sample(&items, 1_000).len(), 100);
    }

    #[test]
    fn shuffle_permutes_all_elements() {
        let mut rng = DetRng::seed_from(19);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(
            xs, sorted,
            "a 50-element shuffle is overwhelmingly unlikely to be identity"
        );
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = DetRng::seed_from(23);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn gen_range_stays_in_bounds(seed in 0u64..1_000, lo in 0i64..100, width in 1i64..100) {
                let mut rng = DetRng::seed_from(seed);
                let hi = lo + width;
                for _ in 0..20 {
                    let v = rng.gen_range(lo..hi);
                    prop_assert!(v >= lo && v < hi);
                }
            }

            #[test]
            fn weighted_index_only_picks_positive_weights(
                seed in 0u64..1_000,
                weights in proptest::collection::vec(0.0f64..5.0, 1..20),
            ) {
                let mut rng = DetRng::seed_from(seed);
                if let Some(i) = rng.choose_weighted_index(&weights) {
                    prop_assert!(weights[i] > 0.0);
                } else {
                    prop_assert!(weights.iter().all(|w| *w <= 0.0));
                }
            }
        }
    }
}
