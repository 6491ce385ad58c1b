//! Per-class statistics keyed by an arbitrary label.

use std::collections::BTreeMap;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use crate::OnlineStats;

/// A map from class label to [`OnlineStats`].
///
/// Used by the simulator to keep, e.g., download times broken down by peer
/// class (sharing / non-sharing) or session bytes broken down by session type
/// (non-exchange, pairwise, 3-way, ...).  Labels are kept in a `BTreeMap`, so
/// iteration order — and therefore every printed table — is deterministic.
///
/// # Example
///
/// ```
/// use metrics::ClassTally;
///
/// let mut tally: ClassTally<&'static str> = ClassTally::new();
/// tally.record("sharing", 10.0);
/// tally.record("sharing", 20.0);
/// tally.record("freerider", 60.0);
///
/// assert_eq!(tally.get(&"sharing").unwrap().mean(), 15.0);
/// assert_eq!(tally.ratio("freerider", "sharing"), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassTally<K: Ord> {
    classes: BTreeMap<K, OnlineStats>,
}

impl<K: Ord> ClassTally<K> {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        ClassTally {
            classes: BTreeMap::new(),
        }
    }

    /// Records `value` under class `key`.
    pub fn record(&mut self, key: K, value: f64) {
        self.classes.entry(key).or_default().record(value);
    }

    /// Inserts a prebuilt accumulator under `key`, replacing any existing
    /// one.  Used when restoring a tally from a checkpoint.
    pub fn insert_stats(&mut self, key: K, stats: OnlineStats) {
        self.classes.insert(key, stats);
    }

    /// The statistics accumulated for `key`, if any observation was recorded.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&OnlineStats> {
        self.classes.get(key)
    }

    /// Mean for `key`, or `None` if the class has no observations.
    #[must_use]
    pub fn mean(&self, key: &K) -> Option<f64> {
        self.classes.get(key).map(OnlineStats::mean)
    }

    /// Ratio `mean(numerator) / mean(denominator)`, or `None` if either class
    /// is missing or the denominator mean is zero.
    #[must_use]
    pub fn ratio(&self, numerator: K, denominator: K) -> Option<f64>
    where
        K: Hash,
    {
        let num = self.classes.get(&numerator)?.mean();
        let den = self.classes.get(&denominator)?.mean();
        (den != 0.0).then(|| num / den)
    }

    /// Iterates over `(class, stats)` in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &OnlineStats)> {
        self.classes.iter()
    }

    /// Number of distinct classes observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether no observation has been recorded for any class.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Merges another tally into this one class-by-class.
    pub fn merge(&mut self, other: &ClassTally<K>)
    where
        K: Clone,
    {
        for (key, stats) in &other.classes {
            self.classes.entry(key.clone()).or_default().merge(stats);
        }
    }
}

impl<K: Ord> Default for ClassTally<K> {
    fn default() -> Self {
        ClassTally::new()
    }
}

impl<K: Ord> FromIterator<(K, f64)> for ClassTally<K> {
    fn from_iter<T: IntoIterator<Item = (K, f64)>>(iter: T) -> Self {
        let mut tally = ClassTally::new();
        for (k, v) in iter {
            tally.record(k, v);
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = ClassTally::new();
        t.record("a", 1.0);
        t.record("a", 3.0);
        t.record("b", 10.0);
        assert_eq!(t.mean(&"a"), Some(2.0));
        assert_eq!(t.mean(&"b"), Some(10.0));
        assert_eq!(t.mean(&"c"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ratio_handles_missing_and_zero() {
        let mut t = ClassTally::new();
        t.record("num", 4.0);
        t.record("den", 2.0);
        t.record("zero", 0.0);
        assert_eq!(t.ratio("num", "den"), Some(2.0));
        assert_eq!(t.ratio("num", "zero"), None);
        assert_eq!(t.ratio("num", "missing"), None);
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let mut t = ClassTally::new();
        t.record("zebra", 1.0);
        t.record("ant", 1.0);
        t.record("mole", 1.0);
        let keys: Vec<&&str> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&"ant", &"mole", &"zebra"]);
    }

    #[test]
    fn merge_combines_classes() {
        let mut a: ClassTally<u8> = [(1u8, 2.0), (2u8, 4.0)].into_iter().collect();
        let b: ClassTally<u8> = [(2u8, 8.0), (3u8, 1.0)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.mean(&1), Some(2.0));
        assert_eq!(a.mean(&2), Some(6.0));
        assert_eq!(a.mean(&3), Some(1.0));
    }

    #[test]
    fn empty_tally() {
        let t: ClassTally<u32> = ClassTally::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
    }
}
