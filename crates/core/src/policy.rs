//! Exchange disciplines and ring-search policies.

use serde::{Deserialize, Serialize};

/// Whether the ring search prefers shorter or longer rings when several are
/// feasible.
///
/// The paper calls these `2-N-way` (try pairwise first, then grow) and
/// `N-2-way` (aggressively look for the longest feasible ring first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RingPreference {
    /// Prefer the shortest feasible ring (pairwise before 3-way, ...).
    ShorterFirst,
    /// Prefer the longest feasible ring within the size bound.
    LongerFirst,
}

/// Parameters of one ring search: the bound on ring size and the preference
/// order among feasible rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SearchPolicy {
    max_ring: usize,
    preference: RingPreference,
}

impl SearchPolicy {
    /// Creates a policy bounded to rings of at most `max_ring` peers.
    ///
    /// # Panics
    ///
    /// Panics if `max_ring < 2`: the smallest exchange is pairwise.
    #[must_use]
    pub fn new(max_ring: usize, preference: RingPreference) -> Self {
        assert!(max_ring >= 2, "the smallest exchange ring has 2 peers");
        SearchPolicy {
            max_ring,
            preference,
        }
    }

    /// The maximum number of peers in a ring.
    #[must_use]
    pub fn max_ring(&self) -> usize {
        self.max_ring
    }

    /// The maximum search depth in the request tree (`max_ring - 1`
    /// predecessors, since the provider itself is the root).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_ring - 1
    }

    /// The preference order among feasible rings.
    #[must_use]
    pub fn preference(&self) -> RingPreference {
        self.preference
    }
}

impl Default for SearchPolicy {
    /// The paper's default: rings of up to five peers, shorter rings first.
    fn default() -> Self {
        SearchPolicy::new(5, RingPreference::ShorterFirst)
    }
}

/// The four upload disciplines evaluated in the paper's simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExchangePolicy {
    /// No exchange mechanism: requests are served first-come, first-served.
    NoExchange,
    /// Only pairwise (2-way) exchanges are prioritised.
    Pairwise,
    /// `N-2-way`: look for the longest feasible ring (up to `max_ring`)
    /// before falling back to shorter rings.
    PreferLonger {
        /// Upper bound on the ring size.
        max_ring: usize,
    },
    /// `2-N-way`: look for the shortest feasible ring first, growing only
    /// when no shorter ring exists.
    PreferShorter {
        /// Upper bound on the ring size.
        max_ring: usize,
    },
}

impl ExchangePolicy {
    /// The paper's `5-2-way` configuration.
    #[must_use]
    pub fn five_two_way() -> Self {
        ExchangePolicy::PreferLonger { max_ring: 5 }
    }

    /// The paper's `2-5-way` configuration.
    #[must_use]
    pub fn two_five_way() -> Self {
        ExchangePolicy::PreferShorter { max_ring: 5 }
    }

    /// Whether this discipline performs exchanges at all.
    #[must_use]
    pub fn allows_exchange(&self) -> bool {
        !matches!(self, ExchangePolicy::NoExchange)
    }

    /// The corresponding ring-search policy, or `None` for
    /// [`ExchangePolicy::NoExchange`].
    #[must_use]
    pub fn search_policy(&self) -> Option<SearchPolicy> {
        match self {
            ExchangePolicy::NoExchange => None,
            ExchangePolicy::Pairwise => Some(SearchPolicy::new(2, RingPreference::ShorterFirst)),
            ExchangePolicy::PreferLonger { max_ring } => {
                Some(SearchPolicy::new(*max_ring, RingPreference::LongerFirst))
            }
            ExchangePolicy::PreferShorter { max_ring } => {
                Some(SearchPolicy::new(*max_ring, RingPreference::ShorterFirst))
            }
        }
    }

    /// A short, stable label used in figure output
    /// (`no-exchange`, `pairwise`, `5-2-way`, `2-5-way`, ...).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ExchangePolicy::NoExchange => "no-exchange".to_string(),
            ExchangePolicy::Pairwise => "pairwise".to_string(),
            ExchangePolicy::PreferLonger { max_ring } => format!("{max_ring}-2-way"),
            ExchangePolicy::PreferShorter { max_ring } => format!("2-{max_ring}-way"),
        }
    }

    /// The four disciplines plotted in Figures 4, 5, 9, 10 and 12.
    #[must_use]
    pub fn paper_set() -> Vec<ExchangePolicy> {
        vec![
            ExchangePolicy::NoExchange,
            ExchangePolicy::Pairwise,
            ExchangePolicy::five_two_way(),
            ExchangePolicy::two_five_way(),
        ]
    }
}

impl Default for ExchangePolicy {
    fn default() -> Self {
        ExchangePolicy::two_five_way()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_policy_depth_is_ring_minus_one() {
        let p = SearchPolicy::new(5, RingPreference::LongerFirst);
        assert_eq!(p.max_ring(), 5);
        assert_eq!(p.max_depth(), 4);
        assert_eq!(p.preference(), RingPreference::LongerFirst);
    }

    #[test]
    #[should_panic(expected = "smallest exchange ring")]
    fn ring_bound_below_two_panics() {
        let _ = SearchPolicy::new(1, RingPreference::ShorterFirst);
    }

    #[test]
    fn policy_labels_match_paper_notation() {
        assert_eq!(ExchangePolicy::NoExchange.label(), "no-exchange");
        assert_eq!(ExchangePolicy::Pairwise.label(), "pairwise");
        assert_eq!(ExchangePolicy::five_two_way().label(), "5-2-way");
        assert_eq!(ExchangePolicy::two_five_way().label(), "2-5-way");
        assert_eq!(
            ExchangePolicy::PreferLonger { max_ring: 7 }.label(),
            "7-2-way"
        );
    }

    #[test]
    fn search_policies_derive_from_disciplines() {
        assert!(ExchangePolicy::NoExchange.search_policy().is_none());
        assert!(!ExchangePolicy::NoExchange.allows_exchange());

        let p = ExchangePolicy::Pairwise.search_policy().unwrap();
        assert_eq!(p.max_ring(), 2);
        assert_eq!(p.max_depth(), 1);
        assert_eq!(p.preference(), RingPreference::ShorterFirst);

        let p = ExchangePolicy::five_two_way().search_policy().unwrap();
        assert_eq!(p.max_ring(), 5);
        assert_eq!(p.preference(), RingPreference::LongerFirst);

        let p = ExchangePolicy::two_five_way().search_policy().unwrap();
        assert_eq!(p.preference(), RingPreference::ShorterFirst);
    }

    #[test]
    fn paper_set_has_four_disciplines() {
        let set = ExchangePolicy::paper_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0], ExchangePolicy::NoExchange);
    }
}
