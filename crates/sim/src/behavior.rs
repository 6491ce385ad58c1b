//! First-class peer behaviors: the strategic peers of Section III-B and the
//! countermeasures the paper proposes against them.
//!
//! Each peer has one fixed, stateless [`BehaviorKind`], whose methods answer
//! the questions the event loop asks about it; a validated weighted
//! population ([`BehaviorMix`]) assigns the kinds, and [`Protection`] selects
//! the countermeasure.  The five behaviors:
//!
//! * [`BehaviorKind::Honest`] — shares its stored objects, serves valid
//!   blocks, reports its true participation level.
//! * [`BehaviorKind::FreeRider`] — never uploads (the paper's "non-sharing"
//!   peers).
//! * [`BehaviorKind::JunkSender`] — uploads garbage blocks to harvest
//!   exchange priority and pairwise credit without spending real content.
//! * [`BehaviorKind::ParticipationCheater`] — never uploads but announces an
//!   inflated KaZaA-style participation level.
//! * [`BehaviorKind::Middleman`] — advertises objects it does not store and
//!   relays blocks between peers that could have traded directly, collecting
//!   exchange priority while contributing nothing of its own.
//!
//! [`Protection`] selects the Section III-B countermeasure wired into the
//! transfer path: windowed synchronous block validation
//! ([`exchange::cheat::WindowedExchange`]) or the trusted mediator
//! ([`Protection::Mediated`], one predicate of the transfer path,
//! `ciphertext_downloader`: keys are never released to a relaying
//! middleman).

use std::fmt;

use des::DetRng;
use serde::{Deserialize, Serialize};

use crate::PeerClass;

/// The participation level a [`BehaviorKind::ParticipationCheater`] adds to
/// what it actually uploaded.  Any value this large dominates every honest
/// report under the [`credit::UploadScheduler::ParticipationLevel`] scheduler.
pub const INFLATED_PARTICIPATION_LEVEL: f64 = 1.0e6;

/// A peer's strategic behavior: named in configurations, sweep axes and
/// per-behavior report breakdowns, and consulted by the event loop through
/// its methods.  Behaviors are fixed per run and stateless.
///
/// # Example
///
/// ```
/// use sim::BehaviorKind;
///
/// let honest = BehaviorKind::Honest;
/// assert!(honest.shares_honestly() && honest.block_validity());
///
/// // Middlemen upload relayed content and may advertise objects they do
/// // not store (the simulator backs such a claim only while an honest
/// // holder exists).
/// let middleman = BehaviorKind::Middleman;
/// assert!(middleman.uploads() && middleman.advertises_unstored());
/// assert!(!middleman.shares_honestly());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum BehaviorKind {
    /// The honest baseline: shares stored objects, serves valid blocks,
    /// reports its true participation level.
    #[default]
    Honest,
    /// Never uploads (the paper's "non-sharing" population).
    FreeRider,
    /// Uploads garbage: it stores and advertises real objects, but the
    /// blocks it serves are junk, harvesting exchange priority and pairwise
    /// credit at zero content cost (Section III-B's "cheat by sending
    /// junk").
    JunkSender,
    /// Never uploads but announces an inflated participation level, jumping
    /// KaZaA-style queues without contributing.
    ParticipationCheater,
    /// The Section III-B middleman: it advertises objects it does not store
    /// (as long as some honest peer could source them) and relays blocks
    /// between peers that could have exchanged directly, collecting exchange
    /// priority while never contributing content of its own.  The mediator
    /// countermeasure leaves it holding ciphertext only.
    Middleman,
}

impl BehaviorKind {
    /// Every selectable behavior, in presentation order.
    #[must_use]
    pub fn all() -> Vec<BehaviorKind> {
        vec![
            BehaviorKind::Honest,
            BehaviorKind::FreeRider,
            BehaviorKind::JunkSender,
            BehaviorKind::ParticipationCheater,
            BehaviorKind::Middleman,
        ]
    }

    /// The Section III-B adversaries (everything except
    /// [`BehaviorKind::Honest`] and the merely passive
    /// [`BehaviorKind::FreeRider`]).
    #[must_use]
    pub fn adversarial() -> Vec<BehaviorKind> {
        vec![
            BehaviorKind::JunkSender,
            BehaviorKind::ParticipationCheater,
            BehaviorKind::Middleman,
        ]
    }

    /// The label used in configs, figures and report breakdowns.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BehaviorKind::Honest => "honest",
            BehaviorKind::FreeRider => "free-rider",
            BehaviorKind::JunkSender => "junk-sender",
            BehaviorKind::ParticipationCheater => "participation-cheater",
            BehaviorKind::Middleman => "middleman",
        }
    }

    /// Whether the peer offers upload service at all.  `false` for peers
    /// that only download (free-riders, participation cheaters).
    #[must_use]
    pub fn uploads(&self) -> bool {
        !matches!(
            self,
            BehaviorKind::FreeRider | BehaviorKind::ParticipationCheater
        )
    }

    /// Whether the peer's uploads are genuine own content: it serves valid
    /// blocks of objects it actually stores.  `false` for junk senders
    /// (garbage blocks) and middlemen (relayed content) as well as for peers
    /// that do not upload; only honest holders can source a middleman relay.
    #[must_use]
    pub fn shares_honestly(&self) -> bool {
        matches!(self, BehaviorKind::Honest)
    }

    /// Whether the peer may advertise objects it does not store — the
    /// Section III-B middleman attack.  The simulator lets such a claim
    /// stand only while some honest holder could source the object.
    #[must_use]
    pub fn advertises_unstored(&self) -> bool {
        matches!(self, BehaviorKind::Middleman)
    }

    /// The participation level the peer announces, given the level its real
    /// upload volume would honestly justify.  Participation cheaters inflate
    /// this (the KaZaA exploit the paper dismisses in Section III-B).
    #[must_use]
    pub fn reported_participation(&self, honest_level: f64) -> f64 {
        match self {
            BehaviorKind::ParticipationCheater => honest_level + INFLATED_PARTICIPATION_LEVEL,
            _ => honest_level,
        }
    }

    /// Whether blocks this peer uploads carry valid data.  `false` for junk
    /// senders; countermeasures decide how quickly the garbage is caught.
    #[must_use]
    pub fn block_validity(&self) -> bool {
        !matches!(self, BehaviorKind::JunkSender)
    }

    /// The binary class this behavior falls into for the paper's
    /// sharing/non-sharing figures: peers that upload (honestly or not)
    /// count as sharing.
    #[must_use]
    pub fn class(&self) -> PeerClass {
        if self.uploads() {
            PeerClass::Sharing
        } else {
            PeerClass::NonSharing
        }
    }
}

impl fmt::Display for BehaviorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A validated, weighted population of [`BehaviorKind`]s.
///
/// The mix replaces the old `SimConfig::freerider_fraction` field: it maps a
/// peer count onto per-behavior head counts (largest-remainder rounding, so
/// the counts always sum to the population) and deterministically shuffles
/// the assignment with the run's setup RNG stream.
///
/// # Example
///
/// ```
/// use sim::{BehaviorKind, BehaviorMix};
///
/// let mix = BehaviorMix::weighted([
///     (BehaviorKind::Honest, 0.6),
///     (BehaviorKind::FreeRider, 0.2),
///     (BehaviorKind::Middleman, 0.2),
/// ]);
/// assert!(mix.validate().is_ok());
/// assert_eq!(mix.counts(10), vec![
///     (BehaviorKind::Honest, 6),
///     (BehaviorKind::FreeRider, 2),
///     (BehaviorKind::Middleman, 2),
/// ]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorMix {
    entries: Vec<(BehaviorKind, f64)>,
}

impl BehaviorMix {
    /// A population of honest sharers only.
    #[must_use]
    pub fn honest() -> Self {
        BehaviorMix {
            entries: vec![(BehaviorKind::Honest, 1.0)],
        }
    }

    /// The paper's classic binary population: `fraction` free-riders, the
    /// rest honest.  Degenerates to a single-entry mix at 0 and 1.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` lies in `[0, 1]` — preserving the error the
    /// old `freerider_fraction` config field raised on out-of-range values
    /// (a silently clamped `50` instead of `0.5` would sweep the wrong
    /// population).
    #[must_use]
    pub fn with_freeriders(fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "freerider fraction must be in [0, 1], got {fraction}"
        );
        if fraction <= 0.0 {
            return BehaviorMix::honest();
        }
        if fraction >= 1.0 {
            return BehaviorMix {
                entries: vec![(BehaviorKind::FreeRider, 1.0)],
            };
        }
        // Free-riders first: mirrors the legacy flag layout, so the shuffled
        // assignment is bit-identical to the old `freerider_fraction` code
        // for the same seed.
        BehaviorMix {
            entries: vec![
                (BehaviorKind::FreeRider, fraction),
                (BehaviorKind::Honest, 1.0 - fraction),
            ],
        }
    }

    /// Builds a mix from `(kind, weight)` pairs.  Weights need not sum to 1;
    /// they are normalised.  Call [`BehaviorMix::validate`] (or let
    /// [`crate::SimConfig::validate`] do it) before running.
    #[must_use]
    pub fn weighted(entries: impl IntoIterator<Item = (BehaviorKind, f64)>) -> Self {
        BehaviorMix {
            entries: entries.into_iter().collect(),
        }
    }

    /// Appends one more `(kind, weight)` entry (builder style).
    #[must_use]
    pub fn and(mut self, kind: BehaviorKind, weight: f64) -> Self {
        self.entries.push((kind, weight));
        self
    }

    /// The raw `(kind, weight)` entries, in declaration order.
    #[must_use]
    pub fn entries(&self) -> &[(BehaviorKind, f64)] {
        &self.entries
    }

    /// The normalised population share of `kind` (0 if absent).
    #[must_use]
    pub fn share(&self, kind: BehaviorKind) -> f64 {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.entries
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, w)| w / total)
            .sum()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: no entries,
    /// a duplicate kind, a non-finite or negative weight, or an all-zero
    /// total weight.
    pub fn validate(&self) -> Result<(), String> {
        crate::mix::validate("behavior", &self.entries)
    }

    /// The per-behavior head counts for a population of `num_peers`, via
    /// largest-remainder rounding (ties broken towards earlier entries).
    /// The counts always sum to `num_peers`.
    #[must_use]
    pub fn counts(&self, num_peers: usize) -> Vec<(BehaviorKind, usize)> {
        crate::mix::counts(&self.entries, num_peers)
    }

    /// Deterministically assigns one behavior per peer: expand the counts in
    /// entry order, then shuffle with `rng`.
    #[must_use]
    pub fn assign(&self, num_peers: usize, rng: &mut DetRng) -> Vec<BehaviorKind> {
        let mut kinds = Vec::with_capacity(num_peers);
        for (kind, count) in self.counts(num_peers) {
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        rng.shuffle(&mut kinds);
        kinds
    }

    /// The label used on sweep axes: `kind:weight` pairs joined with `+`.
    #[must_use]
    pub fn label(&self) -> String {
        self.entries
            .iter()
            .map(|(kind, weight)| format!("{kind}:{weight}"))
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl Default for BehaviorMix {
    /// The paper's Table II population: half free-riders.
    fn default() -> Self {
        BehaviorMix::with_freeriders(0.5)
    }
}

impl fmt::Display for BehaviorMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The Section III-B countermeasure wired into the transfer path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Protection {
    /// No protection: junk is discovered only after a full object's worth of
    /// garbage arrived, and middlemen keep everything they receive.
    #[default]
    None,
    /// Synchronous windowed block validation
    /// ([`exchange::cheat::WindowedExchange`]): each exchange session
    /// validates block-by-block, so a junk sender is caught on its first
    /// block, at the price of capping the exchange rate at
    /// `window × block / rtt` while the trust window grows to `max_window`.
    Windowed {
        /// Upper bound of the adaptive validation window, in blocks.
        max_window: u32,
    },
    /// The trusted mediator: transfers are encrypted end-to-end and keys are
    /// released only to the peer the true origin named, so junk is caught at
    /// the first sampled block and a relaying middleman is left with
    /// ciphertext it can never decrypt.  The transfer path's
    /// `ciphertext_downloader` predicate is the whole model: under this
    /// protection, every byte a middleman downloads counts as ciphertext.
    Mediated,
}

impl Protection {
    /// The canonical comparison set: unprotected, windowed (window 8), and
    /// mediated.
    #[must_use]
    pub fn all_basic() -> Vec<Protection> {
        vec![
            Protection::None,
            Protection::Windowed { max_window: 8 },
            Protection::Mediated,
        ]
    }

    /// The label used in configs, sweep axes and figures.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Protection::None => "none".to_string(),
            Protection::Windowed { max_window } => format!("windowed-{max_window}"),
            Protection::Mediated => "mediated".to_string(),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint (a zero validation
    /// window).
    pub fn validate(&self) -> Result<(), String> {
        if let Protection::Windowed { max_window } = self {
            if *max_window == 0 {
                return Err("windowed protection needs max_window >= 1".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_displayed() {
        let kinds = BehaviorKind::all();
        for (i, kind) in kinds.iter().enumerate() {
            assert_eq!(kind.to_string(), kind.label());
            assert!(kinds[..i].iter().all(|k| k.label() != kind.label()));
        }
    }

    #[test]
    fn hook_matrix_matches_section_iii_b() {
        let honest = BehaviorKind::Honest;
        assert!(honest.uploads() && honest.shares_honestly() && honest.block_validity());
        assert!(!honest.advertises_unstored());
        assert_eq!(honest.reported_participation(7.0), 7.0);

        let freerider = BehaviorKind::FreeRider;
        assert!(!freerider.uploads());
        assert!(!freerider.shares_honestly());

        let junk = BehaviorKind::JunkSender;
        assert!(junk.uploads() && !junk.shares_honestly() && !junk.block_validity());

        let cheater = BehaviorKind::ParticipationCheater;
        assert!(!cheater.uploads());
        assert!(cheater.reported_participation(1.0) >= INFLATED_PARTICIPATION_LEVEL);

        let middleman = BehaviorKind::Middleman;
        assert!(middleman.uploads() && !middleman.shares_honestly());
        assert!(middleman.advertises_unstored());
        assert!(middleman.block_validity(), "relayed blocks are real data");
    }

    #[test]
    fn classes_split_on_uploading() {
        assert_eq!(BehaviorKind::Honest.class(), PeerClass::Sharing);
        assert_eq!(BehaviorKind::JunkSender.class(), PeerClass::Sharing);
        assert_eq!(BehaviorKind::Middleman.class(), PeerClass::Sharing);
        assert_eq!(BehaviorKind::FreeRider.class(), PeerClass::NonSharing);
        assert_eq!(
            BehaviorKind::ParticipationCheater.class(),
            PeerClass::NonSharing
        );
    }

    #[test]
    fn freerider_mix_reproduces_legacy_rounding() {
        let mix = BehaviorMix::with_freeriders(0.5);
        assert_eq!(
            mix.counts(31),
            vec![(BehaviorKind::FreeRider, 16), (BehaviorKind::Honest, 15)],
            "ties round towards the free-rider entry, like round()"
        );
        assert_eq!(
            mix.counts(30),
            vec![(BehaviorKind::FreeRider, 15), (BehaviorKind::Honest, 15)]
        );
        for n in [0usize, 1, 7, 100] {
            let total: usize = mix.counts(n).iter().map(|(_, c)| c).sum();
            assert_eq!(total, n);
        }
    }

    #[test]
    fn degenerate_freerider_fractions_collapse() {
        assert_eq!(BehaviorMix::with_freeriders(0.0), BehaviorMix::honest());
        let all = BehaviorMix::with_freeriders(1.0);
        assert_eq!(all.counts(5), vec![(BehaviorKind::FreeRider, 5)]);
        assert_eq!(all.share(BehaviorKind::FreeRider), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_freerider_fractions_are_rejected() {
        let _ = BehaviorMix::with_freeriders(1.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn nan_freerider_fractions_are_rejected() {
        let _ = BehaviorMix::with_freeriders(f64::NAN);
    }

    #[test]
    fn only_the_middleman_advertises_unstored_objects() {
        for kind in BehaviorKind::all() {
            assert_eq!(
                kind.advertises_unstored(),
                kind == BehaviorKind::Middleman,
                "{kind}"
            );
        }
    }

    #[test]
    fn counts_cover_the_population_for_uneven_weights() {
        let mix = BehaviorMix::weighted([
            (BehaviorKind::Honest, 1.0),
            (BehaviorKind::JunkSender, 1.0),
            (BehaviorKind::Middleman, 1.0),
        ]);
        let counts = mix.counts(10);
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
        for (_, c) in counts {
            assert!((3..=4).contains(&c));
        }
    }

    #[test]
    fn assignment_is_deterministic_and_complete() {
        let mix = BehaviorMix::weighted([
            (BehaviorKind::Honest, 0.5),
            (BehaviorKind::FreeRider, 0.25),
            (BehaviorKind::Middleman, 0.25),
        ]);
        let a = mix.assign(40, &mut DetRng::seed_from(9));
        let b = mix.assign(40, &mut DetRng::seed_from(9));
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert_eq!(
            a.iter().filter(|k| **k == BehaviorKind::Middleman).count(),
            10
        );
    }

    #[test]
    fn validation_rejects_bad_mixes() {
        assert!(BehaviorMix::weighted([]).validate().is_err());
        assert!(BehaviorMix::weighted([(BehaviorKind::Honest, -1.0)])
            .validate()
            .is_err());
        assert!(BehaviorMix::weighted([(BehaviorKind::Honest, f64::NAN)])
            .validate()
            .is_err());
        assert!(BehaviorMix::weighted([(BehaviorKind::Honest, 0.0)])
            .validate()
            .is_err());
        assert!(
            BehaviorMix::weighted([(BehaviorKind::Honest, 0.5), (BehaviorKind::Honest, 0.5)])
                .validate()
                .is_err()
        );
        assert!(BehaviorMix::honest()
            .and(BehaviorKind::JunkSender, 0.25)
            .validate()
            .is_ok());
    }

    #[test]
    fn shares_are_normalised() {
        let mix =
            BehaviorMix::weighted([(BehaviorKind::Honest, 3.0), (BehaviorKind::FreeRider, 1.0)]);
        assert!((mix.share(BehaviorKind::Honest) - 0.75).abs() < 1e-12);
        assert!((mix.share(BehaviorKind::FreeRider) - 0.25).abs() < 1e-12);
        assert_eq!(mix.share(BehaviorKind::Middleman), 0.0);
    }

    #[test]
    fn labels_are_stable() {
        let mix =
            BehaviorMix::weighted([(BehaviorKind::Honest, 0.5), (BehaviorKind::JunkSender, 0.5)]);
        assert_eq!(mix.label(), "honest:0.5+junk-sender:0.5");
        assert_eq!(Protection::None.label(), "none");
        assert_eq!(Protection::Windowed { max_window: 8 }.label(), "windowed-8");
        assert_eq!(Protection::Mediated.to_string(), "mediated");
    }

    #[test]
    fn protection_validation() {
        assert!(Protection::None.validate().is_ok());
        assert!(Protection::Windowed { max_window: 1 }.validate().is_ok());
        assert!(Protection::Windowed { max_window: 0 }.validate().is_err());
        assert!(Protection::Mediated.validate().is_ok());
        assert_eq!(Protection::all_basic().len(), 3);
    }
}
