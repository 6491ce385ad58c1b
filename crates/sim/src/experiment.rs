//! The canonical scenarios behind every figure of the paper's evaluation.
//!
//! Each function assembles the [`Scenario`] one figure sweeps — callers pick
//! the seeds (`.seeds(0..n)`), optionally cap parallelism, and `.run()` the
//! grid.  The figure binaries in the `exchange-bench` crate consume these
//! and format the aggregated [`SweepGrid`](crate::SweepGrid) rows into the
//! tables the paper plots.
//!
//! # Example
//!
//! ```
//! use sim::{experiment, ExchangeDiscipline, PeerClass, SimConfig};
//!
//! let mut base = SimConfig::quick_test();
//! base.num_peers = 20;
//! base.sim_duration_s = 800.0;
//! let grid = experiment::capacity_scenario(
//!     &base,
//!     &[ExchangeDiscipline::NoExchange, ExchangeDiscipline::Pairwise],
//!     &[60.0, 100.0],
//! )
//! .seeds(0..2)
//! .run();
//! assert_eq!(grid.rows().len(), 8); // 2 capacities x 2 policies x 2 seeds
//! let fast = grid
//!     .aggregate_where(&[("upload_kbps", "100"), ("discipline", "pairwise")], |r| {
//!         Some(r.exchange_session_fraction())
//!     })
//!     .unwrap();
//! assert!(fast.mean >= 0.0);
//! # let _ = PeerClass::Sharing;
//! ```

use exchange::ExchangePolicy;

use crate::{
    Axis, BehaviorMix, Protection, Scenario, SessionKind, SimConfig, SimReport, Simulation,
};

/// Figures 4 and 5: mean download time and exchange-session fraction as the
/// upload capacity varies, for each discipline.
#[must_use]
pub fn capacity_scenario(
    base: &SimConfig,
    policies: &[ExchangePolicy],
    capacities_kbps: &[f64],
) -> Scenario {
    Scenario::from(base.clone())
        .vary(Axis::UploadKbps(capacities_kbps.to_vec()))
        .disciplines(policies.iter().copied())
}

/// Figure 6: the benefit of higher-order exchanges as the maximum ring size
/// grows, for both preference orders (`N-2-way` and `2-N-way`).
///
/// Ring sizes below 2 degrade to [`ExchangePolicy::NoExchange`].
#[must_use]
pub fn ring_size_scenario(base: &SimConfig, max_sizes: &[usize]) -> Scenario {
    let mut policies = Vec::with_capacity(max_sizes.len() * 2);
    for &max_ring in max_sizes {
        for prefer_longer in [true, false] {
            let policy = if max_ring < 2 {
                ExchangePolicy::NoExchange
            } else if max_ring == 2 {
                // Both search orders coincide at N = 2: a single pairwise run.
                ExchangePolicy::Pairwise
            } else if prefer_longer {
                ExchangePolicy::PreferLonger { max_ring }
            } else {
                ExchangePolicy::PreferShorter { max_ring }
            };
            if !policies.contains(&policy) {
                policies.push(policy);
            }
        }
    }
    Scenario::from(base.clone()).disciplines(policies)
}

/// Figures 9 and 10: the effect of the popularity factor `f` on download
/// times and transferred volume, for each discipline.
#[must_use]
pub fn popularity_scenario(
    base: &SimConfig,
    policies: &[ExchangePolicy],
    factors: &[f64],
) -> Scenario {
    Scenario::from(base.clone())
        .vary(Axis::PopularityFactor(factors.to_vec()))
        .disciplines(policies.iter().copied())
}

/// Figure 11: the download-time ratio between sharing and non-sharing users
/// as a function of the maximum number of outstanding requests, for several
/// values of categories-per-peer.
#[must_use]
pub fn outstanding_scenario(
    base: &SimConfig,
    outstanding: &[usize],
    categories_per_peer: &[u32],
) -> Scenario {
    Scenario::from(base.clone())
        .vary(Axis::CategoriesPerPeer(categories_per_peer.to_vec()))
        .vary(Axis::MaxPendingObjects(outstanding.to_vec()))
}

/// Figure 12: mean download times as the fraction of non-sharing peers
/// varies, for each discipline.
#[must_use]
pub fn freerider_scenario(
    base: &SimConfig,
    policies: &[ExchangePolicy],
    fractions: &[f64],
) -> Scenario {
    Scenario::from(base.clone())
        .vary(Axis::FreeriderFraction(fractions.to_vec()))
        .disciplines(policies.iter().copied())
}

/// Section III-B: every behavior mix under every countermeasure — how much
/// does each cheater gain under a given scheduler × protection combination?
/// Read the answers off [`crate::SimReport::behavior_stats`].
#[must_use]
pub fn cheating_scenario(
    base: &SimConfig,
    mixes: &[BehaviorMix],
    protections: &[Protection],
) -> Scenario {
    Scenario::from(base.clone())
        .behaviors(mixes.iter().cloned())
        .protections(protections.iter().copied())
}

/// Figures 7 and 8: a single run whose per-session distributions (bytes and
/// waiting times, broken down by session kind) are read straight off the
/// returned report.
#[must_use]
pub fn session_distributions(base: &SimConfig, seed: u64) -> SimReport {
    Simulation::new(base.clone(), seed).run()
}

/// The session kinds the paper plots in Figures 7 and 8, in plot order.
#[must_use]
pub fn figure_session_kinds(max_ring: usize) -> Vec<SessionKind> {
    let mut kinds = vec![SessionKind::NonExchange];
    for size in 2..=max_ring.max(2) {
        kinds.push(SessionKind::Exchange { ring_size: size });
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeerClass;

    fn tiny_base() -> SimConfig {
        let mut config = SimConfig::quick_test();
        config.num_peers = 20;
        config.sim_duration_s = 1_200.0;
        config
    }

    #[test]
    fn capacity_scenario_produces_one_point_per_combination() {
        let grid = capacity_scenario(
            &tiny_base(),
            &[ExchangePolicy::NoExchange, ExchangePolicy::Pairwise],
            &[40.0, 80.0],
        )
        .seeds([1])
        .run();
        assert_eq!(grid.points().len(), 4);
        assert_eq!(grid.rows().len(), 4);
        // The no-exchange runs never report exchange sessions.
        for point in grid.points() {
            let fraction = grid
                .aggregate(point.index, |r| Some(r.exchange_session_fraction()))
                .unwrap();
            assert!(fraction.mean >= 0.0);
            if point.value("discipline") == Some("no-exchange") {
                assert_eq!(fraction.mean, 0.0);
            }
        }
    }

    #[test]
    fn capacity_scenario_aggregates_means_across_parallel_seeds() {
        // The acceptance bar of the API redesign: one builder call, >= 3
        // seeds, parallel execution, aggregated means per point.
        let grid = capacity_scenario(&tiny_base(), &[ExchangePolicy::two_five_way()], &[80.0])
            .seeds(0..3)
            .run();
        assert_eq!(grid.rows().len(), 3);
        let downloads = grid
            .aggregate(0, |r| Some(r.completed_downloads() as f64))
            .unwrap();
        assert_eq!(downloads.n, 3);
        assert!(downloads.mean > 0.0);
        let sharing = grid.aggregate(0, |r| r.mean_download_time_min(PeerClass::Sharing));
        assert!(sharing.is_none_or(|a| a.n <= 3));
    }

    #[test]
    fn ring_size_scenario_covers_both_preferences() {
        let grid = ring_size_scenario(&tiny_base(), &[2, 3]).seeds([2]).run();
        let labels: Vec<&str> = grid
            .points()
            .iter()
            .filter_map(|p| p.value("discipline"))
            .collect();
        assert_eq!(labels, ["pairwise", "3-2-way", "2-3-way"]);
    }

    #[test]
    fn popularity_scenario_sets_factor() {
        let scenario = popularity_scenario(&tiny_base(), &[ExchangePolicy::Pairwise], &[0.0, 1.0]);
        let points = scenario.points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].config.workload.object_popularity_factor, 0.0);
        assert_eq!(points[1].config.workload.category_popularity_factor, 1.0);
    }

    #[test]
    fn outstanding_scenario_crosses_parameters() {
        let grid = outstanding_scenario(&tiny_base(), &[2, 4], &[2, 4])
            .seeds([4])
            .run();
        assert_eq!(grid.points().len(), 4);
        let ratio = grid.aggregate_where(
            &[("max_pending", "2"), ("categories_per_peer", "4")],
            SimReport::download_time_ratio,
        );
        // The tiny run may not complete downloads in both classes; the
        // lookup itself must still resolve.
        assert!(grid
            .find_point(&[("max_pending", "2"), ("categories_per_peer", "4")])
            .is_some());
        assert!(ratio.is_none_or(|a| a.mean > 0.0));
    }

    #[test]
    fn freerider_scenario_varies_population() {
        let scenario =
            freerider_scenario(&tiny_base(), &[ExchangePolicy::two_five_way()], &[0.2, 0.8]);
        let points = scenario.points();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].config.behaviors,
            BehaviorMix::with_freeriders(0.2)
        );
        assert_eq!(
            points[1].config.behaviors,
            BehaviorMix::with_freeriders(0.8)
        );
    }

    #[test]
    fn cheating_scenario_crosses_mixes_and_protections() {
        use crate::BehaviorKind;
        let mixes = [
            BehaviorMix::with_freeriders(0.5),
            BehaviorMix::weighted([
                (BehaviorKind::Honest, 0.5),
                (BehaviorKind::JunkSender, 0.25),
                (BehaviorKind::Middleman, 0.25),
            ]),
        ];
        let scenario = cheating_scenario(&tiny_base(), &mixes, &Protection::all_basic());
        let points = scenario.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].config.protection, Protection::None);
        assert_eq!(points[2].config.protection, Protection::Mediated);
        assert_eq!(points[5].config.behaviors, mixes[1]);
    }

    #[test]
    fn figure_kinds_are_ordered_and_complete() {
        let kinds = figure_session_kinds(5);
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds[0], SessionKind::NonExchange);
        assert_eq!(kinds[1], SessionKind::Exchange { ring_size: 2 });
        assert_eq!(kinds[4], SessionKind::Exchange { ring_size: 5 });
    }

    #[test]
    fn session_distribution_run_reports_kinds() {
        let report = session_distributions(&tiny_base(), 6);
        assert!(report.total_sessions() > 0);
    }
}
