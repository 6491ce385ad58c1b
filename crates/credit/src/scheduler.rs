//! The upload scheduler: one closed type over every mechanism.

use exchange::Key;

use crate::{EmuleCredit, QueuedRequest, TitForTat};

/// One run's upload-scheduling discipline and its history.
///
/// This is the one type through which the simulator talks to every
/// incentive mechanism the paper compares (Section II): the provider reports
/// transfers, and asks the scheduler to pick the next request to serve.
/// Each variant is one mechanism; the history-based ones carry their tables,
/// the others read everything they need from the [`QueuedRequest`].
///
/// # Example
///
/// ```
/// use credit::{QueuedRequest, SchedulerKind};
///
/// let mut scheduler = SchedulerKind::TitForTat.build::<u32>();
/// scheduler.record_transfer(7, 0, 50_000_000); // peer 7 uploaded to us
/// let queue = [QueuedRequest::new(9, 100.0), QueuedRequest::new(7, 1.0)];
/// assert_eq!(scheduler.pick(0, &queue), Some(1)); // reciprocate with peer 7
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum UploadScheduler<P: Key> {
    /// Serve the longest-waiting request first, regardless of who sent it:
    /// the paper's "no exchange" baseline, where every request is eventually
    /// granted and contributors receive no preferential treatment.
    Fifo,
    /// eMule-style pairwise credit.
    EmuleCredit(EmuleCredit<P>),
    /// BitTorrent-style reciprocation.
    TitForTat(TitForTat<P>),
    /// KaZaA-style self-reported participation level.
    ///
    /// Each peer announces its own "participation level" (nominally a
    /// function of its uptime and upload/download volumes) and providers
    /// prioritise peers with higher announced levels: the announced level
    /// dominates, waiting time only breaks ties.  The mechanism is trivially
    /// subverted — a modified client can announce any value — which is
    /// exactly why the paper dismisses it.  The caller attaches each
    /// requester's announcement with [`QueuedRequest::with_participation`],
    /// so a simulation can model both honest and cheating peers.
    ///
    /// ```
    /// use credit::{QueuedRequest, SchedulerKind};
    ///
    /// let pl = SchedulerKind::ParticipationLevel.build::<u32>();
    /// let honest = QueuedRequest::new(1, 60.0).with_participation(10.0); // modest contributor
    /// let cheater = QueuedRequest::new(2, 1.0).with_participation(1000.0); // inflated level
    /// assert_eq!(pl.pick(0, &[honest, cheater]), Some(1));
    /// ```
    ParticipationLevel,
    /// The exchange preference applied to fallback queue ordering: requests
    /// whose requester could reciprocate (it stores an object the provider
    /// currently wants, so the pair could form a ring) are served before all
    /// others; within each class the longest-waiting request wins.  The
    /// caller marks reciprocation candidates via [`QueuedRequest::reciprocal`].
    ExchangePriority,
}

/// Reciprocation dominates; waiting time breaks ties within each class.
const RECIPROCAL_PRIORITY: f64 = 1e12;

/// Each announced participation unit outweighs this many seconds of waiting.
const PARTICIPATION_WEIGHT: f64 = 1e6;

impl<P: Key> UploadScheduler<P> {
    /// Scores `request` from the point of view of `provider`; higher scores
    /// are served first.
    fn score(&self, provider: P, request: &QueuedRequest<P>) -> f64 {
        match self {
            UploadScheduler::Fifo => request.waiting_secs,
            UploadScheduler::EmuleCredit(credit) => credit.score(provider, request),
            UploadScheduler::TitForTat(tft) => tft.score(provider, request),
            UploadScheduler::ParticipationLevel => {
                request.participation * PARTICIPATION_WEIGHT + request.waiting_secs
            }
            UploadScheduler::ExchangePriority if request.reciprocal => {
                RECIPROCAL_PRIORITY + request.waiting_secs
            }
            UploadScheduler::ExchangePriority => request.waiting_secs,
        }
    }

    /// Picks the request `provider` should serve next from `queue`: the
    /// index of the highest-scoring request, or `None` if the queue is
    /// empty.  Ties are broken in favour of the longer-waiting request, then
    /// queue order.
    #[must_use]
    pub fn pick(&self, provider: P, queue: &[QueuedRequest<P>]) -> Option<usize> {
        queue
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let sa = self.score(provider, a);
                let sb = self.score(provider, b);
                sa.partial_cmp(&sb)
                    .expect("incentive scores must not be NaN")
                    .then(
                        a.waiting_secs
                            .partial_cmp(&b.waiting_secs)
                            .expect("waiting times must not be NaN"),
                    )
            })
            .map(|(i, _)| i)
    }

    /// Records that `uploader` transferred `bytes` to `downloader`;
    /// history-based mechanisms (eMule credit, tit-for-tat) update their
    /// tables.
    pub fn record_transfer(&mut self, uploader: P, downloader: P, bytes: u64) {
        match self {
            UploadScheduler::Fifo
            | UploadScheduler::ParticipationLevel
            | UploadScheduler::ExchangePriority => {}
            UploadScheduler::EmuleCredit(credit) => {
                credit.record_transfer(uploader, downloader, bytes);
            }
            UploadScheduler::TitForTat(tft) => tft.record_transfer(uploader, downloader, bytes),
        }
    }

    /// Whether [`pick`](Self::pick) reads [`QueuedRequest::reciprocal`].
    /// Callers may skip the (potentially costly) computation of that flag
    /// when this returns `false`.
    #[must_use]
    pub fn needs_reciprocal(&self) -> bool {
        matches!(self, UploadScheduler::ExchangePriority)
    }

    /// The mechanism this scheduler runs.
    #[must_use]
    pub fn kind(&self) -> SchedulerKind {
        match self {
            UploadScheduler::Fifo => SchedulerKind::Fifo,
            UploadScheduler::EmuleCredit(_) => SchedulerKind::EmuleCredit,
            UploadScheduler::TitForTat(_) => SchedulerKind::TitForTat,
            UploadScheduler::ParticipationLevel => SchedulerKind::ParticipationLevel,
            UploadScheduler::ExchangePriority => SchedulerKind::ExchangePriority,
        }
    }
}

/// Selects which [`UploadScheduler`] a simulation uses for requests that are
/// not already served by an exchange ring (and, when exchanges are disabled,
/// for all requests).
///
/// This enum is plain data (serializable, hashable) so configurations stay
/// comparable; [`SchedulerKind::build`] instantiates the matching scheduler,
/// with empty history, for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Longest-waiting request first (the paper's behaviour).
    Fifo,
    /// eMule-style pairwise credit (queue rank = waiting time × credit).
    EmuleCredit,
    /// BitTorrent-style reciprocation.
    TitForTat,
    /// KaZaA-style self-reported participation level.
    ParticipationLevel,
    /// Exchange-flavoured ordering: requesters that could reciprocate (they
    /// store an object the provider wants) are served first.
    ExchangePriority,
}

impl SchedulerKind {
    /// Every selectable scheduler, in presentation order.
    #[must_use]
    pub fn all() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Fifo,
            SchedulerKind::EmuleCredit,
            SchedulerKind::TitForTat,
            SchedulerKind::ParticipationLevel,
            SchedulerKind::ExchangePriority,
        ]
    }

    /// Instantiates the scheduler, with empty history, for one run.
    #[must_use]
    pub fn build<P: Key>(&self) -> UploadScheduler<P> {
        match self {
            SchedulerKind::Fifo => UploadScheduler::Fifo,
            SchedulerKind::EmuleCredit => UploadScheduler::EmuleCredit(EmuleCredit::new()),
            SchedulerKind::TitForTat => UploadScheduler::TitForTat(TitForTat::new()),
            SchedulerKind::ParticipationLevel => UploadScheduler::ParticipationLevel,
            SchedulerKind::ExchangePriority => UploadScheduler::ExchangePriority,
        }
    }

    /// A short, stable label for reports and figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::EmuleCredit => "emule-credit",
            SchedulerKind::TitForTat => "tit-for-tat",
            SchedulerKind::ParticipationLevel => "participation-level",
            SchedulerKind::ExchangePriority => "exchange-priority",
        }
    }
}

impl Default for SchedulerKind {
    /// The paper serves non-exchange requests first-come, first-served.
    fn default() -> Self {
        SchedulerKind::Fifo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_a_scheduler_of_that_kind_with_a_distinct_label() {
        let kinds = SchedulerKind::all();
        for kind in &kinds {
            assert_eq!(kind.build::<u32>().kind(), *kind);
        }
        let mut labels: Vec<&str> = kinds.iter().map(SchedulerKind::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn built_schedulers_pick_from_queues() {
        let queue = [QueuedRequest::new(1u32, 50.0), QueuedRequest::new(2, 10.0)];
        for kind in SchedulerKind::all() {
            let scheduler = kind.build::<u32>();
            let pick = scheduler.pick(0, &queue);
            assert!(
                pick.is_some(),
                "{} must serve a non-empty queue",
                kind.label()
            );
            assert_eq!(scheduler.pick(0, &[]), None);
        }
    }

    #[test]
    fn fifo_score_is_waiting_time_and_history_does_not_change_ordering() {
        let mut fifo = SchedulerKind::Fifo.build::<u32>();
        assert_eq!(fifo.score(0, &QueuedRequest::new(1u32, 12.5)), 12.5);
        fifo.record_transfer(1, 0, 1_000_000);
        let queue = [
            QueuedRequest::new(1u32, 5.0).with_participation(1.0e9),
            QueuedRequest::new(2, 50.0),
            QueuedRequest::new(3, 20.0),
        ];
        assert_eq!(fifo.pick(0, &queue), Some(1), "longest-waiting first");
        assert_eq!(fifo, UploadScheduler::Fifo, "fifo keeps no history");
    }

    #[test]
    fn the_announced_participation_level_dominates_waiting_time() {
        let scheduler = SchedulerKind::ParticipationLevel.build::<u32>();
        // Peer 1 announces the 100 MiB it uploaded; peer 2 announces nothing.
        let contributor = QueuedRequest::new(1u32, 1.0).with_participation(100.0);
        let stranger = QueuedRequest::new(2u32, 10_000.0);
        assert_eq!(stranger.participation, 0.0, "no announcement is level 0");
        assert_eq!(scheduler.pick(0, &[stranger, contributor]), Some(1));
    }

    #[test]
    fn cheater_outranks_honest_contributor() {
        let scheduler = SchedulerKind::ParticipationLevel.build::<u32>();
        // Peer 1 really contributes and waited long; peer 2 lies.
        let honest = QueuedRequest::new(1u32, 500.0).with_participation(50.0);
        let cheater = QueuedRequest::new(2u32, 1.0).with_participation(10_000.0);
        assert!(scheduler.score(0, &cheater) > scheduler.score(0, &honest));
        assert_eq!(scheduler.pick(0, &[honest, cheater]), Some(1));
    }

    #[test]
    fn negative_nan_and_infinite_announcements_are_sanitised() {
        let level = |announced: f64| QueuedRequest::new(1u32, 1.0).with_participation(announced);
        assert_eq!(level(-5.0).participation, 0.0);
        assert_eq!(level(f64::NAN).participation, 0.0);
        assert_eq!(level(f64::INFINITY).participation, f64::MAX);
        assert_eq!(level(f64::NEG_INFINITY).participation, 0.0);
        // Scores stay comparable (pick() asserts on NaN scores).
        let scheduler = SchedulerKind::ParticipationLevel.build::<u32>();
        let queue = [
            QueuedRequest::new(1u32, 1.0).with_participation(f64::NAN),
            QueuedRequest::new(2u32, 1.0).with_participation(f64::INFINITY),
        ];
        assert_eq!(scheduler.pick(0, &queue), Some(1));
    }

    #[test]
    fn waiting_time_breaks_participation_ties() {
        let scheduler = SchedulerKind::ParticipationLevel.build::<u32>();
        let queue = [
            QueuedRequest::new(1u32, 10.0).with_participation(5.0),
            QueuedRequest::new(2u32, 20.0).with_participation(5.0),
        ];
        assert_eq!(scheduler.pick(0, &queue), Some(1));
    }

    #[test]
    fn only_the_participation_level_scheduler_reads_the_announcement() {
        let honest = QueuedRequest::new(1u32, 10_000.0).with_participation(100.0);
        let cheater = QueuedRequest::new(2u32, 1.0).with_participation(1.0e9);
        for kind in SchedulerKind::all() {
            let scheduler = kind.build::<u32>();
            if kind == SchedulerKind::ParticipationLevel {
                assert_eq!(
                    scheduler.pick(0, &[honest, cheater]),
                    Some(1),
                    "an inflated self-report outranks genuine contribution"
                );
                continue;
            }
            for request in [honest, cheater] {
                let silent = QueuedRequest::new(request.requester, request.waiting_secs);
                assert_eq!(
                    scheduler.score(0, &request),
                    scheduler.score(0, &silent),
                    "{}",
                    kind.label()
                );
            }
            assert_eq!(scheduler.pick(0, &[honest, cheater]), Some(0));
        }
    }

    #[test]
    fn only_exchange_priority_needs_the_reciprocal_flag() {
        for kind in SchedulerKind::all() {
            assert_eq!(
                kind.build::<u32>().needs_reciprocal(),
                kind == SchedulerKind::ExchangePriority,
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn exchange_priority_puts_reciprocal_requests_first() {
        let order = SchedulerKind::ExchangePriority.build::<u32>();
        let stranger = QueuedRequest::new(1u32, 500.0);
        let partner = QueuedRequest::new(2u32, 1.0).with_reciprocal(true);
        assert!(order.score(0, &partner) > order.score(0, &stranger));
        let queue = [
            QueuedRequest::new(1u32, 1e9),
            QueuedRequest::new(2u32, 0.5).with_reciprocal(true),
        ];
        assert_eq!(order.pick(0, &queue), Some(1));
    }

    #[test]
    fn exchange_priority_orders_by_waiting_time_within_each_class() {
        let order = SchedulerKind::ExchangePriority.build::<u32>();
        let non_reciprocal = [
            QueuedRequest::new(3u32, 10.0),
            QueuedRequest::new(4u32, 30.0),
            QueuedRequest::new(5u32, 20.0),
        ];
        assert_eq!(order.pick(0, &non_reciprocal), Some(1));
        let reciprocal = [
            QueuedRequest::new(1u32, 40.0).with_reciprocal(true),
            QueuedRequest::new(2u32, 4.0).with_reciprocal(true),
        ];
        assert_eq!(order.pick(0, &reciprocal), Some(0));
    }
}
