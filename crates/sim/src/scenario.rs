//! Builder-style scenario engine: parallel config × seed sweeps.
//!
//! A [`Scenario`] starts from a base [`SimConfig`], varies any number of
//! [`Axis`] dimensions (the cartesian product forms the grid of
//! [`ScenarioPoint`]s), runs every point under every seed — in parallel
//! across OS threads — and returns a [`SweepGrid`] of uniform
//! `(point, seed, report)` rows with mean / confidence-interval aggregation.
//!
//! Every figure of the paper is one such scenario (see [`crate::experiment`]).

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use credit::SchedulerKind;
use exchange::ExchangePolicy;
use metrics::OnlineStats;

use crate::{
    BehaviorMix, ChurnConfig, ClassMix, Protection, SimConfig, SimReport, SimSetup, Simulation,
};

/// A shared, composable configuration mutation used by [`Axis::custom`].
pub type ConfigSetter = Arc<dyn Fn(&mut SimConfig) + Send + Sync>;

/// One swept dimension of a [`Scenario`].
///
/// Each variant lists the values the dimension takes; the scenario grid is
/// the cartesian product of all axes in the order they were added.
pub enum Axis {
    /// Vary the per-peer upload capacity (Figures 4 and 5).
    UploadKbps(Vec<f64>),
    /// Vary the exchange discipline under test.
    Discipline(Vec<ExchangePolicy>),
    /// Vary the upload scheduler ordering non-exchange requests.
    Scheduler(Vec<SchedulerKind>),
    /// Vary the fraction of non-sharing peers (Figure 12).  Sugar for a
    /// two-entry [`Axis::Behaviors`] sweep.
    FreeriderFraction(Vec<f64>),
    /// Vary the weighted behavior population (Section III-B studies).
    Behaviors(Vec<BehaviorMix>),
    /// Vary the cheating countermeasure on the transfer path.
    Protection(Vec<Protection>),
    /// Vary the category/object popularity factor `f` (Figures 9 and 10).
    PopularityFactor(Vec<f64>),
    /// Vary the maximum number of outstanding requests (Figure 11).
    MaxPendingObjects(Vec<usize>),
    /// Vary how many categories each peer is interested in (Figure 11).
    CategoriesPerPeer(Vec<u32>),
    /// Vary the churn process (`None` disables churn; labelled `off`).
    Churn(Vec<Option<ChurnConfig>>),
    /// Vary the capacity-class population (Section IV churn/fairness
    /// studies).
    ClassMix(Vec<ClassMix>),
    /// An arbitrary named dimension built from labelled config mutations via
    /// [`Axis::custom`] and [`Axis::with_variant`].
    Custom {
        /// The dimension's name, used in point labels and lookups.
        name: String,
        /// The labelled mutations, one per value of the dimension.
        variants: Vec<(String, ConfigSetter)>,
    },
}

impl Axis {
    /// Starts an empty custom axis named `name`; add values with
    /// [`Axis::with_variant`].
    #[must_use]
    pub fn custom(name: impl Into<String>) -> Self {
        Axis::Custom {
            name: name.into(),
            variants: Vec::new(),
        }
    }

    /// Adds one labelled value to a custom axis.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-custom axis.
    #[must_use]
    pub fn with_variant(
        self,
        label: impl Into<String>,
        apply: impl Fn(&mut SimConfig) + Send + Sync + 'static,
    ) -> Self {
        match self {
            Axis::Custom { name, mut variants } => {
                variants.push((label.into(), Arc::new(apply)));
                Axis::Custom { name, variants }
            }
            _ => panic!("with_variant is only supported on Axis::custom axes"),
        }
    }

    /// The dimension's name as used in point labels and lookups.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Axis::UploadKbps(_) => "upload_kbps",
            Axis::Discipline(_) => "discipline",
            Axis::Scheduler(_) => "scheduler",
            Axis::FreeriderFraction(_) => "freerider_fraction",
            Axis::Behaviors(_) => "behaviors",
            Axis::Protection(_) => "protection",
            Axis::PopularityFactor(_) => "popularity_factor",
            Axis::MaxPendingObjects(_) => "max_pending",
            Axis::CategoriesPerPeer(_) => "categories_per_peer",
            Axis::Churn(_) => "churn",
            Axis::ClassMix(_) => "classes",
            Axis::Custom { name, .. } => name,
        }
    }

    /// Number of values this dimension takes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Axis::UploadKbps(v) => v.len(),
            Axis::Discipline(v) => v.len(),
            Axis::Scheduler(v) => v.len(),
            Axis::FreeriderFraction(v) => v.len(),
            Axis::Behaviors(v) => v.len(),
            Axis::Protection(v) => v.len(),
            Axis::PopularityFactor(v) => v.len(),
            Axis::MaxPendingObjects(v) => v.len(),
            Axis::CategoriesPerPeer(v) => v.len(),
            Axis::Churn(v) => v.len(),
            Axis::ClassMix(v) => v.len(),
            Axis::Custom { variants, .. } => variants.len(),
        }
    }

    /// Whether the dimension has no values (such an axis is rejected by
    /// [`Scenario::run`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The display label of the `index`-th value.
    #[must_use]
    pub fn value_label(&self, index: usize) -> String {
        match self {
            Axis::UploadKbps(v) => format!("{}", v[index]),
            Axis::Discipline(v) => v[index].label(),
            Axis::Scheduler(v) => v[index].label().to_string(),
            Axis::FreeriderFraction(v) => format!("{}", v[index]),
            Axis::Behaviors(v) => v[index].label(),
            Axis::Protection(v) => v[index].label(),
            Axis::PopularityFactor(v) => format!("{}", v[index]),
            Axis::MaxPendingObjects(v) => v[index].to_string(),
            Axis::CategoriesPerPeer(v) => v[index].to_string(),
            Axis::Churn(v) => match &v[index] {
                Some(churn) => churn.label(),
                None => "off".to_string(),
            },
            Axis::ClassMix(v) => v[index].label(),
            Axis::Custom { variants, .. } => variants[index].0.clone(),
        }
    }

    /// Applies the `index`-th value to `config`.
    fn apply(&self, index: usize, config: &mut SimConfig) {
        match self {
            Axis::UploadKbps(v) => config.link = config.link.with_upload_kbps(v[index]),
            Axis::Discipline(v) => config.discipline = v[index],
            Axis::Scheduler(v) => config.scheduler = v[index],
            Axis::FreeriderFraction(v) => {
                config.behaviors = BehaviorMix::with_freeriders(v[index]);
            }
            Axis::Behaviors(v) => config.behaviors = v[index].clone(),
            Axis::Protection(v) => config.protection = v[index],
            Axis::PopularityFactor(v) => {
                config.workload.category_popularity_factor = v[index];
                config.workload.object_popularity_factor = v[index];
            }
            Axis::MaxPendingObjects(v) => config.max_pending_objects = v[index],
            Axis::CategoriesPerPeer(v) => {
                config.workload.categories_per_peer = (v[index], v[index]);
            }
            Axis::Churn(v) => config.churn = v[index].clone(),
            Axis::ClassMix(v) => config.classes = v[index].clone(),
            Axis::Custom { variants, .. } => variants[index].1(config),
        }
    }
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = (0..self.len()).map(|i| self.value_label(i)).collect();
        f.debug_struct("Axis")
            .field("name", &self.name())
            .field("values", &labels)
            .finish()
    }
}

/// One fully resolved configuration of a sweep grid.
#[derive(Debug, Clone)]
pub struct ScenarioPoint {
    /// Position of this point in [`SweepGrid::points`] (and the `point`
    /// field of every matching [`SweepRow`]).
    pub index: usize,
    /// `axis=value` pairs joined with `, ` — `"base"` when nothing varies.
    pub label: String,
    /// The `(axis name, value label)` pairs defining the point.
    pub values: Vec<(String, String)>,
    /// The concrete configuration runs of this point use.
    pub config: SimConfig,
}

impl ScenarioPoint {
    /// The value label this point takes on the named axis, if it is swept.
    #[must_use]
    pub fn value(&self, axis: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, value)| value.as_str())
    }
}

/// A builder for families of simulation runs.
///
/// # Example
///
/// ```
/// use sim::{Axis, Scenario, SchedulerKind, SimConfig};
///
/// let mut base = SimConfig::quick_test();
/// base.num_peers = 20;
/// base.sim_duration_s = 800.0;
/// let grid = Scenario::from(base)
///     .schedulers([SchedulerKind::Fifo, SchedulerKind::TitForTat])
///     .seeds(0..2)
///     .run();
/// assert_eq!(grid.points().len(), 2);
/// assert_eq!(grid.rows().len(), 4);
/// ```
#[derive(Debug)]
pub struct Scenario {
    base: SimConfig,
    axes: Vec<Axis>,
    seeds: Vec<u64>,
    setup_seed: Option<u64>,
    threads: Option<usize>,
    warm_restarts: bool,
}

/// Shared JSON-lines sink state for [`Scenario::run_streamed`]: workers
/// append completed rows under the mutex; the first I/O error sticks and
/// disables further writes.
struct RowStream<'a> {
    sink: &'a mut (dyn Write + Send),
    error: Option<io::Error>,
}

impl Scenario {
    /// Starts a scenario from a base configuration (one point, seed 0, until
    /// customised).
    #[must_use]
    pub fn from(base: SimConfig) -> Self {
        Scenario {
            base,
            axes: Vec::new(),
            seeds: vec![0],
            setup_seed: None,
            threads: None,
            warm_restarts: false,
        }
    }

    /// Adds a swept dimension; the grid is the cartesian product of all
    /// added axes, with the first axis varying slowest.
    #[must_use]
    pub fn vary(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Sugar for varying the exchange discipline.
    #[must_use]
    pub fn disciplines(self, policies: impl IntoIterator<Item = ExchangePolicy>) -> Self {
        self.vary(Axis::Discipline(policies.into_iter().collect()))
    }

    /// Sugar for varying the upload scheduler.
    #[must_use]
    pub fn schedulers(self, kinds: impl IntoIterator<Item = SchedulerKind>) -> Self {
        self.vary(Axis::Scheduler(kinds.into_iter().collect()))
    }

    /// Sugar for varying the behavior population (Section III-B studies).
    #[must_use]
    pub fn behaviors(self, mixes: impl IntoIterator<Item = BehaviorMix>) -> Self {
        self.vary(Axis::Behaviors(mixes.into_iter().collect()))
    }

    /// Sugar for varying the cheating countermeasure.
    #[must_use]
    pub fn protections(self, protections: impl IntoIterator<Item = Protection>) -> Self {
        self.vary(Axis::Protection(protections.into_iter().collect()))
    }

    /// Sugar for varying the churn process (`None` = churn off).
    #[must_use]
    pub fn churn(self, configs: impl IntoIterator<Item = Option<ChurnConfig>>) -> Self {
        self.vary(Axis::Churn(configs.into_iter().collect()))
    }

    /// Sugar for varying the capacity-class population.
    #[must_use]
    pub fn classes(self, mixes: impl IntoIterator<Item = ClassMix>) -> Self {
        self.vary(Axis::ClassMix(mixes.into_iter().collect()))
    }

    /// Sets the seeds each grid point runs under (default: just seed 0).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Pins the seed used to generate the shared topology under
    /// [`warm_restarts`](Self::warm_restarts), decoupling the catalog/peer
    /// generation from the first run seed (default: the first entry of
    /// [`seeds`](Self::seeds)).  With an explicit setup seed outside the run
    /// seeds, **no** warm row is bit-identical to its cold counterpart —
    /// every seed then measures workload variance on the same fixed topology.
    #[must_use]
    pub fn setup_seed(mut self, seed: u64) -> Self {
        self.setup_seed = Some(seed);
        self
    }

    /// Caps the number of sweep worker threads directly.  By default the
    /// sweep uses the available parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The sweep worker count `run` will use for `jobs` jobs: the explicit
    /// [`threads`](Self::threads) cap, or the available parallelism.
    fn workers_for(&self, jobs: usize) -> usize {
        let workers = self.threads.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        workers.clamp(1, jobs.max(1))
    }

    /// Enables warm restarts: each grid point generates its catalog and peer
    /// topology **once** (from the first seed, or the explicit
    /// [`setup_seed`](Self::setup_seed)) via [`SimSetup`] and shares it
    /// across that point's seeds, so only the request/lookup/storage RNG
    /// streams vary per seed.
    ///
    /// With warm restarts, the first seed's run is bit-identical to a cold
    /// `Simulation::new`; later seeds differ from their cold counterparts
    /// (they reuse the first seed's topology by design — that is the point:
    /// the seeds then measure workload variance on a fixed topology, and the
    /// expensive setup is paid once per point instead of once per run).
    #[must_use]
    pub fn warm_restarts(mut self, on: bool) -> Self {
        self.warm_restarts = on;
        self
    }

    /// The resolved grid points, in run order, without running anything.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty or any resolved configuration is invalid.
    #[must_use]
    pub fn points(&self) -> Vec<ScenarioPoint> {
        for axis in &self.axes {
            assert!(
                !axis.is_empty(),
                "axis '{}' has no values; a swept dimension needs at least one",
                axis.name()
            );
        }
        let total: usize = self.axes.iter().map(Axis::len).product();
        let mut points = Vec::with_capacity(total);
        let mut indices = vec![0usize; self.axes.len()];
        for index in 0..total {
            let mut config = self.base.clone();
            let mut values = Vec::with_capacity(self.axes.len());
            for (axis, &value_index) in self.axes.iter().zip(indices.iter()) {
                axis.apply(value_index, &mut config);
                values.push((axis.name().to_string(), axis.value_label(value_index)));
            }
            config
                .validate()
                .unwrap_or_else(|e| panic!("invalid configuration at grid point {index}: {e}"));
            let label = if values.is_empty() {
                "base".to_string()
            } else {
                values
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            points.push(ScenarioPoint {
                index,
                label,
                values,
                config,
            });
            // Advance the mixed-radix counter (last axis fastest).
            for position in (0..self.axes.len()).rev() {
                indices[position] += 1;
                if indices[position] < self.axes[position].len() {
                    break;
                }
                indices[position] = 0;
            }
        }
        points
    }

    /// Runs the whole grid — every point under every seed — in parallel and
    /// collects the results.
    ///
    /// Rows are returned in deterministic order (points in grid order, seeds
    /// in the order given) regardless of thread scheduling, and each row's
    /// report is identical to a standalone
    /// `Simulation::new(point.config, seed).run()` — except under
    /// [`warm_restarts`](Self::warm_restarts), where only the first seed's
    /// row carries that guarantee (later seeds deliberately reuse the first
    /// seed's topology).
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no seeds, an axis is empty, or a resolved
    /// configuration is invalid.
    #[must_use]
    pub fn run(self) -> SweepGrid {
        self.run_inner(None)
    }

    /// Like [`run`](Self::run), but additionally streams every completed
    /// `(point, seed)` row to `sink` as one JSON object per line
    /// (JSON-lines), in **completion order**, flushing after each line.
    ///
    /// Each line has exactly the shape of one element of
    /// [`SweepGrid::write_json`]'s `rows` array, so a consumer of the full
    /// document can consume the stream with the same row parser — and a
    /// sweep killed partway leaves a parsable prefix of completed rows
    /// (`bench_gate --stream` consumes such partial streams).  The returned
    /// grid is bit-identical to [`run`](Self::run)'s.
    ///
    /// # Errors
    ///
    /// Returns the first sink I/O error; the sweep itself still runs to
    /// completion (streaming stops at the first error).
    ///
    /// # Panics
    ///
    /// Panics like [`run`](Self::run) on an empty axis/seed list or an
    /// invalid resolved configuration.
    pub fn run_streamed(self, sink: &mut (dyn Write + Send)) -> io::Result<SweepGrid> {
        let stream = Mutex::new(RowStream { sink, error: None });
        let grid = self.run_inner(Some(&stream));
        let stream = stream.into_inner().expect("stream sink poisoned");
        match stream.error {
            Some(e) => Err(e),
            None => Ok(grid),
        }
    }

    fn run_inner(self, stream: Option<&Mutex<RowStream<'_>>>) -> SweepGrid {
        assert!(!self.seeds.is_empty(), "a scenario needs at least one seed");
        let points = self.points();
        let jobs: Vec<(usize, u64)> = points
            .iter()
            .flat_map(|point| self.seeds.iter().map(move |&seed| (point.index, seed)))
            .collect();

        let workers = self.workers_for(jobs.len());

        let next_job = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<SimReport>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        // One lazily generated, shared setup per grid point (warm restarts).
        // The setup seed defaults to the scenario's first seed — or the
        // explicit `setup_seed` knob — so the assignment is deterministic
        // regardless of which worker gets there first.
        let setups: Vec<OnceLock<SimSetup>> = points.iter().map(|_| OnceLock::new()).collect();
        let setup_seed = self.setup_seed.unwrap_or(self.seeds[0]);
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    let Some(&(point_index, seed)) = jobs.get(job) else {
                        break;
                    };
                    let config = points[point_index].config.clone();
                    let report = if self.warm_restarts {
                        let setup = setups[point_index]
                            .get_or_init(|| SimSetup::generate(&config, setup_seed));
                        Simulation::from_setup(config, setup, seed).run()
                    } else {
                        Simulation::new(config, seed).run()
                    };
                    if let Some(stream) = stream {
                        let mut guard = stream.lock().expect("stream sink poisoned");
                        let RowStream { sink, error } = &mut *guard;
                        if error.is_none() {
                            let written =
                                crate::serialize::write_row_json(sink, point_index, seed, &report)
                                    .and_then(|()| writeln!(sink))
                                    .and_then(|()| sink.flush());
                            if let Err(e) = written {
                                *error = Some(e);
                            }
                        }
                    }
                    *results[job].lock().expect("result slot poisoned") = Some(report);
                });
            }
        });

        let rows: Vec<SweepRow> = jobs
            .into_iter()
            .zip(results)
            .map(|((point, seed), slot)| SweepRow {
                point,
                seed,
                report: slot
                    .into_inner()
                    .expect("result slot poisoned")
                    .expect("every job writes its result before the scope ends"),
            })
            .collect();
        SweepGrid {
            points,
            seeds: self.seeds,
            rows,
        }
    }
}

/// One `(grid point, seed)` simulation result.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Index into [`SweepGrid::points`].
    pub point: usize,
    /// The seed this run used.
    pub seed: u64,
    /// The full report of the run.
    pub report: SimReport,
}

/// A metric aggregated over the seeds of one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Mean of the metric over the seeds that reported it.
    pub mean: f64,
    /// Half-width of the normal-approximation 95% confidence interval
    /// (0 when fewer than two seeds reported).
    pub ci95: f64,
    /// Number of seeds that reported the metric.
    pub n: usize,
}

/// The uniform result of a [`Scenario`] run.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    points: Vec<ScenarioPoint>,
    seeds: Vec<u64>,
    rows: Vec<SweepRow>,
}

impl SweepGrid {
    /// The grid points, in run order.
    #[must_use]
    pub fn points(&self) -> &[ScenarioPoint] {
        &self.points
    }

    /// The seeds every point ran under.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// All `(point, seed, report)` rows, points in grid order, seeds in the
    /// order given.
    #[must_use]
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// The point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn point(&self, index: usize) -> &ScenarioPoint {
        &self.points[index]
    }

    /// Finds the unique point matching every `(axis, value-label)` pair.
    #[must_use]
    pub fn find_point(&self, query: &[(&str, &str)]) -> Option<&ScenarioPoint> {
        self.points.iter().find(|point| {
            query
                .iter()
                .all(|(axis, value)| point.value(axis) == Some(*value))
        })
    }

    /// The reports of one point, over its seeds.
    pub fn reports(&self, point: usize) -> impl Iterator<Item = &SimReport> {
        self.rows
            .iter()
            .filter(move |row| row.point == point)
            .map(|row| &row.report)
    }

    /// Aggregates `metric` over the seeds of `point`; `None` when no seed
    /// reported the metric.
    pub fn aggregate(
        &self,
        point: usize,
        metric: impl Fn(&SimReport) -> Option<f64>,
    ) -> Option<Aggregate> {
        let mut stats = OnlineStats::new();
        for report in self.reports(point) {
            if let Some(value) = metric(report) {
                stats.record(value);
            }
        }
        if stats.is_empty() {
            return None;
        }
        let n = stats.count() as usize;
        let ci95 = if n > 1 {
            t_critical_975(n - 1) * (stats.sample_variance() / n as f64).sqrt()
        } else {
            0.0
        };
        Some(Aggregate {
            mean: stats.mean(),
            ci95,
            n,
        })
    }

    /// [`SweepGrid::aggregate`] addressed by axis values instead of index.
    ///
    /// # Panics
    ///
    /// Panics when no grid point matches `query` — an unmatched query is a
    /// caller bug (stale label, wrong axis name), not a missing metric, and
    /// silently rendering `n/a` would hide it.
    pub fn aggregate_where(
        &self,
        query: &[(&str, &str)],
        metric: impl Fn(&SimReport) -> Option<f64>,
    ) -> Option<Aggregate> {
        let point = self.find_point(query).unwrap_or_else(|| {
            panic!(
                "no grid point matches {query:?}; available points: {:?}",
                self.points.iter().map(|p| &p.label).collect::<Vec<_>>()
            )
        });
        self.aggregate(point.index, metric)
    }
}

/// Two-sided 97.5% Student-t critical value for `df` degrees of freedom,
/// so small-seed confidence intervals are not understated (z = 1.96 is only
/// reached asymptotically).
fn t_critical_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=60 => 2.0,
        _ => 1.96,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeerClass;

    fn tiny_base() -> SimConfig {
        let mut config = SimConfig::quick_test();
        config.num_peers = 16;
        config.sim_duration_s = 800.0;
        config
    }

    #[test]
    fn no_axes_yields_a_single_base_point() {
        let grid = Scenario::from(tiny_base()).seeds([7]).run();
        assert_eq!(grid.points().len(), 1);
        assert_eq!(grid.point(0).label, "base");
        assert_eq!(grid.rows().len(), 1);
        assert_eq!(grid.rows()[0].seed, 7);
    }

    #[test]
    fn grid_is_the_cartesian_product_in_declaration_order() {
        let scenario = Scenario::from(tiny_base())
            .vary(Axis::UploadKbps(vec![40.0, 80.0]))
            .disciplines([ExchangePolicy::NoExchange, ExchangePolicy::Pairwise]);
        let points = scenario.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].value("upload_kbps"), Some("40"));
        assert_eq!(points[0].value("discipline"), Some("no-exchange"));
        assert_eq!(points[1].value("discipline"), Some("pairwise"));
        assert_eq!(points[2].value("upload_kbps"), Some("80"));
        assert_eq!(points[3].label, "upload_kbps=80, discipline=pairwise");
        assert_eq!(points[2].config.link.upload_kbps, 80.0);
        assert_eq!(points[3].config.discipline, ExchangePolicy::Pairwise);
    }

    #[test]
    fn parallel_run_matches_standalone_simulations() {
        let grid = Scenario::from(tiny_base())
            .schedulers([SchedulerKind::Fifo, SchedulerKind::TitForTat])
            .seeds(0..2)
            .run();
        assert_eq!(grid.rows().len(), 4);
        for row in grid.rows() {
            let standalone = Simulation::new(grid.point(row.point).config.clone(), row.seed).run();
            assert_eq!(
                row.report.completed_downloads(),
                standalone.completed_downloads()
            );
            assert_eq!(row.report.total_sessions(), standalone.total_sessions());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = Scenario::from(tiny_base())
            .vary(Axis::FreeriderFraction(vec![0.25, 0.75]))
            .seeds(0..2)
            .threads(1)
            .run();
        let parallel = Scenario::from(tiny_base())
            .vary(Axis::FreeriderFraction(vec![0.25, 0.75]))
            .seeds(0..2)
            .threads(4)
            .run();
        for (a, b) in serial.rows().iter().zip(parallel.rows().iter()) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.report.completed_downloads(),
                b.report.completed_downloads()
            );
            assert_eq!(a.report.total_sessions(), b.report.total_sessions());
        }
    }

    #[test]
    fn aggregate_over_identical_seeds_has_zero_width() {
        let grid = Scenario::from(tiny_base()).seeds([3, 3]).run();
        let agg = grid
            .aggregate(0, |r| Some(r.completed_downloads() as f64))
            .expect("downloads metric is always present");
        assert_eq!(agg.n, 2);
        assert_eq!(agg.ci95, 0.0, "identical runs have no spread");
    }

    #[test]
    fn aggregate_reports_spread_across_distinct_seeds() {
        let grid = Scenario::from(tiny_base()).seeds(0..3).run();
        let agg = grid
            .aggregate(0, |r| Some(r.total_sessions() as f64))
            .expect("session counts are always present");
        assert_eq!(agg.n, 3);
        assert!(agg.mean > 0.0);
        assert!(agg.ci95 >= 0.0);
    }

    #[test]
    fn aggregate_skips_unreported_metrics() {
        let mut base = tiny_base();
        base.behaviors = BehaviorMix::honest(); // nobody is non-sharing
        let grid = Scenario::from(base).seeds([1]).run();
        assert!(grid
            .aggregate(0, |r| r.mean_download_time_min(PeerClass::NonSharing))
            .is_none());
    }

    #[test]
    fn warm_restarts_match_cold_runs_on_the_setup_seed() {
        let warm = Scenario::from(tiny_base())
            .vary(Axis::UploadKbps(vec![60.0, 100.0]))
            .seeds([5, 6])
            .warm_restarts(true)
            .run();
        let cold = Scenario::from(tiny_base())
            .vary(Axis::UploadKbps(vec![60.0, 100.0]))
            .seeds([5, 6])
            .run();
        for (w, c) in warm.rows().iter().zip(cold.rows().iter()) {
            assert_eq!((w.point, w.seed), (c.point, c.seed));
            if w.seed == 5 {
                // The setup seed's run is bit-identical to a cold start.
                assert_eq!(
                    w.report.completed_downloads(),
                    c.report.completed_downloads()
                );
                assert_eq!(w.report.total_sessions(), c.report.total_sessions());
            }
        }
        // Warm rows on later seeds still vary (fresh per-run RNG streams).
        let warm_rows: Vec<_> = warm.rows().iter().filter(|r| r.point == 0).collect();
        assert!(
            warm_rows[0].report.total_sessions() != warm_rows[1].report.total_sessions()
                || warm_rows[0].report.completed_downloads()
                    != warm_rows[1].report.completed_downloads(),
            "distinct seeds must still differ under a shared setup"
        );
    }

    /// Renders one report exactly as a streamed JSONL row would, so tests
    /// can compare full metric surfaces byte-for-byte.
    fn row_json(point: usize, seed: u64, report: &SimReport) -> String {
        let mut buffer = Vec::new();
        crate::serialize::write_row_json(&mut buffer, point, seed, report)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buffer).expect("row JSON is UTF-8")
    }

    #[test]
    fn streamed_sweeps_emit_every_row_and_match_plain_runs() {
        let build = || {
            Scenario::from(tiny_base())
                .vary(Axis::UploadKbps(vec![60.0, 100.0]))
                .seeds(0..2)
        };
        let plain = build().run();
        let mut sink = Vec::new();
        let streamed = build()
            .run_streamed(&mut sink)
            .expect("Vec sink never fails");

        // The returned grid is bit-identical to the unstreamed one.
        assert_eq!(plain.rows().len(), streamed.rows().len());
        for (a, b) in plain.rows().iter().zip(streamed.rows().iter()) {
            assert_eq!((a.point, a.seed), (b.point, b.seed));
            assert_eq!(
                row_json(a.point, a.seed, &a.report),
                row_json(b.point, b.seed, &b.report)
            );
        }

        // One line per row, in completion order; same rows as the grid.
        let text = String::from_utf8(sink).expect("stream is UTF-8");
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), plain.rows().len());
        let mut expected: Vec<String> = plain
            .rows()
            .iter()
            .map(|r| row_json(r.point, r.seed, &r.report))
            .collect();
        lines.sort_unstable();
        expected.sort_unstable();
        assert_eq!(lines, expected);
    }

    #[test]
    fn streamed_sweeps_surface_sink_errors_but_still_complete() {
        struct FailingSink;
        impl Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = FailingSink;
        let err = Scenario::from(tiny_base())
            .seeds(0..2)
            .run_streamed(&mut sink)
            .expect_err("a failing sink must surface its error");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn warm_restarts_are_deterministic_across_thread_counts() {
        let build = |threads: usize| {
            Scenario::from(tiny_base())
                .vary(Axis::FreeriderFraction(vec![0.25, 0.75]))
                .seeds(0..2)
                .warm_restarts(true)
                .threads(threads)
                .run()
        };
        let serial = build(1);
        let parallel = build(4);
        for (a, b) in serial.rows().iter().zip(parallel.rows().iter()) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.report.completed_downloads(),
                b.report.completed_downloads()
            );
            assert_eq!(a.report.total_sessions(), b.report.total_sessions());
        }
    }

    #[test]
    fn default_workers_use_the_available_parallelism() {
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let scenario = Scenario::from(tiny_base());
        // The cores, but never fewer than one worker or more workers than
        // jobs.
        assert_eq!(scenario.workers_for(1_000), cores);
        assert_eq!(scenario.workers_for(1), 1);
        assert_eq!(scenario.workers_for(0), 1);
        // An explicit thread cap wins.
        assert_eq!(Scenario::from(tiny_base()).threads(5).workers_for(16), 5);
    }

    #[test]
    fn custom_axes_mutate_the_config() {
        let scenario = Scenario::from(tiny_base()).vary(
            Axis::custom("block_kb")
                .with_variant("64", |c: &mut SimConfig| c.block_bytes = 64 * 1024)
                .with_variant("256", |c: &mut SimConfig| c.block_bytes = 256 * 1024),
        );
        let points = scenario.points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].config.block_bytes, 64 * 1024);
        assert_eq!(points[1].config.block_bytes, 256 * 1024);
        assert_eq!(points[1].value("block_kb"), Some("256"));
    }

    #[test]
    fn aggregate_where_addresses_points_by_axis_values() {
        let grid = Scenario::from(tiny_base())
            .vary(Axis::UploadKbps(vec![60.0, 100.0]))
            .seeds(0..2)
            .run();
        let slow = grid
            .aggregate_where(&[("upload_kbps", "60")], |r| {
                Some(r.completed_downloads() as f64)
            })
            .expect("point exists");
        assert!(slow.n == 2);
        assert!(grid.find_point(&[("upload_kbps", "75")]).is_none());
    }

    #[test]
    fn behavior_and_protection_axes_mutate_the_config() {
        use crate::BehaviorKind;
        let adversarial =
            BehaviorMix::weighted([(BehaviorKind::Honest, 0.5), (BehaviorKind::Middleman, 0.5)]);
        let scenario = Scenario::from(tiny_base())
            .behaviors([BehaviorMix::honest(), adversarial.clone()])
            .protections([Protection::None, Protection::Mediated]);
        let points = scenario.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].value("behaviors"), Some("honest:1"));
        assert_eq!(points[0].value("protection"), Some("none"));
        assert_eq!(points[3].config.behaviors, adversarial);
        assert_eq!(points[3].config.protection, Protection::Mediated);
        assert_eq!(
            points[3].value("behaviors"),
            Some("honest:0.5+middleman:0.5")
        );
    }

    #[test]
    fn churn_and_class_axes_mutate_the_config() {
        use crate::CapacityClass;
        let churn = ChurnConfig {
            mean_session_s: 300.0,
            mean_downtime_s: 120.0,
        };
        let mix = ClassMix::weighted([(CapacityClass::Fast, 0.5), (CapacityClass::Slow, 0.5)]);
        let scenario = Scenario::from(tiny_base())
            .churn([None, Some(churn.clone())])
            .classes([ClassMix::uniform(), mix.clone()]);
        let points = scenario.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].value("churn"), Some("off"));
        assert_eq!(points[0].config.churn, None);
        assert_eq!(points[1].value("classes"), Some(mix.label().as_str()));
        assert_eq!(points[3].config.churn, Some(churn));
        assert_eq!(points[3].config.classes, mix);
    }

    #[test]
    fn setup_seed_pins_the_shared_topology() {
        // Two warm sweeps with the same explicit setup seed but different run
        // seeds share the topology: the run-seed streams alone separate them.
        let build = |seeds: [u64; 1]| {
            Scenario::from(tiny_base())
                .seeds(seeds)
                .setup_seed(99)
                .warm_restarts(true)
                .run()
        };
        let a = build([5]);
        let b = build([5]);
        assert_eq!(
            a.rows()[0].report.completed_downloads(),
            b.rows()[0].report.completed_downloads()
        );
        // A pinned setup seed makes the warm run differ from a cold run of
        // the same run seed (the cold run generates topology from seed 5).
        let cold = Scenario::from(tiny_base()).seeds([5]).run();
        let warm_pinned = build([5]);
        let warm_default = Scenario::from(tiny_base())
            .seeds([5])
            .warm_restarts(true)
            .run();
        // Default warm restarts stay bit-identical to cold on the first seed.
        assert_eq!(
            warm_default.rows()[0].report.completed_downloads(),
            cold.rows()[0].report.completed_downloads()
        );
        assert_eq!(
            warm_default.rows()[0].report.total_sessions(),
            cold.rows()[0].report.total_sessions()
        );
        // The pinned topology (seed 99) produces a different trajectory.
        assert!(
            warm_pinned.rows()[0].report.completed_downloads()
                != cold.rows()[0].report.completed_downloads()
                || warm_pinned.rows()[0].report.total_sessions()
                    != cold.rows()[0].report.total_sessions(),
            "a pinned setup seed must change the shared topology"
        );
    }

    #[test]
    fn freerider_axis_rewrites_the_mix() {
        let scenario = Scenario::from(tiny_base()).vary(Axis::FreeriderFraction(vec![0.25]));
        let points = scenario.points();
        assert_eq!(
            points[0].config.behaviors,
            BehaviorMix::with_freeriders(0.25)
        );
        assert_eq!(points[0].value("freerider_fraction"), Some("0.25"));
    }

    #[test]
    fn small_sample_intervals_use_student_t() {
        // df = 2 (3 seeds) must widen by t = 4.303, not z = 1.96.
        assert_eq!(t_critical_975(2), 4.303);
        assert_eq!(t_critical_975(1), 12.706);
        assert_eq!(t_critical_975(200), 1.96);
    }

    #[test]
    #[should_panic(expected = "no grid point matches")]
    fn aggregate_where_panics_on_unknown_points() {
        let grid = Scenario::from(tiny_base()).seeds([1]).run();
        let _ = grid.aggregate_where(&[("upload_kbps", "999")], |r| {
            Some(r.completed_downloads() as f64)
        });
    }

    #[test]
    #[should_panic(expected = "has no values")]
    fn empty_axes_are_rejected() {
        let _ = Scenario::from(tiny_base())
            .vary(Axis::UploadKbps(vec![]))
            .points();
    }
}
