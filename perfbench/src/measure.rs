//! The measured procedures: untraced repetitions for the end-to-end
//! metrics and one traced pass for the per-layer metrics.
//!
//! Everything goes through the simulator's public API.  Each call into a
//! layer (`SimSetup::generate`, `Simulation::from_setup`, the event loop,
//! `checkpoint`, `restore`, `Scenario::run`) is timed from outside inside a
//! [`Trace`] span; the phases within the event loop come from
//! `Simulation::run_profiled`'s [`PhaseProfile`].

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sim::{PhaseProfile, SimConfig, SimReport, SimSetup, SimTime, Simulation};

use crate::check::{Checker, Fingerprint};
use crate::trace::{SpanId, Trace};
use crate::workload::{sweep_scenario, tier_config, Size, Workload, SETUP_SEED};

/// Metric values by name, in no particular order.
pub type Values = Vec<(&'static str, f64)>;

/// Repetitions every untraced run makes, however short its budget.
const MIN_REPS: usize = 3;

/// No repetition starts that would end past this point, so a run on a slow
/// host still exits well within its time limit.
const HARD_LIMIT: Duration = Duration::from_secs(140);

/// Slices of simulated time the event loop of a 10k-peer repetition is timed
/// in.  `run_s` sums each slice's median over the repetitions, so a burst of
/// host noise during one slice of one repetition does not move it.
const WINDOWS: usize = 8;

/// Checkpoints taken of the same mid-run state per round trip.
const CHECKPOINTS: usize = 5;

/// Reference runs per scale around a `Scenario::run`: the sweep's run is one
/// interval, not eight windows whose medians absorb a noisy reference.
const SWEEP_REFERENCES: usize = 7;

/// What [`reference`] takes on a quiet host of the kind the bounds were set
/// on (2 x86-64 cores at 2 GHz).  Timings are scaled by this over the
/// reference measured just before them (see [`host_scale`]).
const REFERENCE_NOMINAL_S: f64 = 0.007;

/// The inputs and shared state of one benchmark run.
pub struct Context {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    /// How long the untraced repetitions may run.
    pub budget: Duration,
    /// Sweep worker threads (the host's parallelism).
    pub threads: usize,
    pub trace: Trace,
    pub checker: Checker,
}

/// The end-to-end metrics of the workload: untraced repetitions until the
/// budget is spent, reported as medians (`run_s` as the sum of its
/// windows' medians).  `peak_rss_mb` is the process's high-water mark after
/// the first repetition: later repetitions only reuse the heap, and how much
/// their threads fragment it depends on how many fit in the budget.
pub fn end_to_end(ctx: &mut Context) -> Values {
    // Per repetition, the run time in windows (one for the paper sweep).
    let mut run: Vec<Vec<Duration>> = Vec::new();
    let mut setup = Vec::new();
    let mut reference: Option<Vec<Fingerprint>> = None;
    let started = Instant::now();
    let mut last = Duration::ZERO;
    let mut peak_rss = 0.0;
    while run.len() < MIN_REPS || started.elapsed() + last <= ctx.budget {
        if started.elapsed() + last > HARD_LIMIT {
            break;
        }
        let rep_started = Instant::now();
        let rep = ctx.trace.open("rep", None);
        let fingerprints = match ctx.workload {
            Workload::PaperSweep => {
                let (rows, run_time, setup_time) = sweep_rep(ctx, rep);
                run.push(vec![run_time]);
                setup.push(setup_time);
                rows
            }
            Workload::Scale10k | Workload::Churn10k => {
                let config = tier_config(ctx.workload, ctx.size);
                let scale = host_scale(&mut ctx.trace, rep, 1);
                let (sim, setup_time) = set_up(&mut ctx.trace, rep, &config, ctx.seed);
                let (report, windows) = run_windowed(&mut ctx.trace, rep, sim);
                run.push(windows);
                setup.push(setup_time.mul_f64(scale));
                vec![Fingerprint::of(&report)]
            }
        };
        ctx.trace.close(rep);
        let what = format!("{} repetition {}", ctx.workload.name(), run.len());
        eprintln!(
            "perfbench: {what}: setup {:.3}s run {:.3}s",
            setup.last().map_or(0.0, Duration::as_secs_f64),
            run.last().map_or(0.0, |w| secs(w.iter().sum())),
        );
        ctx.checker.run(&what, reference.as_deref(), &fingerprints);
        reference.get_or_insert(fingerprints);
        last = rep_started.elapsed();
        if run.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    let windows = run.iter().map(Vec::len).min().unwrap_or(0);
    let run_s = (0..windows)
        .map(|k| median(&run.iter().map(|rep| rep[k]).collect::<Vec<_>>()))
        .sum();
    vec![
        ("run_s", run_s),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss),
    ]
}

/// The host-speed reference: builds and drops 2,000 small ordered sets and
/// sorted vectors.  It is allocation-heavy, pointer-chasing work like the
/// simulator's, in code of the benchmark's own, so no change to the
/// simulator moves it.
fn reference() {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let peers: Vec<(BTreeSet<u32>, Vec<f64>)> = (0..2_000)
        .map(|_| {
            let mut set = BTreeSet::new();
            let mut weights = Vec::with_capacity(40);
            for _ in 0..40 {
                set.insert((next() % 100_000) as u32);
                weights.push((next() >> 11) as f64);
            }
            weights.sort_by(f64::total_cmp);
            (set, weights)
        })
        .collect();
    drop(black_box(peers));
}

/// How much faster than nominal the host is running right now: the
/// reference's nominal time over its median time in `samples` runs now.
/// The host is shared, and its speed swings by ±15% over tens of seconds; a
/// timing multiplied by the scale measured just before it keeps about half
/// of that swing out of the metrics.
fn host_scale(trace: &mut Trace, parent: SpanId, samples: usize) -> f64 {
    let times: Vec<Duration> = (0..samples)
        .map(|_| trace.time("host.reference", Some(parent), reference).1)
        .collect();
    REFERENCE_NOMINAL_S / median(&times)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (not Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// One untraced paper sweep: the setup of every grid point timed on its own,
/// then the whole `Scenario::run`.  Returns the rows' fingerprints, the run
/// time and the setup time.
fn sweep_rep(ctx: &mut Context, parent: SpanId) -> (Vec<Fingerprint>, Duration, Duration) {
    let scenario = sweep_scenario(ctx.size, ctx.seed);
    let mut setup = Duration::ZERO;
    let scale = host_scale(&mut ctx.trace, parent, SWEEP_REFERENCES);
    for point in scenario.points() {
        setup += set_up(&mut ctx.trace, parent, &point.config, ctx.seed).1;
    }
    let threads = ctx.threads;
    let scale_before = host_scale(&mut ctx.trace, parent, SWEEP_REFERENCES);
    let (grid, run) = ctx.trace.time("scenario.run", Some(parent), || {
        scenario.threads(threads).run()
    });
    let scale_after = host_scale(&mut ctx.trace, parent, SWEEP_REFERENCES);
    let fingerprints = grid
        .rows()
        .iter()
        .map(|row| Fingerprint::of(&row.report))
        .collect();
    let run = run.mul_f64((scale_before + scale_after) / 2.0);
    (fingerprints, run, setup.mul_f64(scale))
}

/// `SimSetup::generate` + `Simulation::from_setup` of `config`, returning
/// the simulation and the time both took.
fn set_up(
    trace: &mut Trace,
    parent: SpanId,
    config: &SimConfig,
    seed: u64,
) -> (Simulation, Duration) {
    let (setup, generate) = trace.time("setup.generate", Some(parent), || {
        SimSetup::generate(config, SETUP_SEED)
    });
    let (sim, from_setup) = trace.time("setup.from_setup", Some(parent), || {
        Simulation::from_setup(config.clone(), &setup, seed)
    });
    (sim, generate + from_setup)
}

/// Runs `sim` to its horizon in `WINDOWS` equal slices of simulated time,
/// returning its report and the time each slice took (the last includes
/// report finalisation).
fn run_windowed(
    trace: &mut Trace,
    parent: SpanId,
    mut sim: Simulation,
) -> (SimReport, Vec<Duration>) {
    let horizon_s = sim.config().sim_duration_s;
    let mut windows: Vec<Duration> = (1..WINDOWS)
        .map(|k| {
            let scale = host_scale(trace, parent, 1);
            let end = SimTime::from_secs_f64(horizon_s * k as f64 / WINDOWS as f64);
            let ((), took) = trace.time("loop.run_until", Some(parent), || sim.run_until(end));
            took.mul_f64(scale)
        })
        .collect();
    let scale = host_scale(trace, parent, 1);
    let (report, took) = trace.time("loop.run", Some(parent), || sim.run());
    windows.push(took.mul_f64(scale));
    (report, windows)
}

/// One run split by a snapshot round trip at mid-horizon.
struct RoundTrip {
    checkpoint: Vec<Duration>,
    restore: Duration,
    bytes: usize,
    /// The report of the restored simulation.
    report: SimReport,
}

/// Sets up `config`, runs it to mid-horizon, checkpoints it `CHECKPOINTS`
/// times into memory, drops it, restores it, and runs the restored copy to
/// the horizon.
fn round_trip(trace: &mut Trace, parent: SpanId, config: &SimConfig, seed: u64) -> RoundTrip {
    let (mut sim, _) = set_up(trace, parent, config, seed);
    let mid = SimTime::from_secs_f64(config.sim_duration_s / 2.0);
    trace.time("loop.run_until", Some(parent), || sim.run_until(mid));
    let mut bytes = Vec::new();
    let mut checkpoint = Vec::with_capacity(CHECKPOINTS);
    for _ in 0..CHECKPOINTS {
        bytes.clear();
        let (written, took) = trace.time("snapshot.checkpoint", Some(parent), || {
            sim.checkpoint(&mut bytes)
        });
        written.expect("checkpointing into memory cannot fail");
        checkpoint.push(took);
    }
    drop(sim);
    let (restored, restore) = trace.time("snapshot.restore", Some(parent), || {
        Simulation::restore(&mut bytes.as_slice(), config)
    });
    let restored = restored.expect("a checkpoint just taken restores");
    let (report, _) = trace.time("loop.run", Some(parent), || restored.run());
    RoundTrip {
        checkpoint,
        restore,
        bytes: bytes.len(),
        report,
    }
}

/// Per-layer totals of the traced jobs of one pass.
#[derive(Debug, Default)]
struct Layers {
    generate: Duration,
    from_setup: Duration,
    profile: PhaseProfile,
    sessions: u64,
    completed_downloads: u64,
    rings: u64,
    token_declines: u64,
    rings_dissolved_at_activation: u64,
    preemptions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
}

impl Layers {
    fn add(&mut self, profile: &PhaseProfile, report: &SimReport) {
        let p = &mut self.profile;
        p.events += profile.events;
        p.event_loop += profile.event_loop;
        p.generate_requests += profile.generate_requests;
        p.scheduling += profile.scheduling;
        p.ring_search += profile.ring_search;
        p.ring_searches += profile.ring_searches;
        p.shard_planning += profile.shard_planning;
        p.planned_searches += profile.planned_searches;
        p.planned_consumed += profile.planned_consumed;
        p.transfers += profile.transfers;
        p.maintenance += profile.maintenance;
        p.population += profile.population;
        self.sessions += report.total_sessions();
        self.completed_downloads += report.completed_downloads();
        self.rings += report.total_rings();
        self.token_declines += report.token_declines();
        self.rings_dissolved_at_activation += report.rings_dissolved_at_activation();
        self.preemptions += report.preemptions();
        let cache = report.ring_cache_stats();
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.cache_invalidations += cache.invalidations;
    }
}

/// The untraced side of a traced run: what the per-layer ratios divide by.
#[derive(Debug, Default)]
struct Untraced {
    /// Wall-clock of each job run alone: setup plus run.
    job_s: Vec<Duration>,
    /// Run time summed over the jobs (no setup).
    run: Duration,
    /// Worker threads and wall-clock of the whole workload.
    threads: usize,
    wall: Duration,
}

/// The per-layer metrics.  Every job of the workload runs alone untraced,
/// then through `run_profiled` (the traced report must equal the untraced
/// one), and on `scale-10k` once more with `shards` scheduling shards (equal
/// to the sequential report; the `shard.*` metrics are 0 on the other
/// workloads).  `paper-sweep` first runs its parallel `Scenario::run`,
/// whose rows the jobs run alone must reproduce.  Last, one job makes the
/// snapshot round trip, and its restored run must equal the job's report.
pub fn per_layer(ctx: &mut Context, shards: usize) -> Values {
    let seed = ctx.seed;
    let mut untraced = Untraced::default();
    // The jobs, the sweep rows they must reproduce, and the round trip's job.
    let (configs, rows, round_trip_job) = match ctx.workload {
        Workload::PaperSweep => {
            let scenario = sweep_scenario(ctx.size, seed);
            let points = scenario.points();
            untraced.threads = ctx.threads.min(points.len());
            let threads = untraced.threads;
            let (grid, wall) = ctx
                .trace
                .time("scenario.run", None, || scenario.threads(threads).run());
            untraced.wall = wall;
            let rows: Vec<Fingerprint> = grid
                .rows()
                .iter()
                .map(|row| Fingerprint::of(&row.report))
                .collect();
            ctx.checker.run("paper-sweep", None, &rows);
            // The round trip runs on the heaviest point, 5-2-way at the
            // highest capacity, whose deep searches run on a small, dense
            // graph.
            let heaviest = points
                .iter()
                .rposition(|p| p.value("discipline") == Some("5-2-way"))
                .expect("the paper set includes 5-2-way");
            let configs = points.into_iter().map(|p| p.config).collect();
            (configs, Some(rows), heaviest)
        }
        Workload::Scale10k | Workload::Churn10k => {
            untraced.threads = 1;
            (vec![tier_config(ctx.workload, ctx.size)], None, 0)
        }
    };

    let mut traced = Layers::default();
    let mut traced_run = Duration::ZERO;
    let mut sharded = Layers::default();
    let mut fingerprints = Vec::with_capacity(configs.len());
    for (job, config) in configs.iter().enumerate() {
        let span = ctx.trace.open("job", None);
        let (sim, setup) = set_up(&mut ctx.trace, span, config, seed);
        let (report, run) = ctx.trace.time("loop.run", Some(span), || sim.run());
        untraced.job_s.push(setup + run);
        untraced.run += run;
        let fingerprint = Fingerprint::of(&report);
        let expected = rows.as_ref().map(|rows| &rows[job..=job]);
        ctx.checker.run(
            &format!("job {job} alone"),
            expected,
            std::slice::from_ref(&fingerprint),
        );

        let (built, generate) = ctx.trace.time("setup.generate", Some(span), || {
            SimSetup::generate(config, SETUP_SEED)
        });
        let (sim, from_setup) = ctx.trace.time("setup.from_setup", Some(span), || {
            Simulation::from_setup(config.clone(), &built, seed)
        });
        let ((report, profile), run) = ctx
            .trace
            .time("loop.run_profiled", Some(span), || sim.run_profiled());
        traced.generate += generate;
        traced.from_setup += from_setup;
        traced.add(&profile, &report);
        traced_run += run;
        ctx.checker.run(
            &format!("traced job {job}"),
            Some(std::slice::from_ref(&fingerprint)),
            &[Fingerprint::of(&report)],
        );

        if ctx.workload == Workload::Scale10k {
            let mut sharded_config = config.clone();
            sharded_config.shards = shards;
            let (sim, _) = ctx.trace.time("shard.from_setup", Some(span), || {
                Simulation::from_setup(sharded_config, &built, seed)
            });
            let ((report, profile), _) = ctx
                .trace
                .time("shard.run_profiled", Some(span), || sim.run_profiled());
            sharded.add(&profile, &report);
            ctx.checker.run(
                &format!("sharded traced job {job}"),
                Some(std::slice::from_ref(&fingerprint)),
                &[Fingerprint::of(&report)],
            );
        }
        ctx.trace.close(span);
        fingerprints.push(fingerprint);
    }
    if ctx.workload != Workload::PaperSweep {
        untraced.wall = untraced.job_s.iter().sum();
    }

    let span = ctx.trace.open("round_trip", None);
    let trip = round_trip(&mut ctx.trace, span, &configs[round_trip_job], seed);
    ctx.trace.close(span);
    ctx.checker.run(
        "restored run",
        Some(&fingerprints[round_trip_job..=round_trip_job]),
        &[Fingerprint::of(&trip.report)],
    );
    layer_values(&traced, traced_run, &sharded, &untraced, &trip)
}

fn layer_values(
    traced: &Layers,
    traced_run: Duration,
    sharded: &Layers,
    untraced: &Untraced,
    trip: &RoundTrip,
) -> Values {
    let p = &traced.profile;
    let phases = p.generate_requests + p.scheduling + p.transfers + p.maintenance + p.population;
    let job_s = &untraced.job_s;
    let job_total: Duration = job_s.iter().sum();
    vec![
        ("setup.generate_s", secs(traced.generate)),
        ("setup.from_setup_s", secs(traced.from_setup)),
        ("loop.events", p.events as f64),
        ("loop.event_loop_s", secs(p.event_loop)),
        (
            "loop.us_per_event",
            ratio(secs(p.event_loop) * 1e6, p.events as f64),
        ),
        (
            "loop.dispatch_overhead_s",
            secs(p.event_loop.saturating_sub(phases)),
        ),
        ("events.generate_requests_s", secs(p.generate_requests)),
        ("transfers.transfers_s", secs(p.transfers)),
        ("transfers.sessions", traced.sessions as f64),
        (
            "transfers.completed_downloads",
            traced.completed_downloads as f64,
        ),
        ("maintenance.maintenance_s", secs(p.maintenance)),
        ("scheduling.scheduling_s", secs(p.scheduling)),
        (
            "scheduling.unattributed_s",
            secs(p.scheduling.saturating_sub(p.ring_search)),
        ),
        ("scheduling.rings_formed", traced.rings as f64),
        ("scheduling.token_declines", traced.token_declines as f64),
        (
            "scheduling.rings_dissolved_at_activation",
            traced.rings_dissolved_at_activation as f64,
        ),
        ("scheduling.preemptions", traced.preemptions as f64),
        ("exchange.ring_search_s", secs(p.ring_search)),
        ("exchange.ring_searches", p.ring_searches as f64),
        (
            "exchange.us_per_search",
            ratio(secs(p.ring_search) * 1e6, p.ring_searches as f64),
        ),
        (
            "exchange.rings_per_search",
            ratio(traced.rings as f64, p.ring_searches as f64),
        ),
        ("ring_cache.hits", traced.cache_hits as f64),
        ("ring_cache.misses", traced.cache_misses as f64),
        (
            "ring_cache.hit_ratio",
            ratio(
                traced.cache_hits as f64,
                (traced.cache_hits + traced.cache_misses) as f64,
            ),
        ),
        (
            "ring_cache.invalidations",
            traced.cache_invalidations as f64,
        ),
        ("population.population_s", secs(p.population)),
        ("snapshot.bytes", trip.bytes as f64),
        ("snapshot.checkpoint_s", median(&trip.checkpoint)),
        ("snapshot.restore_s", secs(trip.restore)),
        ("scenario.jobs", job_s.len() as f64),
        ("scenario.threads", untraced.threads as f64),
        ("scenario.job_s_median", median(job_s)),
        (
            "scenario.job_s_max",
            job_s.iter().max().map_or(0.0, |d| secs(*d)),
        ),
        (
            "scenario.parallel_efficiency",
            ratio(
                secs(job_total),
                untraced.threads as f64 * secs(untraced.wall),
            ),
        ),
        (
            "shard.speedup",
            ratio(secs(p.event_loop), secs(sharded.profile.event_loop)),
        ),
        ("shard.planning_s", secs(sharded.profile.shard_planning)),
        (
            "shard.plan_hit_rate",
            ratio(
                sharded.profile.planned_consumed as f64,
                sharded.profile.planned_searches as f64,
            ),
        ),
        (
            "shard.search_cpu_ratio",
            ratio(secs(sharded.profile.ring_search), secs(p.ring_search)),
        ),
        (
            "trace.overhead_ratio",
            ratio(secs(traced_run), secs(untraced.run)),
        ),
    ]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `num / den`, or 0 when nothing was measured (`den == 0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `samples`, in seconds (the mean of the middle two for an
/// even count; 0 for none).
fn median(samples: &[Duration]) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
