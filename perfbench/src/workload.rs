//! The three workloads and the simulator configurations they generate.
//!
//! Every workload is a pure function of its name and size; the seed given on
//! the command line is the only other input, and the simulator receives only
//! the generated [`SimConfig`].

use bench_support::FigureOptions;
use sim::experiment::capacity_scenario;
use sim::{
    CapacityClass, CatastropheConfig, ChurnConfig, ClassMix, ExchangeDiscipline, FlashCrowdConfig,
    Scenario, SimConfig,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4/5 grid: the paper's four disciplines × six upload
    /// capacities on 200 Table II peers, through `Scenario::run`.
    PaperSweep,
    /// One 10k-peer run of the scale bench's 10k tier (static population).
    Scale10k,
    /// The 10k tier under churn, a top-k catastrophe, a flash crowd and a
    /// 25/50/25 capacity-class mix.
    Churn10k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PaperSweep, Workload::Scale10k, Workload::Churn10k];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::Scale10k => "scale-10k",
            Workload::Churn10k => "churn-10k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full-size workloads for measurement, or tiny ones for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// A few dozen peers and a short horizon: seconds even in a debug build.
    Tiny,
}

/// The seed every workload generates its catalog and peer topology from
/// (`SimSetup::generate`).  `--seed` drives the run itself: requests,
/// lookups, storage eviction and churn.  At 10k peers a different topology
/// per seed moves the event count by ±10% and would swamp the bounds; on
/// one topology it moves by ±1%.
pub const SETUP_SEED: u64 = 0;

/// Duration scale of the paper sweep relative to the paper's 48 h runs.
const SWEEP_SCALE: f64 = 0.05;

/// Simulated horizon of the 10k-peer workloads, in seconds.
const TIER_HORIZON_S: f64 = 600.0;

/// The paper sweep's scenario for `seed`: the Fig. 4/5 grid on the figure
/// binaries' Table II base configuration, with warm restarts.
pub fn sweep_scenario(size: Size, seed: u64) -> Scenario {
    let (options, capacities): (FigureOptions, &[f64]) = match size {
        Size::Full => (
            FigureOptions {
                scale: SWEEP_SCALE,
                peers: 200,
                object_mb: 20,
                ..FigureOptions::default()
            },
            &[40.0, 60.0, 80.0, 100.0, 120.0, 140.0],
        ),
        Size::Tiny => (
            FigureOptions {
                scale: 0.01,
                peers: 24,
                object_mb: 2,
                ..FigureOptions::default()
            },
            &[60.0, 120.0],
        ),
    };
    capacity_scenario(
        &options.base_config(),
        &ExchangeDiscipline::paper_set(),
        capacities,
    )
    .seeds([seed])
    .setup_seed(SETUP_SEED)
    .warm_restarts(true)
}

/// The configuration of a 10k-peer workload: the scale bench's 10k tier
/// (1 MiB objects, ring search bounded at budget 512 and fanout 8, entry
/// granularity cache) cut to this benchmark's horizon, plus full population
/// dynamics for `churn-10k`.
///
/// # Panics
///
/// Panics when called for the paper sweep, which is a scenario, not a run.
pub fn tier_config(workload: Workload, size: Size) -> SimConfig {
    let (peers, horizon_s) = match size {
        Size::Full => (10_000, TIER_HORIZON_S),
        Size::Tiny => (60, 1_200.0),
    };
    let mut config = SimConfig::paper_defaults();
    config.num_peers = peers;
    config.workload.object_size_bytes = 1024 * 1024;
    config.sim_duration_s = horizon_s;
    config.warmup_s = horizon_s / 3.0;
    config.ring_search_budget = 512;
    config.ring_search_fanout = 8;
    match workload {
        Workload::Scale10k => {}
        Workload::Churn10k => {
            config.churn = Some(ChurnConfig {
                mean_session_s: horizon_s * 2.0 / 3.0,
                mean_downtime_s: horizon_s / 6.0,
            });
            config.catastrophe = Some(CatastropheConfig {
                at_s: horizon_s / 2.0,
                top_k: (peers / 200).max(1),
            });
            config.flash_crowd = Some(FlashCrowdConfig {
                at_s: horizon_s / 3.0,
                requesters: peers / 20,
                seed_holders: 8,
            });
            config.classes = ClassMix::weighted([
                (CapacityClass::Fast, 0.25),
                (CapacityClass::Medium, 0.5),
                (CapacityClass::Slow, 0.25),
            ]);
        }
        Workload::PaperSweep => panic!("the paper sweep is a scenario, not a single run"),
    }
    config
}
