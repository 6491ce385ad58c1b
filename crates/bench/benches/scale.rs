//! Scale tier of the `end_to_end` benchmark: whole simulation runs at
//! 1k / 5k / 10k / 100k peers, with per-phase wall-clock timings per tier.
//! The `churn-10k` tier re-runs the 10k workload under full population
//! dynamics (session churn, a mid-run catastrophe, a flash crowd, and a
//! heterogeneous capacity-class mix) so the cost of the departure/rejoin
//! teardown machinery is tracked by the regression gate.
//!
//! Each tier runs its seeded workload in one mode, **entry-warm**: the
//! ring-candidate cache plus a shared [`SimSetup`] across seeds (warm
//! restarts).  The JSON keeps a `modes` list so the regression gate's
//! `--mode` selector reads old and new files alike.
//!
//! Usage (a bare `cargo bench` only smoke-compiles; the tiers are explicit):
//!
//! ```text
//! cargo bench --bench scale -- --tier 1k                 # CI smoke tier
//! cargo bench --bench scale -- --tier all --out BENCH_scale.json
//! cargo bench --bench scale -- --tier 10k --seeds 1
//! cargo bench --bench scale -- --tier 100k               # always 1 seed
//! ```
//!
//! (`full` is the 1k/5k/10k subset; `all` adds the churn-10k and 100k
//! tiers, producing the complete checked-in `BENCH_scale.json` in one
//! invocation.)
//!
//! The JSON also records `calibration_ops_per_s` — the host's rate on a
//! fixed CPU-bound reference loop ([`bench_support::calibrate_ops_per_s`])
//! — so the CI regression gate can compare calibrated event rates across
//! runners of different speeds instead of absolute seconds.
//!
//! `--object-mb <n>` (default 1) and `--duration <secs>` (default 1800)
//! reshape the workload — the defaults reach the steady churn state, with
//! downloads completing and storage evicting continuously; `--budget` /
//! `--fanout` (defaults 512 / 8) bound the ring search the way a
//! production deployment at this scale must, keeping per-search cost and
//! cached-search dependency footprints population-independent.  A
//! malformed or out-of-range flag value exits 2 naming the flag
//! ([`bench_support::ScaleArgs`]).
//!
//! **Checkpoint mode** (kill-and-resume drills): `--checkpoint-every <secs>
//! --checkpoint-path <file>` runs one simulation of the selected tier
//! (first seed), writing its latest snapshot to `<file>` every interval —
//! atomically, via a temp file and rename, so a `SIGKILL` mid-write still
//! leaves a complete checkpoint — and prints a fingerprint JSON.  `--resume-from <file>` restores that
//! snapshot under the identical tier flags, runs to the horizon, and prints
//! the **same** fingerprint JSON: a killed-then-resumed run must produce
//! output byte-identical to an uninterrupted one (the CI smoke asserts
//! exactly this with `diff`).  The two flags combine — a resumed run keeps
//! writing fresh checkpoints past the restored time, which is how the
//! preemption-resilient nightly 100k job survives repeated runner evictions.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bench_support::{ScaleArgs, TierOptions};
use sim::{
    CapacityClass, CatastropheConfig, ChurnConfig, ClassMix, FlashCrowdConfig, PhaseProfile,
    SimConfig, SimReport, SimSetup, Simulation,
};

/// One measured run: its report plus every timing component.
struct RunMeasurement {
    seed: u64,
    setup: Duration,
    run: Duration,
    profile: PhaseProfile,
    report: SimReport,
}

/// One tier's entry-warm runs over all seeds.
struct TierMeasurement {
    label: &'static str,
    peers: usize,
    config: SimConfig,
    runs: Vec<RunMeasurement>,
}

impl TierMeasurement {
    fn wall(&self) -> Duration {
        self.runs.iter().map(|r| r.setup + r.run).sum()
    }
}

/// The simulated system at `peers` peers: Table II parameters with a horizon
/// short enough to benchmark, objects sized so the system reaches its steady
/// churn state (downloads complete, storage evicts) within it, and the ring
/// search bounded the way a production deployment at this scale must bound
/// it — a tight expansion budget and fanout keep the per-search cost and the
/// dependency footprint of cached searches independent of the population.
fn tier_config(peers: usize, options: TierOptions) -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.num_peers = peers;
    config.workload.object_size_bytes = options.object_mb * 1024 * 1024;
    config.sim_duration_s = options.duration_s;
    config.warmup_s = options.duration_s / 3.0;
    config.ring_search_budget = options.budget;
    config.ring_search_fanout = options.fanout;
    config
}

/// Full population dynamics for the `churn-10k` tier: mean sessions long
/// enough that downloads still complete (they finish in well under a mean
/// session at bench object sizes), plus a mid-horizon catastrophe, a flash
/// crowd, and a fast/medium/slow class mix — the worst case for the
/// departure-teardown and cache-invalidation paths.
fn population_config(config: &mut SimConfig, options: TierOptions) {
    config.churn = Some(ChurnConfig {
        mean_session_s: options.duration_s * 2.0 / 3.0,
        mean_downtime_s: options.duration_s / 6.0,
    });
    config.catastrophe = Some(CatastropheConfig {
        at_s: options.duration_s / 2.0,
        top_k: config.num_peers / 200,
    });
    config.flash_crowd = Some(FlashCrowdConfig {
        at_s: options.duration_s / 3.0,
        requesters: config.num_peers / 20,
        seed_holders: 8,
    });
    config.classes = ClassMix::weighted([
        (CapacityClass::Fast, 0.25),
        (CapacityClass::Medium, 0.5),
        (CapacityClass::Slow, 0.25),
    ]);
}

fn measure_run(config: &SimConfig, setup: &SimSetup, seed: u64) -> RunMeasurement {
    let started = Instant::now();
    let simulation = Simulation::from_setup(config.clone(), setup, seed);
    let setup_time = started.elapsed();
    let started = Instant::now();
    let (report, profile) = simulation.run_profiled();
    let run = started.elapsed();
    eprintln!(
        "   entry-warm seed {seed}: setup {:.2}s run {:.2}s ({} events)",
        setup_time.as_secs_f64(),
        run.as_secs_f64(),
        profile.events
    );
    RunMeasurement {
        seed,
        setup: setup_time,
        run,
        profile,
        report,
    }
}

fn run_tier(
    label: &'static str,
    peers: usize,
    population: bool,
    seeds: &[u64],
    options: TierOptions,
) -> TierMeasurement {
    let mut config = tier_config(peers, options);
    if population {
        population_config(&mut config, options);
    }
    // The 100k tier runs one seed: a second adds minutes without telling
    // us anything the 10k tier does not.
    let seeds: Vec<u64> = if peers >= 100_000 {
        vec![seeds[0]]
    } else {
        seeds.to_vec()
    };
    eprintln!("== tier {label}: {peers} peers, {} seeds ==", seeds.len());

    let started = Instant::now();
    let shared_setup = SimSetup::generate(&config, seeds[0]);
    let shared_setup_time = started.elapsed();
    let runs = seeds
        .iter()
        .enumerate()
        .map(|(index, &seed)| {
            // The shared setup is generated once; only the first seed's row
            // carries its cost.
            let mut run = measure_run(&config, &shared_setup, seed);
            if index == 0 {
                run.setup += shared_setup_time;
            }
            run
        })
        .collect();
    TierMeasurement {
        label,
        peers,
        config,
        runs,
    }
}

/// The run fingerprint the kill-and-resume smoke compares: identical JSON
/// from an uninterrupted checkpointed run and from a resumed one.
fn fingerprint_json(label: &str, config: &SimConfig, seed: u64, report: &SimReport) -> String {
    let cache = report.ring_cache_stats();
    format!(
        "{{\"bench\":\"scale-checkpoint\",\"tier\":\"{label}\",\"peers\":{},\"seed\":{seed},\
         \"fingerprint\":{{\"completed_downloads\":{},\"total_sessions\":{},\"total_rings\":{},\
         \"ring_cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{}}}}}}}",
        config.num_peers,
        report.completed_downloads(),
        report.total_sessions(),
        report.total_rings(),
        cache.hits,
        cache.misses,
        cache.invalidations,
    )
}

/// Checkpoint/resume mode: one run of the selected tier
/// on the first seed. `--checkpoint-every <secs> --checkpoint-path <file>`
/// writes the latest snapshot every interval (atomic temp-file + rename);
/// `--resume-from <file>` restores an existing snapshot and runs to the
/// horizon. The flags **combine**: a resumed run keeps checkpointing past
/// the restored time, so a preempted nightly job can be re-dispatched any
/// number of times and always picks up from its latest snapshot. Every
/// path prints the same fingerprint JSON on success.
fn run_checkpoint_mode(
    label: &str,
    peers: usize,
    population: bool,
    seed: u64,
    options: TierOptions,
    checkpoint: Option<(f64, &str)>,
    resume_from: Option<&str>,
) -> String {
    let mut config = tier_config(peers, options);
    if population {
        population_config(&mut config, options);
    }

    let simulation = match resume_from {
        Some(path) => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("scale bench: cannot read checkpoint {path}: {e}");
                std::process::exit(1);
            });
            let simulation = Simulation::restore(&mut &bytes[..], &config).unwrap_or_else(|e| {
                eprintln!("scale bench: cannot restore {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("== tier {label}: resuming from {path} ==");
            simulation
        }
        None => Simulation::new(config.clone(), seed),
    };
    let report = match checkpoint {
        Some((every, path)) => {
            let tmp = format!("{path}.tmp");
            eprintln!("== tier {label}: checkpointing every {every}s to {path} ==");
            simulation.run_checkpointed(every, |at, simulation| {
                let write = || -> std::io::Result<()> {
                    let mut file = std::fs::File::create(&tmp)?;
                    simulation
                        .checkpoint(&mut file)
                        .map_err(std::io::Error::other)?;
                    drop(file);
                    std::fs::rename(&tmp, path)
                };
                write().unwrap_or_else(|e| {
                    eprintln!("scale bench: cannot write checkpoint at t={at} to {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("   checkpoint at t={at} -> {path}");
            })
        }
        None => simulation.run(),
    };
    fingerprint_json(label, &config, seed, &report)
}

fn phase_json(profile: &PhaseProfile) -> String {
    format!(
        "{{\"events\":{},\"event_loop_s\":{:.3},\"generate_requests_s\":{:.3},\
         \"request_draw_s\":{:.3},\"provider_lookup_s\":{:.3},\"request_register_s\":{:.3},\
         \"scheduling_s\":{:.3},\"ring_search_s\":{:.3},\"ring_searches\":{},\
         \"serve_queue_s\":{:.3},\"cache_upkeep_s\":{:.3},\"token_pass_s\":{:.3},\
         \"transfers_s\":{:.3},\"maintenance_s\":{:.3},\"population_s\":{:.3}}}",
        profile.events,
        profile.event_loop.as_secs_f64(),
        profile.generate_requests.as_secs_f64(),
        profile.request_draw.as_secs_f64(),
        profile.provider_lookup.as_secs_f64(),
        profile.request_register.as_secs_f64(),
        profile.scheduling.as_secs_f64(),
        profile.ring_search.as_secs_f64(),
        profile.ring_searches,
        profile.serve_queue.as_secs_f64(),
        profile.cache_upkeep.as_secs_f64(),
        profile.token_pass.as_secs_f64(),
        profile.transfers.as_secs_f64(),
        profile.maintenance.as_secs_f64(),
        profile.population.as_secs_f64(),
    )
}

fn to_json(tiers: &[TierMeasurement], seeds: usize, calibration: f64) -> String {
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"bench\":\"scale\",\"seeds\":{seeds},\
         \"host_parallelism\":{host_parallelism},\
         \"calibration_ops_per_s\":{calibration:.0},\"tiers\":["
    );
    for (t, tier) in tiers.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tier\":\"{}\",\"peers\":{},\"sim_seconds\":{},\"object_mb\":{},\
             \"modes\":[{{\"mode\":\"entry-warm\",\"wall_s\":{:.3},\"runs\":[",
            tier.label,
            tier.peers,
            tier.config.sim_duration_s,
            tier.config.workload.object_size_bytes / (1024 * 1024),
            tier.wall().as_secs_f64(),
        );
        for (r, run) in tier.runs.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let cache = run.report.ring_cache_stats();
            let _ = write!(
                out,
                "{{\"seed\":{},\"setup_s\":{:.3},\"run_s\":{:.3},\"phases\":{},\
                 \"ring_cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{}}},\
                 \"completed_downloads\":{},\"total_sessions\":{},\"total_rings\":{}}}",
                run.seed,
                run.setup.as_secs_f64(),
                run.run.as_secs_f64(),
                phase_json(&run.profile),
                cache.hits,
                cache.misses,
                cache.invalidations,
                run.report.completed_downloads(),
                run.report.total_sessions(),
                run.report.total_rings(),
            );
        }
        let _ = write!(out, "]}}]}}");
    }
    let _ = write!(out, "]}}");
    out
}

fn main() {
    let ScaleArgs {
        tier,
        out,
        seeds,
        options,
        checkpoint_every,
        checkpoint_path,
        resume_from,
    } = ScaleArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("scale bench: {e}");
        std::process::exit(2);
    });
    let Some(tier_arg) = tier else {
        // `cargo bench` with no arguments (or `--no-run`) must stay cheap:
        // the tiers run minutes each and are requested explicitly.
        eprintln!(
            "scale bench: pass `-- --tier 1k|5k|10k|churn-10k|100k|full|all [--seeds n] \
             [--out BENCH_scale.json]` to run a tier; doing nothing."
        );
        return;
    };

    let seed_list: Vec<u64> = (1..=seeds).collect();
    // (label, peers, population dynamics on?)
    let selected: Vec<(&'static str, usize, bool)> = match tier_arg.as_str() {
        "1k" => vec![("1k", 1_000, false)],
        "5k" => vec![("5k", 5_000, false)],
        "10k" => vec![("10k", 10_000, false)],
        "churn-10k" => vec![("churn-10k", 10_000, true)],
        "100k" => vec![("100k", 100_000, false)],
        "full" => vec![
            ("1k", 1_000, false),
            ("5k", 5_000, false),
            ("10k", 10_000, false),
        ],
        "all" => vec![
            ("1k", 1_000, false),
            ("5k", 5_000, false),
            ("10k", 10_000, false),
            ("churn-10k", 10_000, true),
            ("100k", 100_000, false),
        ],
        other => {
            eprintln!(
                "scale bench: unknown tier '{other}' \
                 (expected 1k|5k|10k|churn-10k|100k|full|all)"
            );
            std::process::exit(2);
        }
    };

    if checkpoint_every.is_some() || resume_from.is_some() {
        let [(label, peers, population)] = selected.as_slice() else {
            eprintln!("scale bench: checkpoint mode needs a single tier (got '{tier_arg}')");
            std::process::exit(2);
        };
        let checkpoint = match (checkpoint_every, &checkpoint_path) {
            (Some(every), Some(path)) => Some((every, path.as_str())),
            (Some(_), None) => {
                eprintln!("scale bench: --checkpoint-every needs --checkpoint-path <file>");
                std::process::exit(2);
            }
            (None, _) => None,
        };
        let json = run_checkpoint_mode(
            label,
            *peers,
            *population,
            seed_list[0],
            options,
            checkpoint,
            resume_from.as_deref(),
        );
        match out {
            Some(path) => {
                std::fs::write(&path, &json).unwrap_or_else(|e| {
                    eprintln!("scale bench: cannot write {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("scale bench: wrote {path}");
            }
            None => println!("{json}"),
        }
        return;
    }

    // Measure the machine yardstick before the tiers run: the host is idle
    // and thermally unexcited here, matching how the reference loop behaves
    // on a fresh CI runner.
    let calibration = bench_support::calibrate_ops_per_s();
    eprintln!("calibration: {:.0} reference ops/s", calibration);

    let tiers: Vec<TierMeasurement> = selected
        .into_iter()
        .map(|(label, peers, population)| run_tier(label, peers, population, &seed_list, options))
        .collect();

    let json = to_json(&tiers, seed_list.len(), calibration);
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("scale bench: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("scale bench: wrote {path}");
        }
        None => println!("{json}"),
    }
}
