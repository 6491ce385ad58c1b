//! Shared support code for the figure-regeneration binaries and benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! by running a [`sim::Scenario`] sweep.  They all accept:
//!
//! * `--scale <f>` — multiply the simulated duration (and warm-up) by `f`
//!   (default 0.25; `1.0` reproduces the full-length runs recorded in
//!   EXPERIMENTS.md, `0.05` gives a quick smoke run).
//! * `--peers <n>` — override the number of peers (default 200, Table II).
//! * `--seed <s>` — the first deterministic seed (default 1).
//! * `--seeds <n>` — how many consecutive seeds to run per grid point
//!   (default 3); points are aggregated as mean ± 95% CI over the seeds and
//!   executed in parallel by the scenario engine.
//! * `--stream <file.jsonl>` — additionally stream every completed
//!   `(point, seed)` row to `file.jsonl` as one JSON object per line, in
//!   completion order, flushed per line — a run killed partway leaves a
//!   parsable prefix that `bench_gate --stream` can consume.
//!
//! A missing, malformed or out-of-range value makes a binary exit with
//! status 2 and a message naming the flag; unknown arguments are ignored.
//!
//! The binaries print the same rows/series the paper reports, using
//! [`metrics::Table`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use sim::{Aggregate, Scenario, SimConfig, SweepGrid};

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOptions {
    /// Duration scale factor relative to the full-length experiment.
    pub scale: f64,
    /// Number of peers in the simulated system.
    pub peers: usize,
    /// First deterministic seed.
    pub seed: u64,
    /// Number of consecutive seeds per grid point.
    pub seeds: u64,
    /// Object size in MiB (Table II uses 20; smaller objects shrink the
    /// system's time constant so that scaled-down runs still reach steady
    /// state — see EXPERIMENTS.md).
    pub object_mb: u64,
    /// When set, stream completed sweep rows to this JSON-lines file.
    pub stream: Option<String>,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            scale: 0.25,
            peers: 200,
            seed: 1,
            seeds: 3,
            object_mb: 20,
            stream: None,
        }
    }
}

impl FigureOptions {
    /// Parses `--scale`, `--peers`, `--seed`, `--seeds`, `--object-mb` and
    /// `--stream` from an argument iterator.  Unknown arguments are ignored,
    /// because `cargo bench` appends its own (`--bench`).
    ///
    /// # Errors
    ///
    /// Names the flag when a known flag has no value, or a value that does
    /// not parse or is out of range: the scale must be positive and finite,
    /// there must be at least 2 peers, 1 seed and 1 MiB per object, the
    /// object size must fit a `u64` byte count, and `seed + seeds` must fit
    /// a `u64`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut options = FigureOptions::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => options.scale = positive(&flag, &value()?)?,
                "--peers" => options.peers = at_least(&flag, &value()?, 2)?,
                "--seed" => options.seed = at_least(&flag, &value()?, 0)?,
                "--seeds" => options.seeds = at_least(&flag, &value()?, 1)?,
                "--object-mb" => {
                    let value = value()?;
                    options.object_mb = at_least(&flag, &value, 1)?;
                    if options.object_mb.checked_mul(1024 * 1024).is_none() {
                        return Err(format!("{flag} {value} overflows a u64 byte count"));
                    }
                }
                "--stream" => options.stream = Some(value()?),
                _ => {}
            }
        }
        if options.seed.checked_add(options.seeds).is_none() {
            return Err(format!(
                "--seed {} with --seeds {} overflows the u64 seed range",
                options.seed, options.seeds
            ));
        }
        Ok(options)
    }

    /// Parses the options from the process environment, exiting with
    /// status 2 and a message naming the flag when they do not parse.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The base configuration every figure starts from: the paper's Table II
    /// parameters with the requested peer count and duration scale.
    #[must_use]
    pub fn base_config(&self) -> SimConfig {
        let mut config = SimConfig::paper_defaults().with_duration_scale(self.scale);
        config.num_peers = self.peers;
        config.workload.object_size_bytes = self.object_mb * 1024 * 1024;
        config
    }

    /// The seed range scenarios run under: `seed, seed+1, ..`.
    #[must_use]
    pub fn seed_range(&self) -> std::ops::Range<u64> {
        self.seed..self.seed + self.seeds
    }

    /// Runs a scenario under this figure's seeds, honouring `--stream`: with
    /// it, completed rows are streamed to the JSON-lines file as they finish
    /// (see [`Scenario::run_streamed`]); without it, this is a plain
    /// [`Scenario::run`].  The returned grid is identical either way.
    ///
    /// # Panics
    ///
    /// Panics when the stream file cannot be created or written — a figure
    /// run asked to leave a monitoring artifact must not silently drop it.
    #[must_use]
    pub fn run_grid(&self, scenario: Scenario) -> SweepGrid {
        let scenario = scenario.seeds(self.seed_range());
        match &self.stream {
            Some(path) => {
                let mut file = std::fs::File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create stream file {path}: {e}"));
                scenario
                    .run_streamed(&mut file)
                    .unwrap_or_else(|e| panic!("cannot stream rows to {path}: {e}"))
            }
            None => scenario.run(),
        }
    }
}

/// Parses a flag's integer value, requiring it to be at least `min`.
fn at_least<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    flag: &str,
    value: &str,
    min: T,
) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!(
            "{flag} takes an integer of at least {min}, got '{value}'"
        )),
    }
}

/// Parses a flag's value as a positive, finite number.
fn positive(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("{flag} takes a positive number, got '{value}'"))
}

/// Tunable workload shape of a `scale` bench tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierOptions {
    /// Object size in MiB.
    pub object_mb: u64,
    /// Simulated horizon, in seconds.
    pub duration_s: f64,
    /// Ring-search expansion budget.
    pub budget: usize,
    /// Ring-search fanout.
    pub fanout: usize,
}

impl Default for TierOptions {
    fn default() -> Self {
        TierOptions {
            object_mb: 1,
            duration_s: 1_800.0,
            budget: 512,
            fanout: 8,
        }
    }
}

/// The `scale` bench's command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleArgs {
    /// The tier to run (`None`: do nothing).
    pub tier: Option<String>,
    /// Where to write the JSON result (`None`: stdout).
    pub out: Option<String>,
    /// How many seeds each tier runs (`1..=seeds`).
    pub seeds: u64,
    /// The workload shape.
    pub options: TierOptions,
    /// Checkpoint interval in simulated seconds (checkpoint mode).
    pub checkpoint_every: Option<f64>,
    /// Where checkpoint mode writes its snapshot.
    pub checkpoint_path: Option<String>,
    /// A snapshot to resume from (checkpoint mode).
    pub resume_from: Option<String>,
}

impl ScaleArgs {
    /// Parses the `scale` bench's flags.  Unknown arguments are ignored,
    /// because `cargo bench` appends its own (`--bench`).
    ///
    /// # Errors
    ///
    /// Names the flag when a known flag has no value, or a value that does
    /// not parse or is out of range: counts must be at least 1, and the
    /// duration and checkpoint interval positive and finite.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut parsed = ScaleArgs {
            tier: None,
            out: None,
            seeds: 2,
            options: TierOptions::default(),
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            let options = &mut parsed.options;
            match flag.as_str() {
                "--tier" => parsed.tier = Some(value()?),
                "--out" => parsed.out = Some(value()?),
                "--seeds" => parsed.seeds = at_least(&flag, &value()?, 1)?,
                "--object-mb" => options.object_mb = at_least(&flag, &value()?, 1)?,
                "--duration" => options.duration_s = positive(&flag, &value()?)?,
                "--budget" => options.budget = at_least(&flag, &value()?, 1)?,
                "--fanout" => options.fanout = at_least(&flag, &value()?, 1)?,
                "--checkpoint-every" => {
                    parsed.checkpoint_every = Some(positive(&flag, &value()?)?);
                }
                "--checkpoint-path" => parsed.checkpoint_path = Some(value()?),
                "--resume-from" => parsed.resume_from = Some(value()?),
                _ => {}
            }
        }
        Ok(parsed)
    }
}

/// A machine-speed yardstick for the bench-regression gate: iterations per
/// second of a fixed integer-arithmetic reference loop on this host.
///
/// The `scale` bench records this next to its wall-clock timings so that
/// [`bench_gate`](../bin/bench_gate.rs) can compare **calibrated event
/// rates** (`events / phase_s / calibration`) instead of absolute seconds:
/// when CI moves to a runner that is uniformly 2× slower, every phase time
/// doubles but so does the reference loop, and the gate still passes — while
/// a real per-event cost regression moves the ratio and still trips it.
///
/// The loop is xorshift64* state mixing: pure register arithmetic with no
/// memory traffic, so the measured rate tracks scalar CPU speed — the same
/// resource the single-threaded event loop is bound by — rather than cache
/// or memory-bandwidth effects.  One warm-up pass absorbs frequency
/// scaling; the best of three timed passes is kept, the maximum being the
/// estimate least contaminated by scheduler noise.
#[must_use]
pub fn calibrate_ops_per_s() -> f64 {
    use std::hint::black_box;
    use std::time::Instant;
    const OPS: u64 = 50_000_000;
    fn reference(ops: u64) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }
    black_box(reference(black_box(OPS / 10)));
    let mut best = 0.0f64;
    for _ in 0..3 {
        let started = Instant::now();
        black_box(reference(black_box(OPS)));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            best = best.max(OPS as f64 / elapsed);
        }
    }
    best
}

/// Formats an optional aggregated mean (in minutes) for table output.
#[must_use]
pub fn fmt_minutes(value: Option<Aggregate>) -> String {
    fmt_aggregate(value, 1)
}

/// Formats an optional aggregated ratio.
#[must_use]
pub fn fmt_ratio(value: Option<Aggregate>) -> String {
    fmt_aggregate(value, 2)
}

/// Formats an aggregate as `mean±ci` (the CI half-width is omitted when a
/// single seed ran), or `n/a` when no seed reported the metric.
#[must_use]
pub fn fmt_aggregate(value: Option<Aggregate>, precision: usize) -> String {
    match value {
        Some(a) if a.n > 1 => format!("{:.precision$}±{:.precision$}", a.mean, a.ci95),
        Some(a) => format!("{:.precision$}", a.mean),
        None => "n/a".to_string(),
    }
}

/// Prints the standard header every figure binary starts with.
pub fn print_figure_header(title: &str, options: &FigureOptions, config: &SimConfig) {
    println!("{title}");
    println!(
        "{} peers, {:.1}h simulated ({:.1}h warm-up), seeds {}..{}, scale {}",
        config.num_peers,
        config.sim_duration_s / 3600.0,
        config.warmup_s / 3600.0,
        options.seed,
        options.seed + options.seeds,
        options.scale
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureOptions, String> {
        FigureOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let options = parse(&[]).unwrap();
        assert_eq!(options, FigureOptions::default());
        assert_eq!(options.seed_range(), 1..4);
    }

    #[test]
    fn parses_known_flags() {
        let options = parse(&[
            "--scale",
            "0.5",
            "--peers",
            "100",
            "--seed",
            "7",
            "--seeds",
            "5",
            "--object-mb",
            "5",
            "--stream",
            "rows.jsonl",
        ])
        .unwrap();
        assert_eq!(options.scale, 0.5);
        assert_eq!(options.peers, 100);
        assert_eq!(options.seed, 7);
        assert_eq!(options.seeds, 5);
        assert_eq!(options.object_mb, 5);
        assert_eq!(options.seed_range(), 7..12);
        assert_eq!(options.stream.as_deref(), Some("rows.jsonl"));
    }

    #[test]
    fn ignores_unknown_flags() {
        let options = parse(&["--bench", "--peers", "50", "extra"]).unwrap();
        assert_eq!(options.peers, 50);
        assert_eq!(
            FigureOptions {
                peers: 200,
                ..options
            },
            FigureOptions::default()
        );
    }

    #[test]
    fn rejects_invalid_values_naming_the_flag() {
        let cases: [(&str, &[&str]); 5] = [
            ("--scale", &["abc", "0", "-1", "NaN", "inf", ""]),
            ("--peers", &["1", "0", "-3", "x", "2.5"]),
            ("--seed", &["-1", "x", "1.5", "18446744073709551616"]),
            ("--seeds", &["0", "-1", "x"]),
            ("--object-mb", &["0", "x", "17592186044416"]),
        ];
        for (flag, bads) in cases {
            for bad in bads {
                let err = parse(&["--bench", flag, bad]).unwrap_err();
                assert!(err.contains(flag), "{flag} {bad:?}: {err}");
            }
        }
        for flag in ["--scale", "--seed", "--stream"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
        // The seed range must fit a u64: the last seed is `seed + seeds - 1`.
        let max = u64::MAX.to_string();
        let err = parse(&["--seed", &max, "--seeds", "2"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = parse(&["--seed", &max, "--seeds", "1"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let last = (u64::MAX - 3).to_string();
        assert_eq!(
            parse(&["--seed", &last, "--seeds", "3"])
                .unwrap()
                .seed_range(),
            u64::MAX - 3..u64::MAX
        );
    }

    #[test]
    fn base_config_applies_scale_peers_and_object_size() {
        let options = parse(&["--scale", "0.1", "--peers", "50", "--object-mb", "5"]).unwrap();
        let config = options.base_config();
        assert_eq!(config.num_peers, 50);
        assert!((config.sim_duration_s - 0.1 * 48.0 * 3600.0).abs() < 1e-6);
        assert_eq!(config.workload.object_size_bytes, 5 * 1024 * 1024);
        assert!(config.validate().is_ok());
    }

    fn scale_args(args: &[&str]) -> Result<ScaleArgs, String> {
        ScaleArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn scale_args_default_and_ignore_unknown_arguments() {
        let parsed = scale_args(&["--tier", "1k", "extra", "--bench"]).unwrap();
        assert_eq!(parsed.tier.as_deref(), Some("1k"));
        assert_eq!(parsed.seeds, 2);
        assert_eq!(parsed.options, TierOptions::default());
        assert_eq!(parsed.checkpoint_every, None);
        assert_eq!(scale_args(&[]).unwrap().tier, None);
    }

    #[test]
    fn scale_args_parse_every_flag() {
        let parsed = scale_args(&[
            "--tier",
            "churn-10k",
            "--out",
            "o.json",
            "--seeds",
            "3",
            "--object-mb",
            "2",
            "--duration",
            "900.5",
            "--budget",
            "64",
            "--fanout",
            "5",
            "--checkpoint-every",
            "60",
            "--checkpoint-path",
            "c.ckpt",
            "--resume-from",
            "r.ckpt",
        ])
        .unwrap();
        assert_eq!(
            parsed,
            ScaleArgs {
                tier: Some("churn-10k".into()),
                out: Some("o.json".into()),
                seeds: 3,
                options: TierOptions {
                    object_mb: 2,
                    duration_s: 900.5,
                    budget: 64,
                    fanout: 5,
                },
                checkpoint_every: Some(60.0),
                checkpoint_path: Some("c.ckpt".into()),
                resume_from: Some("r.ckpt".into()),
            }
        );
    }

    #[test]
    fn scale_args_reject_bad_values_naming_the_flag() {
        let counts = ["--seeds", "--object-mb", "--budget", "--fanout"];
        for flag in counts {
            for bad in ["0", "-1", "x", "1.5", ""] {
                let err = scale_args(&["--tier", "1k", flag, bad]).unwrap_err();
                assert!(err.contains(flag), "{flag} {bad:?}: {err}");
            }
        }
        for flag in ["--duration", "--checkpoint-every"] {
            for bad in ["0", "-60", "NaN", "inf", "x"] {
                let err = scale_args(&["--tier", "1k", flag, bad]).unwrap_err();
                assert!(err.contains(flag), "{flag} {bad:?}: {err}");
            }
        }
        for flag in ["--tier", "--seeds", "--checkpoint-path"] {
            let err = scale_args(&[flag]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn calibration_is_positive_and_repeatable_in_order_of_magnitude() {
        let a = calibrate_ops_per_s();
        let b = calibrate_ops_per_s();
        assert!(a.is_finite() && a > 0.0, "calibration not positive: {a}");
        // Back-to-back runs on the same host agree well within 10× — the
        // gate only needs the yardstick to track machine speed coarsely.
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 10.0, "calibration unstable: {a} vs {b}");
    }

    #[test]
    fn formatting_helpers() {
        let single = Aggregate {
            mean: 12.34,
            ci95: 0.0,
            n: 1,
        };
        let multi = Aggregate {
            mean: 12.34,
            ci95: 1.27,
            n: 3,
        };
        assert_eq!(fmt_minutes(Some(single)), "12.3");
        assert_eq!(fmt_minutes(Some(multi)), "12.3±1.3");
        assert_eq!(fmt_minutes(None), "n/a");
        assert_eq!(fmt_ratio(Some(multi)), "12.34±1.27");
        assert_eq!(fmt_ratio(None), "n/a");
    }
}
