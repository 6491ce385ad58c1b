//! The repository benchmark.  One process measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|scale-10k|churn-10k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload untraced for about `--seconds`
//! seconds and prints the end-to-end metrics (medians over the
//! repetitions); with `--trace 1` it makes one traced pass and prints the
//! per-layer metrics.  Standard output ends with one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, where
//! `attempted` counts runs and `failed` the runs whose report failed a
//! correctness check.  A `host` line before it records the machine, and with
//! `--trace 1` the spans follow it.  See `README.md` beside this file.

mod check;
mod measure;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use check::Checker;
use measure::{Context, Values};
use trace::Trace;
use workload::{Size, Workload};

/// The end-to-end metrics and their units (`--trace 0`).
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics and their units (`--trace 1`).
const PER_LAYER: [(&str, &str); 39] = [
    ("setup.generate_s", "s"),
    ("setup.from_setup_s", "s"),
    ("loop.events", "count"),
    ("loop.event_loop_s", "s"),
    ("loop.us_per_event", "us"),
    ("loop.dispatch_overhead_s", "s"),
    ("events.generate_requests_s", "s"),
    ("transfers.transfers_s", "s"),
    ("transfers.sessions", "count"),
    ("transfers.completed_downloads", "count"),
    ("maintenance.maintenance_s", "s"),
    ("scheduling.scheduling_s", "s"),
    ("scheduling.unattributed_s", "s"),
    ("scheduling.rings_formed", "count"),
    ("scheduling.token_declines", "count"),
    ("scheduling.rings_dissolved_at_activation", "count"),
    ("scheduling.preemptions", "count"),
    ("exchange.ring_search_s", "s"),
    ("exchange.ring_searches", "count"),
    ("exchange.us_per_search", "us"),
    ("exchange.rings_per_search", "ratio"),
    ("ring_cache.hits", "count"),
    ("ring_cache.misses", "count"),
    ("ring_cache.hit_ratio", "ratio"),
    ("ring_cache.invalidations", "count"),
    ("population.population_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.checkpoint_s", "s"),
    ("snapshot.restore_s", "s"),
    ("scenario.jobs", "count"),
    ("scenario.threads", "count"),
    ("scenario.job_s_median", "s"),
    ("scenario.job_s_max", "s"),
    ("scenario.parallel_efficiency", "ratio"),
    ("shard.speedup", "ratio"),
    ("shard.planning_s", "s"),
    ("shard.plan_hit_rate", "ratio"),
    ("shard.search_cpu_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    size: Size,
    inject_mismatch: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut size = Size::Full;
    let mut inject_mismatch = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--inject-mismatch" {
            inject_mismatch = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?,
                );
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, got '{value}'")),
                };
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        size,
        inject_mismatch,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1> [--size full|tiny] [--inject-mismatch]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Measure the machine yardstick first, while the process is still idle.
    let calibration = bench_support::calibrate_ops_per_s();
    println!(
        "{{\"host\": {{\"nproc\": {threads}, \"calibration_ops_per_s\": {calibration:.0}, \
         \"seed\": {}, \"git_revision\": \"{}\", \"workload\": \"{}\", \"size\": \"{}\", \
         \"trace\": {}, \"seconds\": {}}}}}",
        args.seed,
        git_revision(),
        args.workload.name(),
        match args.size {
            Size::Full => "full",
            Size::Tiny => "tiny",
        },
        u8::from(args.traced),
        args.seconds,
    );

    let mut ctx = Context {
        workload: args.workload,
        size: args.size,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        threads,
        trace: Trace::new(),
        checker: Checker::new(args.inject_mismatch),
    };
    let mut out = String::new();
    let (values, defined): (Values, &[(&str, &str)]) = if args.traced {
        // The sharded pass runs at the host's parallelism, and at two shards
        // on a single core so the sharded engine still runs.
        let values = measure::per_layer(&mut ctx, threads.max(2));
        ctx.trace.write_json_lines(&mut out);
        (values, &PER_LAYER)
    } else {
        (measure::end_to_end(&mut ctx), &END_TO_END)
    };
    out.push_str(&result_json(&ctx.checker, &values, defined));
    println!("{out}");
    ExitCode::SUCCESS
}

/// The result line: every defined metric, in definition order, with its
/// unit.
///
/// # Panics
///
/// Panics when a defined metric was not measured or a value is not finite:
/// both are bugs in this benchmark.
fn result_json(checker: &Checker, values: &Values, defined: &[(&str, &str)]) -> String {
    assert_eq!(values.len(), defined.len(), "measured metrics: {values:?}");
    let mut metrics = Vec::with_capacity(defined.len());
    for &(name, unit) in defined {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is {value}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed() == 0,
        checker.attempted(),
        checker.failed(),
        metrics.join(", ")
    )
}

/// The revision of the checkout the benchmark runs in, read from `.git`
/// below the working directory (never above it), or `unknown` outside a git
/// checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
