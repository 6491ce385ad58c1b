//! Table III (new): how much each Section III-B cheater gains under every
//! upload scheduler × protection combination, via the behavior-mix API.
//!
//! Besides the printed table, `--json <path>` dumps the full sweep grid
//! through `SweepGrid::write_json` for plotting; a failed write exits 1.

use bench_support::{print_figure_header, FigureOptions};
use exchange::ExchangePolicy;
use metrics::Table;
use sim::experiment::cheating_scenario;
use sim::{BehaviorKind, BehaviorMix, Protection, SchedulerKind, SweepGrid};

fn main() {
    let options = FigureOptions::from_env();
    let mut base = options.base_config();
    base.discipline = ExchangePolicy::two_five_way();
    print_figure_header(
        "Table III — usable MB/peer gained by each behavior, per scheduler × protection",
        &options,
        &base,
    );

    let adversarial = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.15),
        (BehaviorKind::JunkSender, 0.1),
        (BehaviorKind::ParticipationCheater, 0.1),
        (BehaviorKind::Middleman, 0.15),
    ]);
    let grid = options.run_grid(
        cheating_scenario(&base, &[adversarial], &Protection::all_basic())
            .schedulers(SchedulerKind::all()),
    );

    let mut table = Table::new(vec![
        "protection",
        "scheduler",
        "honest",
        "free-rider",
        "junk-sender",
        "particip-cheater",
        "middleman",
        "cheats caught",
    ]);
    for protection in Protection::all_basic() {
        for scheduler in SchedulerKind::all() {
            let query = [
                ("protection", protection.label()),
                ("scheduler", scheduler.label().to_string()),
            ];
            let query: Vec<(&str, &str)> = query.iter().map(|(a, v)| (*a, v.as_str())).collect();
            let usable = |kind: BehaviorKind| {
                grid.aggregate_where(&query, |r| r.mean_usable_mb_per_peer(kind))
                    .map_or("n/a".to_string(), |a| format!("{:.1}", a.mean))
            };
            let caught = grid
                .aggregate_where(&query, |r| Some(r.cheat_detections() as f64))
                .map_or("n/a".to_string(), |a| format!("{:.0}", a.mean));
            table.add_row(vec![
                protection.label(),
                scheduler.label().to_string(),
                usable(BehaviorKind::Honest),
                usable(BehaviorKind::FreeRider),
                usable(BehaviorKind::JunkSender),
                usable(BehaviorKind::ParticipationCheater),
                usable(BehaviorKind::Middleman),
                caught,
            ]);
        }
    }
    println!("{table}");
    println!(
        "Values are mean usable MB per peer over {} seeds.",
        options.seeds
    );
    println!("Paper shape (Section III-B): unprotected, the middleman and junk sender");
    println!("out-earn passive free-riders; windowed validation bounds the junk sender's");
    println!("take per detection, and mediation zeroes the middleman's usable bytes.");

    write_json_dumps(&grid);
}

/// Handles `--json <path>` (ignored by `FigureOptions`), exiting 1 if a
/// write fails.
fn write_json_dumps(grid: &SweepGrid) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.windows(2) {
        let (flag, path) = (&pair[0], &pair[1]);
        if flag != "--json" {
            continue;
        }
        match std::fs::File::create(path).and_then(|mut f| grid.write_json(&mut f)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
