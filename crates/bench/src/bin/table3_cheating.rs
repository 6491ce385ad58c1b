//! Table III (new): how much each Section III-B cheater gains under every
//! upload scheduler × protection combination, via the behavior-mix API.
//!
//! Besides the printed table, `--json <path>` dumps the full sweep grid
//! through `SweepGrid::write_json` for plotting.  The flag is read, and the
//! file created, before the sweep runs: a missing path exits 2 naming the
//! flag, and a path that cannot be created or written exits 1.

use std::fs::File;

use bench_support::{print_figure_header, FigureOptions};
use exchange::ExchangePolicy;
use metrics::Table;
use sim::experiment::cheating_scenario;
use sim::{BehaviorKind, BehaviorMix, Protection, SchedulerKind};

fn main() {
    let options = FigureOptions::from_env();
    let json = json_path(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut json = json.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => {
            eprintln!("failed to create {path}: {e}");
            std::process::exit(1);
        }
    });
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

    if let Some((path, file)) = &mut json {
        match grid.write_json(file) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `--json <path>` flag, which `FigureOptions` ignores; the last one
/// wins.
///
/// # Errors
///
/// Names the flag when it has no value.
fn json_path<I: IntoIterator<Item = String>>(args: I) -> Result<Option<String>, String> {
    let mut path = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--json" {
            path = Some(args.next().ok_or("--json needs a value")?);
        }
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::json_path;

    fn parse(args: &[&str]) -> Result<Option<String>, String> {
        json_path(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn json_flag_parses_before_the_sweep() {
        assert_eq!(parse(&["--seeds", "1", "--bench"]), Ok(None));
        assert_eq!(
            parse(&["--json", "a.json", "--seeds", "1"]),
            Ok(Some("a.json".into()))
        );
        assert_eq!(
            parse(&["--json", "a.json", "--json", "b.json"]),
            Ok(Some("b.json".into()))
        );
        let err = parse(&["--seeds", "1", "--json"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }
}
