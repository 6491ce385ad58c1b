//! Section III-B end to end: the windowed-validation rate cap, the mixed
//! object+capacity exchange of Table I / Figure 3, and — through the
//! first-class behavior API — a full simulation sweep of the adversarial
//! populations against each countermeasure.  The trusted mediator appears
//! only in that sweep, as the simulator models it: under `mediated` the
//! middleman's usable MB/peer is exactly 0.0.
//!
//! ```text
//! cargo run --release --example cheating_and_mixed_exchange
//! ```

use p2p_exchange::exchange::cheat::WindowedExchange;
use p2p_exchange::exchange::mixed::{plan_mixed_exchange, pure_exchange_rates, PeerSpec};
use p2p_exchange::exchange::ExchangePolicy;
use p2p_exchange::metrics::Table;
use p2p_exchange::sim::experiment::cheating_scenario;
use p2p_exchange::sim::{BehaviorKind, BehaviorMix, Protection, SchedulerKind, SimConfig};

fn main() {
    windowed_validation();
    mixed_exchange_plan();
    behavior_mix_sweep();
}

fn windowed_validation() {
    println!("== Windowed block validation (256 KiB blocks, 200 ms RTT, 5000 kB/s slot) ==");
    let mut exchange = WindowedExchange::new(256 * 1024, 8);
    let rate_kb = |exchange: &WindowedExchange| exchange.effective_rate(0.2, 5.0e6) / 1000.0;
    println!(
        "start: window={} block, rate {:.0} kB/s",
        exchange.window(),
        rate_kb(&exchange)
    );
    for round in 1..=4 {
        exchange.on_round_validated();
        println!(
            "after {round} validated rounds: window={} blocks, rate {:.0} kB/s",
            exchange.window(),
            rate_kb(&exchange)
        );
    }
    exchange.on_invalid_block();
    println!(
        "after one junk block: window collapses to {}, rate {:.0} kB/s\n",
        exchange.window(),
        rate_kb(&exchange)
    );
}

fn mixed_exchange_plan() {
    println!("== Mixed object + capacity exchange (Table I / Figure 3) ==");
    let specs = vec![
        PeerSpec {
            peer: "A",
            upload_capacity: 10.0,
            has: vec![],
            wants: vec!['x'],
        },
        PeerSpec {
            peer: "B",
            upload_capacity: 5.0,
            has: vec!['x'],
            wants: vec!['y'],
        },
        PeerSpec {
            peer: "C",
            upload_capacity: 10.0,
            has: vec!['y'],
            wants: vec!['x'],
        },
        PeerSpec {
            peer: "D",
            upload_capacity: 10.0,
            has: vec!['y'],
            wants: vec!['x'],
        },
    ];
    let pure = pure_exchange_rates(&specs);
    let plan = plan_mixed_exchange(&specs).expect("Table I structure");
    for spec in &specs {
        println!(
            "peer {}: pure exchange rate {:.0}, mixed exchange rate {:.0}",
            spec.peer,
            pure[&spec.peer],
            plan.download_rate_of(&spec.peer)
        );
    }
    println!("\nThe mixed plan serves every peer at least as well as the pure ring exchange,");
    println!("and peers A and D — excluded from any ring — now get served too.\n");
}

/// The behavior-mix sweep: every Section III-B population against every
/// countermeasure, in one `Scenario` grid.
fn behavior_mix_sweep() {
    println!("== Behavior mixes vs countermeasures (simulated) ==");
    let mut base = SimConfig::quick_test();
    base.num_peers = 40;
    base.sim_duration_s = 6_000.0;
    base.discipline = ExchangePolicy::two_five_way();
    base.scheduler = SchedulerKind::ExchangePriority;

    let adversarial = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.15),
        (BehaviorKind::JunkSender, 0.1),
        (BehaviorKind::ParticipationCheater, 0.1),
        (BehaviorKind::Middleman, 0.15),
    ]);
    let grid = cheating_scenario(&base, &[adversarial], &Protection::all_basic())
        .seeds([11])
        .run();

    let mut table = Table::new(vec![
        "protection",
        "honest (MB/peer)",
        "free-rider",
        "junk-sender",
        "particip-cheater",
        "middleman",
        "cheats caught",
    ]);
    for row in grid.rows() {
        let report = &row.report;
        let usable = |kind: BehaviorKind| {
            report
                .mean_usable_mb_per_peer(kind)
                .map_or("n/a".to_string(), |mb| format!("{mb:.1}"))
        };
        table.add_row(vec![
            grid.point(row.point)
                .value("protection")
                .unwrap_or("?")
                .to_string(),
            usable(BehaviorKind::Honest),
            usable(BehaviorKind::FreeRider),
            usable(BehaviorKind::JunkSender),
            usable(BehaviorKind::ParticipationCheater),
            usable(BehaviorKind::Middleman),
            report.cheat_detections().to_string(),
        ]);
    }
    println!(
        "usable megabytes downloaded per peer, by behavior ({} peers, seed 11)\n",
        base.num_peers
    );
    println!("{table}");
    println!("Unprotected, the middleman and junk sender out-earn the passive free-rider.");
    println!("Windowed validation multiplies junk detections; mediation zeroes the");
    println!("middleman's usable bytes — it relays ciphertext it can never read.");
}
