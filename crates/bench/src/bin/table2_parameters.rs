//! Table II: the simulation parameters, as configured in this reproduction.

use metrics::Table;
use sim::SimConfig;

fn main() {
    let config = SimConfig::paper_defaults();
    println!("Table II — basic simulation parameters (paper value = configured value)\n");

    let mut table = Table::new(vec!["parameter", "paper", "this reproduction"]);
    let rows: Vec<(&str, String, String)> = vec![
        (
            "number of peers",
            "200".into(),
            config.num_peers.to_string(),
        ),
        (
            "download capacity",
            "800 kbit/s".into(),
            format!("{} kbit/s", config.link.download_kbps),
        ),
        (
            "upload capacity",
            "80 kbit/s".into(),
            format!("{} kbit/s", config.link.upload_kbps),
        ),
        (
            "ul/dl slot size",
            "10 kbit/s".into(),
            format!("{} kbit/s", config.link.slot_kbps),
        ),
        (
            "content categories",
            "300".into(),
            config.workload.num_categories.to_string(),
        ),
        (
            "objects per category",
            "uniform(1,300)".into(),
            format!(
                "uniform({},{})",
                config.workload.objects_per_category.0, config.workload.objects_per_category.1
            ),
        ),
        (
            "categories/peer",
            "uniform(1,8)".into(),
            format!(
                "uniform({},{})",
                config.workload.categories_per_peer.0, config.workload.categories_per_peer.1
            ),
        ),
        (
            "category popularity",
            "f=0.2".into(),
            format!("f={}", config.workload.category_popularity_factor),
        ),
        (
            "object popularity",
            "f=0.2".into(),
            format!("f={}", config.workload.object_popularity_factor),
        ),
        (
            "object size",
            "20 MB".into(),
            format!("{} MB", config.workload.object_size_bytes / (1024 * 1024)),
        ),
        (
            "storage capacity per peer",
            "uniform(5,40) objects".into(),
            format!(
                "uniform({},{}) objects",
                config.workload.storage_capacity_objects.0,
                config.workload.storage_capacity_objects.1
            ),
        ),
        (
            "queue for incoming requests",
            "1000".into(),
            config.irq_capacity.to_string(),
        ),
        (
            "max pending objects",
            "6".into(),
            config.max_pending_objects.to_string(),
        ),
        (
            "fraction of freeloaders",
            "50%".into(),
            format!(
                "{:.0}%",
                config.behaviors.share(sim::BehaviorKind::FreeRider) * 100.0
            ),
        ),
        (
            "exchange discipline",
            "2-5-way".into(),
            config.discipline.label(),
        ),
        (
            "non-exchange scheduler",
            "FCFS".into(),
            config.scheduler.label().to_string(),
        ),
    ];
    for (name, paper, ours) in rows {
        table.add_row(vec![name.to_string(), paper, ours]);
    }
    println!("{table}");
    println!("Additional engine knobs not specified by the paper are documented on their");
    println!("SimConfig fields (crates/sim/src/config.rs): block_bytes, lookup_max_providers,");
    println!("ring_search_budget, ring_search_fanout, sim_duration_s and warmup_s.");
}
