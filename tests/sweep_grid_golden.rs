//! Golden snapshot test for the `SweepGrid` JSON export format.
//!
//! The JSON writer is hand-rolled (the workspace's serde is an offline
//! stub), so nothing type-checks its output shape; this exact-string
//! fixture pins the key names, nesting and number formatting.
//! A legitimate format change regenerates them with
//! `UPDATE_SNAPSHOTS=1 cargo test --test sweep_grid_golden`.

use std::path::PathBuf;

use p2p_exchange::sim::{Axis, CapacityClass, ClassMix, Scenario, SimConfig};

/// The fixed grid behind the snapshot: small, fast and fully
/// deterministic (the simulator is seeded; the scenario engine's row order
/// is independent of thread scheduling).  The class-mix axis pins the
/// per-capacity fairness entries alongside the original metrics.
fn golden_grid() -> p2p_exchange::sim::SweepGrid {
    let mut config = SimConfig::quick_test();
    config.num_peers = 12;
    config.sim_duration_s = 900.0;
    Scenario::from(config)
        .vary(Axis::UploadKbps(vec![60.0, 100.0]))
        .classes([
            ClassMix::uniform(),
            ClassMix::weighted([(CapacityClass::Fast, 0.5), (CapacityClass::Slow, 0.5)]),
        ])
        .seeds(0..2)
        .run()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_matches_fixture(actual: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nregenerate with UPDATE_SNAPSHOTS=1 \
             cargo test --test sweep_grid_golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its checked-in snapshot; if the change is \
         intentional, regenerate with UPDATE_SNAPSHOTS=1 cargo test --test \
         sweep_grid_golden"
    );
}

#[test]
fn json_export_matches_the_checked_in_snapshot() {
    assert_matches_fixture(&golden_grid().to_json_string(), "sweep_grid.json");
}
