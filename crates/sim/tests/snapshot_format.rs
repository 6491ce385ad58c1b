//! Snapshot wire-format hardening (ISSUE 9).
//!
//! A checked-in golden snapshot pins the version-1 byte layout: any change
//! to the format — section order, integer widths, new state — fails
//! `golden_snapshot_bytes_are_stable` until the author consciously bumps
//! `SNAPSHOT_VERSION` and regenerates the fixture with
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p sim --test snapshot_format
//! ```
//!
//! The remaining tests pin the error contract: truncated bytes, wrong
//! magic, future format versions, an unknown ring-cache tag, and a
//! dirty-peer list that disagrees with its dirty-edge log must return
//! [`SnapshotError`]s, never panic, and the golden fixture must restore into a simulation that
//! finishes with the exact same report as a fresh run.

use std::path::PathBuf;

use sim::{SimConfig, SimTime, Simulation, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// The fixed scenario the golden fixture freezes.  Every knob is pinned
/// explicitly so drifting `quick_test` defaults do not silently change the
/// fixture's meaning.
fn golden_config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 12;
    config.sim_duration_s = 600.0;
    config.warmup_s = 150.0;
    config.shards = 1;
    config
}

const GOLDEN_SEED: u64 = 42;
const GOLDEN_CHECKPOINT_S: f64 = 240.0;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_test_v1.snap")
}

/// The fixture's bytes, regenerated in-process.
fn golden_bytes() -> Vec<u8> {
    let mut simulation = Simulation::new(golden_config(), GOLDEN_SEED);
    simulation.run_until(SimTime::from_secs_f64(GOLDEN_CHECKPOINT_S));
    let mut bytes = Vec::new();
    simulation
        .checkpoint(&mut bytes)
        .expect("serializing into a Vec cannot fail");
    bytes
}

#[test]
fn golden_snapshot_bytes_are_stable() {
    let fresh = golden_bytes();
    let path = golden_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &fresh).expect("write golden fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let checked_in = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {} ({e}); regenerate with UPDATE_SNAPSHOTS=1",
            path.display()
        )
    });
    assert_eq!(
        checked_in.len(),
        fresh.len(),
        "snapshot byte length changed — bump SNAPSHOT_VERSION and regenerate \
         the fixture with UPDATE_SNAPSHOTS=1"
    );
    assert!(
        checked_in == fresh,
        "snapshot byte layout changed — bump SNAPSHOT_VERSION and regenerate \
         the fixture with UPDATE_SNAPSHOTS=1"
    );
}

#[test]
fn golden_snapshot_restores_and_finishes_identically() {
    let config = golden_config();
    let straight = Simulation::new(config.clone(), GOLDEN_SEED).run();
    let bytes = std::fs::read(golden_path()).expect("golden fixture is checked in");
    let resumed = Simulation::restore(&mut &bytes[..], &config)
        .expect("golden fixture restores")
        .run();
    assert_eq!(straight.ring_cache_stats(), resumed.ring_cache_stats());
    assert_eq!(straight, resumed);
}

#[test]
fn restore_then_checkpoint_is_byte_identical() {
    let config = golden_config();
    let bytes = golden_bytes();
    let restored = Simulation::restore(&mut &bytes[..], &config).expect("snapshot restores");
    let mut again = Vec::new();
    restored
        .checkpoint(&mut again)
        .expect("serializing into a Vec cannot fail");
    assert!(bytes == again, "restore → checkpoint must round-trip bytes");
}

#[test]
fn truncated_snapshots_error_gracefully() {
    let config = golden_config();
    let bytes = golden_bytes();
    // Every prefix length that cuts a header or section boundary class.
    for cut in [0, 1, 7, 8, 11, 12, 19, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = Simulation::restore(&mut &bytes[..cut], &config)
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes must not restore"));
        // Any SnapshotError is acceptable; panicking is not.
        let _ = err.to_string();
    }
}

#[test]
fn wrong_magic_errors_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Simulation::restore(&mut &bytes[..], &config),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn future_versions_error_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    let future = (SNAPSHOT_VERSION + 1).to_le_bytes();
    bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4].copy_from_slice(&future);
    match Simulation::restore(&mut &bytes[..], &config) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// Byte length of the fixed header: magic, version, setup seed, peer count.
const HEADER_LEN: usize = SNAPSHOT_MAGIC.len() + 4 + 8 + 8;

/// Section tags of the v1 layout that the tests below edit.
const TAG_GRAPH: u8 = 4;
const TAG_RING_CACHE: u8 = 9;

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// The offset of the `len: u64` field of section `tag` (its payload starts
/// 8 bytes later).
fn section_len_offset(bytes: &[u8], tag: u8) -> usize {
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let len = usize::try_from(read_u64(bytes, at + 1)).expect("section fits in memory");
        if bytes[at] == tag {
            return at + 1;
        }
        at += 1 + 8 + len;
    }
    panic!("section {tag} not found");
}

#[test]
fn unknown_ring_cache_tag_errors_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    // The ring-cache payload opens with its one-byte cache tag; `0` named a
    // cache design that no longer exists.
    let payload = section_len_offset(&bytes, TAG_RING_CACHE) + 8;
    assert_eq!(bytes[payload], 1, "the golden snapshot writes cache tag 1");
    bytes[payload] = 0;
    assert!(matches!(
        Simulation::restore(&mut &bytes[..], &config),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn dirty_peer_list_disagreeing_with_the_edge_log_errors_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    // Graph payload: edge count, 12-byte edges, generation, then the
    // dirty-peer list (count, 4-byte peer ids) the restore checks against
    // the endpoints of the dirty-edge log that follows it.
    let len_at = section_len_offset(&bytes, TAG_GRAPH);
    let payload = len_at + 8;
    let edges = usize::try_from(read_u64(&bytes, payload)).expect("edge count fits");
    let count_at = payload + 8 + 12 * edges + 8;
    let listed = read_u64(&bytes, count_at);
    // Drop the first listed peer, or list peer 0 when the list is empty:
    // either way the list no longer matches the edge log.
    let (new_count, new_len) = if listed > 0 {
        bytes.drain(count_at + 8..count_at + 12);
        (listed - 1, read_u64(&bytes, len_at) - 4)
    } else {
        bytes.splice(count_at + 8..count_at + 8, 0u32.to_le_bytes());
        (1, read_u64(&bytes, len_at) + 4)
    };
    bytes[count_at..count_at + 8].copy_from_slice(&new_count.to_le_bytes());
    bytes[len_at..len_at + 8].copy_from_slice(&new_len.to_le_bytes());
    assert!(matches!(
        Simulation::restore(&mut &bytes[..], &config),
        Err(SnapshotError::Corrupt(_))
    ));
}
