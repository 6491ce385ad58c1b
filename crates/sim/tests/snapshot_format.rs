//! Snapshot wire-format hardening.
//!
//! Checked-in golden snapshots, `tests/golden/<name>_v<SNAPSHOT_VERSION>.snap`,
//! pin the current byte layout: any change to the format — section order,
//! integer widths, state added or removed — fails
//! `golden_snapshot_bytes_are_stable` and the fixture test until the author
//! consciously bumps `SNAPSHOT_VERSION` and re-records the fixtures with
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p sim --test snapshot_format
//! ```
//!
//! and deletes the previous version's files (a test rejects leftovers).
//! Each fixture's uninterrupted run is pinned too, as `<name>.report`: a
//! format change leaves those files alone, so a version bump that claims to
//! keep behaviour proves it.
//!
//! The remaining tests pin the error contract: truncated bytes, wrong
//! magic, future format versions, a self-request edge, a cached search
//! whose dependency lists are out of order, a pending event before the
//! clock, scheduler history written by a scheduler other than the
//! configured one, transfers that overfill a peer's slot pool, and a
//! transfer id too large for the per-peer transfer index must return
//! [`SnapshotError`]s, never panic, and every golden fixture must
//! restore into a simulation that finishes with the exact same report as a
//! fresh run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use sim::{
    BehaviorKind, BehaviorMix, CapacityClass, CatastropheConfig, ChurnConfig, ClassMix,
    FlashCrowdConfig, Protection, SchedulerKind, SimConfig, SimReport, SimSetup, SimTime,
    Simulation, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

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

const GOLDEN_NAME: &str = "quick_test";
const GOLDEN_SEED: u64 = 42;
const GOLDEN_CHECKPOINT_S: f64 = 240.0;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The golden snapshot of fixture `name` at the current format version.
fn snap_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}_v{SNAPSHOT_VERSION}.snap"))
}

/// The straight run's report of fixture `name`.  Reports do not depend on
/// the snapshot format, so their names carry no version.
fn report_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.report"))
}

fn golden_path() -> PathBuf {
    snap_path(GOLDEN_NAME)
}

/// Asserts that `report`, the uninterrupted run of fixture `name`, prints
/// exactly as the checked-in `.report` file.  A format change never touches
/// these files; only a behaviour change does, and it regenerates them with
///
/// ```text
/// UPDATE_REPORTS=1 cargo test -p sim --test snapshot_format
/// ```
fn assert_report_is_pinned(name: &str, report: &SimReport) {
    let fresh = format!("{report:?}");
    let path = report_path(name);
    if std::env::var_os("UPDATE_REPORTS").is_some() {
        std::fs::write(&path, &fresh).expect("write report fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read report fixture {} ({e}); regenerate with UPDATE_REPORTS=1",
            path.display()
        )
    });
    assert!(
        checked_in == fresh,
        "{name}: the straight run's report changed — behaviour is not what \
         {} pins",
        path.display()
    );
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
    assert_report_is_pinned(GOLDEN_NAME, &straight);
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

/// Section tags of the layout that the tests below edit.
const TAG_GRAPH: u8 = 4;
const TAG_TRANSFERS: u8 = 5;
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

/// Section tag of the engine section (clock, horizon, counters, pending
/// events).
const TAG_ENGINE: u8 = 6;

#[test]
fn self_request_edge_errors_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    // Graph payload: edge count, then 12-byte (requester, provider, object)
    // edges.  A peer never requests from itself, so copying the first
    // edge's requester over its provider must not restore.
    let payload = section_len_offset(&bytes, TAG_GRAPH) + 8;
    assert!(read_u64(&bytes, payload) > 0, "the golden graph has edges");
    let edge = payload + 8;
    let requester: [u8; 4] = bytes[edge..edge + 4].try_into().expect("4-byte slice");
    bytes[edge + 4..edge + 8].copy_from_slice(&requester);
    assert!(matches!(
        Simulation::restore(&mut &bytes[..], &config),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// Byte offsets of each cached entry's `(deps, edge_deps)` lists in the
/// ring-cache section: each offset points at the list's count.
fn cached_dependency_lists(bytes: &[u8]) -> Vec<(usize, usize)> {
    // Cache payload: three u64 counters, entry count, then
    // `(root, wants, rings, deps, edge_deps)` entries.
    let payload = section_len_offset(bytes, TAG_RING_CACHE) + 8;
    let count = |at: usize| usize::try_from(read_u64(bytes, at)).expect("count fits");
    let skip_ids = |at: usize| at + 8 + 4 * count(at);
    let mut at = payload + 24 + 8;
    (0..count(at - 8))
        .map(|_| {
            at = skip_ids(at + 4);
            let rings = count(at);
            at += 8;
            for _ in 0..rings {
                at += 8 + 12 * count(at);
            }
            let deps = at;
            let edge_deps = skip_ids(deps);
            at = skip_ids(edge_deps);
            (deps, edge_deps)
        })
        .collect()
}

#[test]
fn unordered_cached_dependencies_error_gracefully() {
    let config = golden_config();
    let golden = golden_bytes();
    // The cache indexes rely on each cached search's `deps` and `edge_deps`
    // being strictly ascending, so swapping a list's first two peers must
    // not restore.
    let lists = cached_dependency_lists(&golden);
    let picks: [fn((usize, usize)) -> usize; 2] = [|(deps, _)| deps, |(_, edge_deps)| edge_deps];
    for pick in picks {
        let at = lists
            .iter()
            .copied()
            .map(pick)
            .find(|&at| read_u64(&golden, at) >= 2)
            .expect("the golden cache has an entry with two such dependencies");
        let mut bytes = golden.clone();
        bytes[at + 8..at + 16].rotate_left(4);
        assert!(matches!(
            Simulation::restore(&mut &bytes[..], &config),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}

#[test]
fn pending_event_before_the_clock_errors_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    // Engine payload: clock, horizon (tag 1 + time), delivered count,
    // sequence counter, entry count, then (time, seq, event) entries.
    // Moving the first pending event to time zero would run the clock
    // backwards, so it must not restore.
    let payload = section_len_offset(&bytes, TAG_ENGINE) + 8;
    assert!(read_u64(&bytes, payload) > 0, "the clock has advanced");
    assert_eq!(bytes[payload + 8], 1, "the golden engine has a horizon");
    let count_at = payload + 8 + 9 + 8 + 8;
    assert!(read_u64(&bytes, count_at) > 0, "events are pending");
    bytes[count_at + 8..count_at + 16].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        Simulation::restore(&mut &bytes[..], &config),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// Slot occupancy is not stored: restore reserves one upload and one
/// download slot for each decoded transfer.  Transfers that overfill a pool
/// — here, the eMule fixture restored under a link with a single upload slot
/// per peer — are corrupt input, not a panic.
#[test]
fn transfers_overfilling_a_slot_pool_error_gracefully() {
    let bytes = std::fs::read(snap_path("emule_churn")).expect("the eMule fixture is checked in");
    let mut config = emule_churn_config();
    config.link.upload_kbps = config.link.slot_kbps;
    assert_eq!(config.link.upload_slots(), 1);
    match Simulation::restore(&mut &bytes[..], &config) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("upload slots"), "{msg}"),
        Err(err) => panic!("expected a slot-overflow Corrupt error, got {err}"),
        Ok(_) => panic!("two uploads at one peer must not restore into a one-slot pool"),
    }
}

/// A transfer id below a corrupt id counter but too large for the per-peer
/// transfer index (whose records keep the exchange flag in the id's top
/// bit) is corrupt input, not a panic.
#[test]
fn transfer_id_too_large_for_the_index_errors_gracefully() {
    let config = golden_config();
    let mut bytes = golden_bytes();
    // Transfers payload: the transfer and ring id counters, the transfer
    // count, then the first transfer, which opens with its id.
    let payload = section_len_offset(&bytes, TAG_TRANSFERS) + 8;
    assert!(
        read_u64(&bytes, payload + 16) > 0,
        "the golden run has transfers"
    );
    bytes[payload..payload + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes[payload + 24..payload + 32].copy_from_slice(&(1u64 << 63).to_le_bytes());
    match Simulation::restore(&mut &bytes[..], &config) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("does not fit"), "{msg}"),
        Err(err) => panic!("expected a Corrupt error, got {err}"),
        Ok(_) => panic!("a transfer id of 2^63 must not restore"),
    }
}

/// The cache-off reference path discards the graph's dirty log where the
/// cached path drains it, so at the same instant both write the same graph
/// section instead of the reference run carrying every edge it ever changed.
#[test]
fn cache_on_and_cache_off_checkpoints_share_the_graph_section() {
    let graph_section = |ring_candidate_cache: bool| {
        let mut config = golden_config();
        config.ring_candidate_cache = ring_candidate_cache;
        let mut simulation = Simulation::new(config, GOLDEN_SEED);
        simulation.run_until(SimTime::from_secs_f64(GOLDEN_CHECKPOINT_S));
        let mut bytes = Vec::new();
        simulation
            .checkpoint(&mut bytes)
            .expect("serializing into a Vec cannot fail");
        let len_at = section_len_offset(&bytes, TAG_GRAPH);
        let len = usize::try_from(read_u64(&bytes, len_at)).expect("section fits in memory");
        bytes[len_at..len_at + 8 + len].to_vec()
    };
    let (cached, reference) = (graph_section(true), graph_section(false));
    assert!(
        cached == reference,
        "graph sections differ: {} bytes with the cache, {} without",
        cached.len(),
        reference.len()
    );
}

/// A checkpoint's scheduler history belongs to the scheduler that wrote it.
/// Restoring the eMule-credit fixture under any other scheduler is corrupt
/// input, not a silent drop of its credit table.  FIFO and exchange priority
/// keep no history and write the same section, so they restore under each
/// other.
#[test]
fn scheduler_section_must_match_the_configured_scheduler() {
    let bytes = std::fs::read(snap_path("emule_churn")).expect("the eMule fixture is checked in");
    for kind in SchedulerKind::all() {
        let mut config = emule_churn_config();
        config.scheduler = kind;
        let restored = Simulation::restore(&mut &bytes[..], &config);
        if kind == SchedulerKind::EmuleCredit {
            assert!(restored.is_ok(), "the matching scheduler restores");
        } else {
            assert!(
                matches!(restored, Err(SnapshotError::Corrupt(_))),
                "eMule history restored under {}",
                kind.label()
            );
        }
    }

    let mut config = golden_config();
    assert_eq!(config.scheduler, SchedulerKind::Fifo);
    let bytes = std::fs::read(golden_path()).expect("golden fixture is checked in");
    config.scheduler = SchedulerKind::ExchangePriority;
    assert!(Simulation::restore(&mut &bytes[..], &config).is_ok());
    config.scheduler = SchedulerKind::TitForTat;
    assert!(matches!(
        Simulation::restore(&mut &bytes[..], &config),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// One extra fixture: a scenario that makes the encoder write state the
/// quick-test golden never reaches (the history-keeping scheduler states,
/// open validation windows, pending population events, catalog releases,
/// heterogeneous capacity classes and the adversarial behaviors).
struct Fixture {
    /// Names the fixture's files under `tests/golden/`: the snapshot
    /// `<name>_v<SNAPSHOT_VERSION>.snap` and the report `<name>.report`.
    name: &'static str,
    config: fn() -> SimConfig,
    seed: u64,
    /// The fixture is the checkpoint taken after running to this time...
    checkpoint_s: f64,
    /// ...and then stepping this many more events, which can leave
    /// same-instant events pending.
    steps: usize,
}

/// A 16-peer, 900-second base the fixtures below specialise.  Objects are
/// small, so downloads complete well before the checkpoints.
fn fixture_base() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 16;
    config.sim_duration_s = 900.0;
    config.warmup_s = 30.0;
    config.workload.object_size_bytes = 256 * 1024;
    config.shards = 1;
    config
}

/// eMule credit under windowed validation with churn, every adversary, all
/// three capacity classes, a flash crowd already released and a catastrophe
/// still pending at the checkpoint.
fn emule_churn_config() -> SimConfig {
    let mut config = fixture_base();
    config.workload.object_size_bytes = 512 * 1024;
    config.scheduler = SchedulerKind::EmuleCredit;
    config.protection = Protection::Windowed { max_window: 4 };
    config.behaviors = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.4),
        (BehaviorKind::FreeRider, 0.15),
        (BehaviorKind::JunkSender, 0.15),
        (BehaviorKind::ParticipationCheater, 0.15),
        (BehaviorKind::Middleman, 0.15),
    ]);
    config.churn = Some(ChurnConfig::new(500.0, 120.0));
    config.flash_crowd = Some(FlashCrowdConfig::new(200.0, 4));
    config.catastrophe = Some(CatastropheConfig::new(700.0, 2));
    config.classes = ClassMix::weighted([
        (CapacityClass::Fast, 1.0),
        (CapacityClass::Medium, 1.0),
        (CapacityClass::Slow, 1.0),
    ]);
    config
}

/// Tit-for-tat under the mediator with churn and a flash crowd still
/// pending at the checkpoint.
fn tit_for_tat_config() -> SimConfig {
    let mut config = fixture_base();
    config.scheduler = SchedulerKind::TitForTat;
    config.protection = Protection::Mediated;
    config.behaviors = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.2),
        (BehaviorKind::JunkSender, 0.15),
        (BehaviorKind::Middleman, 0.15),
    ]);
    config.churn = Some(ChurnConfig::new(400.0, 150.0));
    config.flash_crowd = Some(FlashCrowdConfig::new(700.0, 4));
    config.classes = ClassMix::weighted([(CapacityClass::Fast, 1.0), (CapacityClass::Slow, 1.0)]);
    config
}

/// Participation levels with cheaters announcing inflated levels.
fn participation_config() -> SimConfig {
    let mut config = fixture_base();
    config.scheduler = SchedulerKind::ParticipationLevel;
    config.behaviors = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.25),
        (BehaviorKind::ParticipationCheater, 0.25),
    ]);
    config
}

/// The participation-level scheduler under all five behaviors, equally
/// weighted: cheaters announce inflated levels while uploaders, junk
/// senders and middlemen announce what they uploaded.
fn participation_mix_config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = 30;
    config.sim_duration_s = 2_000.0;
    config.scheduler = SchedulerKind::ParticipationLevel;
    config.behaviors = BehaviorMix::weighted(BehaviorKind::all().into_iter().map(|b| (b, 1.0)));
    config
}

/// The exchange-priority scheduler, checkpointed while peers are still
/// arriving and a scheduling pass is queued for the current instant.
fn mid_arrival_config() -> SimConfig {
    let mut config = fixture_base();
    config.scheduler = SchedulerKind::ExchangePriority;
    config
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "emule_churn",
        config: emule_churn_config,
        seed: 7,
        checkpoint_s: 600.0,
        steps: 0,
    },
    Fixture {
        name: "tit_for_tat",
        config: tit_for_tat_config,
        seed: 11,
        checkpoint_s: 400.0,
        steps: 0,
    },
    Fixture {
        name: "participation",
        config: participation_config,
        seed: 13,
        checkpoint_s: 400.0,
        steps: 0,
    },
    Fixture {
        name: "participation_mix",
        config: participation_mix_config,
        seed: 23,
        checkpoint_s: 1_500.0,
        steps: 0,
    },
    Fixture {
        name: "mid_arrival",
        config: mid_arrival_config,
        seed: 17,
        checkpoint_s: 2.0,
        steps: 1,
    },
];

impl Fixture {
    fn path(&self) -> PathBuf {
        snap_path(self.name)
    }

    /// The fixture's bytes, regenerated in-process.
    fn fresh_bytes(&self) -> Vec<u8> {
        let mut simulation = Simulation::new((self.config)(), self.seed);
        simulation.run_until(SimTime::from_secs_f64(self.checkpoint_s));
        for _ in 0..self.steps {
            simulation.step();
        }
        let mut bytes = Vec::new();
        simulation
            .checkpoint(&mut bytes)
            .expect("serializing into a Vec cannot fail");
        bytes
    }
}

#[test]
fn variant_fixtures_are_stable_resume_exactly_and_round_trip() {
    let update = std::env::var_os("UPDATE_SNAPSHOTS").is_some();
    for fixture in FIXTURES {
        let config = (fixture.config)();
        let fresh = fixture.fresh_bytes();
        let path = fixture.path();
        if update {
            std::fs::write(&path, &fresh).expect("write golden fixture");
            eprintln!("regenerated {}", path.display());
            continue;
        }
        let checked_in = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read golden fixture {} ({e}); regenerate with UPDATE_SNAPSHOTS=1",
                path.display()
            )
        });
        assert!(
            checked_in == fresh,
            "{}: snapshot byte layout changed — bump SNAPSHOT_VERSION and \
             regenerate the fixtures with UPDATE_SNAPSHOTS=1",
            fixture.name
        );

        let straight = Simulation::new(config.clone(), fixture.seed).run();
        assert_report_is_pinned(fixture.name, &straight);
        let restored = Simulation::restore(&mut &checked_in[..], &config)
            .unwrap_or_else(|e| panic!("{}: fixture restores: {e}", fixture.name));
        let mut again = Vec::new();
        restored
            .checkpoint(&mut again)
            .expect("serializing into a Vec cannot fail");
        assert!(
            checked_in == again,
            "{}: restore → checkpoint must round-trip bytes",
            fixture.name
        );
        let resumed = restored.run();
        assert_eq!(
            straight.ring_cache_stats(),
            resumed.ring_cache_stats(),
            "{}",
            fixture.name
        );
        assert!(
            straight == resumed,
            "{}: resumed run diverged from the straight run",
            fixture.name
        );
    }
}

/// Every file in `tests/golden/` belongs to a listed fixture: a snapshot at
/// the current format version or a report.  A version bump that re-records
/// the snapshots therefore cannot leave the old version's files behind.
#[test]
fn golden_files_belong_to_listed_fixtures_at_the_current_version() {
    let names = std::iter::once(GOLDEN_NAME).chain(FIXTURES.iter().map(|f| f.name));
    let expected: BTreeSet<PathBuf> = names
        .flat_map(|name| [snap_path(name), report_path(name)])
        .collect();
    let found: BTreeSet<PathBuf> = std::fs::read_dir(golden_dir())
        .expect("the golden directory is checked in")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    assert_eq!(
        found, expected,
        "stale or unlisted files under tests/golden/"
    );
}

/// A system allocator that can report the largest single allocation the
/// current thread requested while it was being watched.
struct PeakAllocator;

thread_local! {
    /// `Some(peak)` while the current thread is watched.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_allocation(size: usize) {
    // A const-initialised `Cell` has no destructor, so this never allocates
    // and never fails; `try_with` only guards thread teardown.
    let _ = PEAK.try_with(|peak| {
        if let Some(largest) = peak.get() {
            peak.set(Some(largest.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator; the extra bookkeeping only touches a thread-local `Cell`.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System.dealloc`; `ptr` came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: forwards to `System.realloc`; `ptr` came from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Runs `f` and returns its result with the largest single allocation it
/// requested on this thread.
fn with_peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let result = f();
    let largest = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
    (result, largest)
}

/// Every checked-in fixture's bytes with the config it was recorded under,
/// plus the largest single allocation restoring it intact makes.
fn fixture_corpus() -> &'static [(Vec<u8>, SimConfig, usize)] {
    static CORPUS: OnceLock<Vec<(Vec<u8>, SimConfig, usize)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let golden = (golden_path(), golden_config());
        let fixtures = FIXTURES.iter().map(|f| (f.path(), (f.config)()));
        std::iter::once(golden)
            .chain(fixtures)
            .map(|(path, config)| {
                let bytes = std::fs::read(&path).expect("golden fixtures are checked in");
                let (restored, clean_peak) =
                    with_peak_allocation(|| Simulation::restore(&mut &bytes[..], &config));
                assert!(restored.is_ok(), "{} restores", path.display());
                (bytes, config, clean_peak)
            })
            .collect()
    })
}

/// Offsets of every section's `len` field plus every unaligned `u64` whose
/// value is a plausible count: the fields a corrupt length lands in.
fn length_field_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets: Vec<usize> = (0..bytes.len().saturating_sub(7))
        .filter(|&at| read_u64(bytes, at) < 4096)
        .collect();
    let mut at = HEADER_LEN;
    while at + 9 <= bytes.len() {
        offsets.push(at + 1);
        let len = usize::try_from(read_u64(bytes, at + 1)).expect("section fits in memory");
        at += 1 + 8 + len;
    }
    offsets
}

/// Values a corrupted length field takes: the extremes and counts just past
/// what any fixture could hold.
const HUGE_LENGTHS: [u64; 5] = [u64::MAX, u64::MAX / 2, 1 << 40, 1 << 32, 1 << 20];

proptest! {
    /// Restore never panics on a corrupted fixture, and a corrupt length
    /// never sizes an allocation beyond the input: no single allocation
    /// exceeds the largest of the input's length, the largest allocation
    /// restoring the intact fixture makes, and the largest allocation
    /// generating the setup the corrupted header's seed names.  Restore
    /// regenerates that setup, whose size the config bounds, not any
    /// length field.
    #[test]
    fn corrupted_fixtures_never_panic_or_over_allocate(
        fixture in 0usize..64,
        flips in proptest::collection::vec((0usize..1 << 20, 0u8..8), 0..4),
        lengths in proptest::collection::vec((0usize..1 << 20, 0usize..HUGE_LENGTHS.len()), 0..3),
    ) {
        let corpus = fixture_corpus();
        let (clean, config, clean_peak) = &corpus[fixture % corpus.len()];
        let mut bytes = clean.clone();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let offsets = length_field_offsets(clean);
        for (pick, value) in lengths {
            let at = offsets[pick % offsets.len()];
            bytes[at..at + 8].copy_from_slice(&HUGE_LENGTHS[value].to_le_bytes());
        }
        let (restored, peak) =
            with_peak_allocation(|| Simulation::restore(&mut &bytes[..], config));
        drop(restored);
        let seed = read_u64(&bytes, SNAPSHOT_MAGIC.len() + 4);
        let (setup, setup_peak) = with_peak_allocation(|| SimSetup::generate(config, seed));
        drop(setup);
        let bound = bytes.len().max(*clean_peak).max(setup_peak);
        prop_assert!(
            peak <= bound,
            "a {peak}-byte allocation from a {}-byte input (bound {bound})",
            bytes.len()
        );
    }
}
