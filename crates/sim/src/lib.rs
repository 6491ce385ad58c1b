//! The file-sharing system simulator of the paper's Section IV.
//!
//! This crate ties the substrates together into the 200-node file-sharing
//! simulation the paper evaluates:
//!
//! * the content catalog, per-peer interests and request workload come from
//!   [`workload`];
//! * access links, transfer slots and block-level sessions come from
//!   [`netsim`];
//! * exchange-ring discovery, the token protocol and the exchange
//!   disciplines come from [`exchange`];
//! * the upload schedulers (FIFO, eMule credit, tit-for-tat, participation
//!   level, exchange priority) come from [`credit`], selected via
//!   [`SchedulerKind`] and run as one closed [`UploadScheduler`] enum;
//! * peer strategy — honest sharing, free-riding, and the Section III-B
//!   adversaries (junk senders, participation cheaters, middlemen) — is the
//!   plain-data [`BehaviorKind`], whose methods the event loop consults,
//!   populated through a weighted [`BehaviorMix`] and countered via
//!   [`Protection`];
//! * everything is driven by the discrete-event engine in [`des`] and
//!   measured with [`metrics`].
//!
//! The central type is [`Simulation`]: build a [`SimConfig`] (defaults follow
//! the paper's Table II), run it, and read the resulting [`SimReport`].
//!
//! For families of runs, the builder-style [`Scenario`] engine executes a
//! config × seed grid in parallel and aggregates the per-point results:
//!
//! ```
//! use sim::{Axis, Scenario, PeerClass, SimConfig};
//!
//! let mut base = SimConfig::quick_test();
//! base.num_peers = 20;
//! base.sim_duration_s = 1_000.0;
//! let grid = Scenario::from(base)
//!     .vary(Axis::UploadKbps(vec![60.0, 100.0]))
//!     .seeds(0..2)
//!     .run();
//! assert_eq!(grid.rows().len(), 4); // 2 capacities x 2 seeds
//! let downloads = grid.aggregate(0, |r| Some(r.completed_downloads() as f64));
//! assert!(downloads.unwrap().mean >= 0.0);
//! # let _ = PeerClass::Sharing;
//! ```
//!
//! Module [`experiment`] provides the canonical scenarios behind every
//! figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod behavior;
mod config;
pub mod experiment;
mod mix;
mod peer;
mod population;
mod report;
mod scenario;
mod serialize;
mod simulation;
mod types;

pub use behavior::{BehaviorKind, BehaviorMix, Protection, INFLATED_PARTICIPATION_LEVEL};
pub use config::SimConfig;
pub use credit::{SchedulerKind, UploadScheduler};
pub use des::{SimDuration, SimTime};
pub use exchange::ExchangePolicy as ExchangeDiscipline;
pub use peer::{PeerState, WantState};
pub use population::{CapacityClass, CatastropheConfig, ChurnConfig, ClassMix, FlashCrowdConfig};
pub use report::{BehaviorStats, SimReport};
pub use scenario::{Aggregate, Axis, Scenario, ScenarioPoint, SweepGrid, SweepRow};
#[cfg(feature = "audit")]
pub use simulation::audit;
pub use simulation::{
    CachedEntry, PhaseProfile, RingCacheStats, RingCandidateCache, SimSetup, Simulation,
    SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use types::{PeerClass, SessionEnd, SessionKind};
