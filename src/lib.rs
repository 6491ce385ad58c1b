//! # p2p-exchange
//!
//! Facade crate for the reproduction of *"Exchange-Based Incentive Mechanisms
//! for Peer-to-Peer File Sharing"* (Anagnostakis & Greenwald, ICDCS 2004).
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can use a single dependency:
//!
//! * [`des`] — discrete-event simulation engine
//! * [`metrics`] — statistics collection
//! * [`workload`] — content catalog and popularity model
//! * [`netsim`] — access-link capacity and transfer model
//! * [`exchange`] — the exchange mechanism itself (the paper's contribution)
//! * [`credit`] — baseline incentive mechanisms
//! * [`sim`] — the full file-sharing simulator and experiment runners
//!
//! # Quickstart
//!
//! ```
//! use p2p_exchange::sim::{ExchangeDiscipline, SimConfig, Simulation};
//!
//! let mut config = SimConfig::quick_test();
//! config.discipline = ExchangeDiscipline::PreferShorter { max_ring: 5 };
//! let report = Simulation::new(config, 42).run();
//! assert!(report.completed_downloads() > 0);
//! ```

#![forbid(unsafe_code)]

pub use credit;
pub use des;
pub use exchange;
pub use metrics;
pub use netsim;
pub use sim;
pub use workload;
