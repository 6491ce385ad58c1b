//! Content catalog, popularity model and request workload generation.
//!
//! Implements the simulation environment of Section IV-A of the paper:
//!
//! * Objects are organised into *categories*; the number of objects per
//!   category is drawn uniformly from a configurable range.
//! * Category popularity and object-within-category popularity follow a
//!   truncated power law with factor *f* (`p(rank) ∝ rank^-f`), which is
//!   uniform at `f = 0` and Zipf-like at `f = 1`.
//! * Each peer is interested in a small number of categories chosen by global
//!   category popularity, with an independent *local preference* distribution
//!   (uniformly random weights) over those categories.
//! * Each peer stores a bounded number of objects, initially placed according
//!   to its category preferences, with random eviction when over capacity.
//! * Requests are generated by first picking a category from the local
//!   preference distribution and then an object by within-category
//!   popularity, skipping objects the peer already has or is downloading
//!   (the paper's "ignore cache hits" rule).
//!
//! # Example
//!
//! ```
//! use des::DetRng;
//! use workload::{Catalog, PeerId, PeerInterests, RequestGenerator, WorkloadConfig};
//!
//! let config = WorkloadConfig::paper_defaults();
//! let mut rng = DetRng::seed_from(1);
//! let catalog = Catalog::generate(&config, &mut rng);
//! let interests = PeerInterests::generate(&catalog, &config, &mut rng);
//! let generator = RequestGenerator::new();
//!
//! let object = generator
//!     .next_request(&catalog, &interests, &mut rng, |_| false)
//!     .expect("catalog is non-empty");
//! assert!(catalog.contains(object));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
mod config;
mod ids;
mod interests;
mod popularity;
mod request;
mod storage;

pub use catalog::{Catalog, ObjectInfo};
pub use config::WorkloadConfig;
pub use ids::{CategoryId, ObjectId, PeerId};
pub use interests::PeerInterests;
pub use popularity::PowerLawWeights;
pub use request::RequestGenerator;
pub use storage::Storage;
