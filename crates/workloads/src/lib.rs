//! # workloads — seeded synthetic workload generators
//!
//! Stand-ins for the proprietary / at-scale inputs of the paper's
//! evaluation (see DESIGN.md §2 for the substitution arguments):
//!
//! - [`corpus`]: a Zipf word corpus replacing the 2.9 TB Wikipedia web
//!   logs of the MapReduce experiment (Fig. 5);
//! - [`particles`]: a Harris-current-sheet particle setup replacing the
//!   GEM magnetic-reconnection challenge of the iPIC3D experiments
//!   (Fig. 2, 7, 8);
//! - [`imbalance`]: per-rank workload spread profiles and the `Tσ`
//!   estimator of the performance model;
//! - [`samplers`]: the underlying Zipf / log-normal / Gaussian
//!   samplers (implemented here to avoid extra dependencies).
//!
//! Everything is deterministic given its seed.

#![warn(clippy::disallowed_types)] // see clippy.toml: determinism as a lint

pub mod corpus;
pub mod imbalance;
pub mod particles;
pub mod samplers;

pub use corpus::{Corpus, CorpusConfig, FileSpec};
pub use imbalance::Imbalance;
pub use particles::{advance, Particle, ParticleConfig};
pub use samplers::{gaussian, lognormal, Zipf};
