//! streamcheck — a decoupling-correctness analyzer for mpistream programs.
//!
//! Decoupling an HPC application into process groups connected by stream
//! channels (the paper's §II strategy) trades one global communicator for
//! a topology of producer/consumer flows — and introduces new ways to be
//! wrong: partitions that miss ranks, credit windows that deadlock on a
//! cycle, termination markers that never reach a consumer, keyed routings
//! with holes. This crate checks those properties in two complementary
//! passes:
//!
//! * **Static** — declare the topology as plain data ([`Topology`],
//!   [`GroupDecl`], [`ChannelDecl`]) and run [`check`], which produces a
//!   [`Report`] of findings `SC001`–`SC005` and, when the dataflow graph
//!   is acyclic and error-free, certifies the pipeline deadlock-free.
//! * **Dynamic** — opt a simulated run in with `World::with_check()`
//!   (no rebuild; the sanitizer is always compiled): a vector-clock happens-before
//!   sanitizer flags wildcard-receive races (`SC101`), orphan messages at
//!   finalize (`SC102`) and credit-protocol violations (`SC103`), and its
//!   credit table is appended to `desim` deadlock reports.
//!
//! ```
//! use streamcheck::{check, ChannelDecl, GroupDecl, Topology};
//! use mpistream::ChannelConfig;
//!
//! let topo = Topology::new(4)
//!     .group(GroupDecl::new("compute", vec![0, 1, 2]))
//!     .group(GroupDecl::new("analysis", vec![3]))
//!     .channel(ChannelDecl::new(
//!         "results",
//!         vec![0, 1, 2],
//!         vec![3],
//!         ChannelConfig { element_bytes: 1 << 20, ..ChannelConfig::default() },
//!     ));
//! let report = check(&topo);
//! assert!(report.is_clean());
//! assert!(report.certified_deadlock_free);
//! ```

pub mod lint;
pub mod topology;

pub use lint::{check, Finding, Report, Severity};
pub use topology::{ChannelDecl, Drain, GroupDecl, Routing, Topology};

/// The dynamic sanitizer's report type, re-exported so tooling can consume
/// both passes' findings from one place.
pub use mpisim::SanReport;
