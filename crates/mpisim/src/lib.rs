//! # mpisim — an MPI-flavoured message-passing layer on a simulated machine
//!
//! Provides the substrate the paper's evaluation ran on: a cluster of
//! ranks with a LogGP-style interconnect (per-NIC tx/rx serialization,
//! per-message software overheads, intra- vs inter-node links), OS noise,
//! binomial-tree collectives carried by real messages, and
//! first-come-first-served `AnySource` receives — the mechanism the
//! decoupling strategy uses to absorb process imbalance.
//!
//! Payloads are real Rust values; *only time is modelled*. An application
//! run under `mpisim` computes genuine results while its makespan comes
//! from the machine model.
//!
//! ```
//! use mpisim::{MachineConfig, Src, Tag, World};
//!
//! let world = World::new(MachineConfig::default());
//! let out = world.run_expect(4, |rank| {
//!     let comm = rank.comm_world();
//!     let sum = rank.allreduce(&comm, 8, rank.world_rank() as u64, |a, b| *a += b);
//!     assert_eq!(sum, 0 + 1 + 2 + 3);
//!     if rank.world_rank() == 0 {
//!         rank.send(1, Tag::user(7), 64, String::from("hello"));
//!     } else if rank.world_rank() == 1 {
//!         let (msg, info) = rank.recv::<String>(Src::Rank(0), Tag::user(7));
//!         assert_eq!(msg, "hello");
//!         assert_eq!(info.bytes, 64);
//!     }
//! });
//! assert!(out.elapsed_secs() > 0.0);
//! ```

#![warn(clippy::disallowed_types)] // see clippy.toml: determinism as a lint

pub mod check;
pub mod coll;
pub mod comm;
pub mod config;
pub mod msg;
pub mod rank;
pub mod world;

pub use check::SanReport;
pub use coll::{IAllgathervReq, IReduceReq};
pub use comm::Comm;
pub use config::{MachineConfig, NoiseModel};
pub use msg::{MsgInfo, Src, Tag, TagKind};
pub use rank::{Rank, SendReq};
pub use world::{World, WorldOutcome};

pub use desim::{FaultPlan, LinkDisposition, LinkFault, SimDuration, SimTime};
