//! # mpistream — the decoupling strategy as a library
//!
//! Rust reproduction of the MPIStream library from *"Preparing HPC
//! Applications for the Exascale Era: A Decoupling Strategy"* (Peng,
//! Gioiosa, Kestor, Laure, Markidis — ICPP 2017).
//!
//! The strategy separates an application's operations onto disjoint
//! **groups of processes** linked by asynchronous, fine-grained **data
//! streams**, establishing a dataflow pipeline among groups:
//!
//! - operations progress concurrently (pipelining),
//! - consumers process the *first available* element from *any* producer,
//!   absorbing process imbalance,
//! - a decoupled operation runs on a small group where its complexity
//!   shrinks and can be aggressively optimized (aggregation, buffering).
//!
//! The runtime is generic over a [`Transport`] — the same stream program
//! runs inside the deterministic discrete-event simulator
//! ([`SimTransport`], i.e. `mpisim::Rank`) or on real OS threads (the
//! `native` crate). See the [`transport`] module for the contract.
//!
//! ## Quick example (the paper's Listing 1)
//!
//! ```
//! use mpisim::{MachineConfig, World};
//! use mpistream::{ChannelConfig, GroupSpec, run_decoupled};
//!
//! let world = World::new(MachineConfig::default());
//! world.run_expect(8, |rank| {
//!     let comm = rank.comm_world();
//!     run_decoupled::<u64, _, _, _>(
//!         rank,
//!         &comm,
//!         GroupSpec { every: 8 },          // one analysis rank per 8
//!         ChannelConfig::default(),
//!         |rank, p| {
//!             // Computation group: compute, stream workload changes out.
//!             for step in 0..10 {
//!                 rank.compute(1e-4);
//!                 p.stream.isend(rank, step);
//!             }
//!         },
//!         |rank, c| {
//!             // Analysis group: process on-the-fly, FCFS.
//!             let mut seen = 0;
//!             c.stream.operate(rank, |_, _w| seen += 1);
//!             assert_eq!(seen, 70); // 7 producers x 10 elements
//!         },
//!     );
//! });
//! ```

// Every `unsafe` block says why it is sound: the `Wire` codec reads a
// plain-old-data slice as bytes.
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(clippy::disallowed_types)] // see clippy.toml: determinism as a lint

pub mod cart;
pub mod channel;
pub mod coll;
pub mod group;
pub mod harness;
pub mod operators;
pub mod select;
pub mod sim;
pub mod stream;
pub mod transport;
pub mod wire;

pub use cart::{dims_create, Cart};
pub use channel::{ChannelConfig, ConfigError, RoutePolicy, StreamChannel};
pub use group::{GroupSpec, Role};
pub use harness::{run_decoupled, try_run_decoupled, ConsumerCtx, ProducerCtx};
pub use operators::{
    create_tree_channels, plan_stage, plan_tree, reduce_through, stage_span, tree_reduce, Combiner,
    CombinerStats, TreeChannels, TreePlan, TreeStage,
};
pub use select::operate2;
pub use sim::SimTransport;
pub use stream::{
    ConsumerCheckpoint, ProducerReport, ProducerState, StepEvent, Stream, StreamMsg, StreamOutcome,
    StreamStats, Wait,
};
pub use transport::{index, prof_scoped, Event, Group, MsgInfo, Src, Tag, TagKind, Transport};
pub use wire::{Wire, WireError, WireOut, MAX_FRAME_BYTES, MAX_WIRE_ELEMS};
