//! # replica — viewstamped-replicated consumer state
//!
//! The paper's decoupling strategy concentrates an application's
//! analysis or I/O into a *small* consumer group — which turns each
//! consumer rank into a single point of failure holding irreplaceable
//! state (operator accumulators, element cursors, flow-control ledgers).
//! This crate removes that single point: the channel's consumer group
//! becomes a **Viewstamped Replication** group (Oki & Liskov) whose
//! primary drains the stream while replicating `(accumulator, cursor
//! checkpoint)` snapshots to its standbys, and whose standbys elect and
//! seed a successor when the primary dies.
//!
//! The integration invariant is **commit-before-credit-return**: a
//! flow-control credit is only released to a producer after the
//! checkpoint covering the acknowledged elements reached a quorum of
//! replicas. Credits thereby double as durability acknowledgements —
//! producers keep every uncredited element in a replay buffer
//! ([`ReplicatedProducer`]) and, on takeover, resend exactly the suffix
//! above the committed cursor the successor announces. The surviving
//! state folds every stream element **exactly once**: nothing below the
//! cursor is resent, nothing above it ever released a credit.
//!
//! Three layers:
//! - [`vsr`]: the sans-io protocol core ([`VsrCore`]) — pure state
//!   machine, unit-testable without a transport.
//! - [`consumer`]: [`run_replicated`], the driver every consumer-group
//!   rank runs; primary and standby roles, heartbeats, takeover.
//! - [`producer`]: [`ReplicatedProducer`], the replay-buffering
//!   producer endpoint.
//!
//! Channel setup: `ChannelConfig { replicas: r, .. }` with `r + 1`
//! consumer ranks (see `mpistream::ChannelConfig::replicas`); surviving
//! one death needs `r >= 2` so a majority outlives the victim.

pub mod consumer;
pub mod producer;
pub mod vsr;

pub use consumer::{run_replicated, RepState, ReplicaOutcome, ReplicaRole};
pub use producer::{CreditMsg, ProducerFinish, ReplicatedProducer, TakeoverMsg};
pub use vsr::{Effect, Snapshot, Status, VsrCore, VsrMsg};

use mpistream::transport::SimDuration;
use mpistream::StreamChannel;

/// A replicated channel's failover patience, and the tick every wait of
/// its protocol is bounded by: a quarter of the patience, so a standby
/// must miss four consecutive primary messages before it suspects a
/// death, and a producer polls for takeover announcements well within
/// any failover.
fn patience_and_tick(channel: &StreamChannel) -> (SimDuration, SimDuration) {
    let patience = channel
        .config()
        .effective_replication_patience()
        .expect("replicated config validated at channel creation");
    (patience, SimDuration((patience.0 / 4).max(1)))
}
