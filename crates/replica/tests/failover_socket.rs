//! Real-process failover: eight OS processes on the socket backend —
//! five producers streaming into a three-member replica group — and the
//! view-0 primary calls `std::process::abort()` mid-stream. A real
//! SIGABRT snaps every socket shut with no unwinding, no checkpoint and
//! no goodbye; the standbys must detect the silence on the wall clock,
//! elect a successor across the process boundary, and the survivors
//! must fold every payload exactly once.
//!
//! Runs under [`SocketWorld::run_tolerant`]: the launcher reports the
//! aborted rank as `None` instead of tearing the world down, and sends
//! to the corpse are dropped instead of crashing the sender.

use std::ops::ControlFlow;

use mpistream::transport::SimDuration;
use mpistream::{ChannelConfig, Role, RoutePolicy, StreamChannel, Transport};
use replica::{run_replicated, ReplicaRole, ReplicatedProducer};
use socket::SocketWorld;

const N_PRODUCERS: usize = 5;
const N_REPLICAS: usize = 3;
const PER_PRODUCER: u64 = 120;
/// Primary aborts while folding this element: far enough in that
/// checkpoints have committed, far enough from the end that an
/// uncommitted tail is mid-flight.
const KILL_AT: u64 = 150;

#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

#[test]
fn socket_primary_abort_fails_over_across_processes() {
    let results = SocketWorld::for_test(
        "socket_primary_abort_fails_over_across_processes",
        N_PRODUCERS + N_REPLICAS,
    )
    .run_tolerant(|rank| {
        let comm = rank.world_group();
        let me = rank.world_rank();
        let role = if me < N_PRODUCERS { Role::Producer } else { Role::Consumer };
        let config = ChannelConfig {
            element_bytes: 256,
            aggregation: 4,
            credits: Some(32),
            route: RoutePolicy::Static,
            credit_batch: 1,
            // Wall-clock failure detection: patience derives to 4 * 50ms.
            failure_timeout: Some(SimDuration::from_millis(50)),
            replicas: 2,
            replication_patience: None,
        };
        let ch = StreamChannel::create(rank, &comm, role, config);
        match role {
            Role::Producer => {
                let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
                for i in 0..PER_PRODUCER {
                    p.push(rank, (me as u64) << 32 | i);
                }
                let f = p.finish(rank);
                vec![f.sent, f.resent, f.takeovers, f.view]
            }
            Role::Consumer => {
                let initial_primary = me == N_PRODUCERS;
                let mut folded = 0u64;
                let o = run_replicated::<u64, u64, _, _>(rank, &ch, 0, |_, acc, v| {
                    folded += 1;
                    if initial_primary && folded == KILL_AT {
                        std::process::abort();
                    }
                    *acc = acc.wrapping_add(mix64(v));
                    ControlFlow::Continue(())
                });
                let role_code = match o.role {
                    ReplicaRole::Primary => 1,
                    ReplicaRole::Standby => 2,
                    ReplicaRole::Died => 3,
                };
                vec![role_code, o.view, o.state, o.commits]
            }
            Role::Bystander => unreachable!(),
        }
    });

    assert_eq!(results.len(), N_PRODUCERS + N_REPLICAS);
    let expect: u64 = (0..N_PRODUCERS as u64)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| mix64(p << 32 | i)))
        .fold(0u64, |a, b| a.wrapping_add(b));

    // The aborted primary is the one rank with nothing to report.
    assert!(results[N_PRODUCERS].is_none(), "the aborted primary must come back as None");

    // consumers[1] is the primary of view 1; consumers[2] its standby.
    let successor = results[N_PRODUCERS + 1].as_ref().expect("successor survived");
    assert_eq!(successor[0], 1, "consumers[1] must finish as primary");
    assert_eq!(successor[1], 1, "the takeover must land in view 1");
    assert_eq!(
        successor[2], expect,
        "exactly-once violated across a real process kill: checksum diverges"
    );
    assert!(successor[3] > 0, "the successor must commit the replayed tail");
    let standby = results[N_PRODUCERS + 2].as_ref().expect("standby survived");
    assert_eq!(standby[0], 2);
    assert_eq!(standby[2], expect, "standby state must match the successor's");

    // Every producer finished its full flow in the new view, and the
    // mid-stream abort left an uncommitted suffix that was replayed.
    let mut replayed = 0u64;
    for (r, row) in results.iter().enumerate().take(N_PRODUCERS) {
        let f = row.as_ref().expect("producers survive the consumer kill");
        assert_eq!(f[0], PER_PRODUCER, "producer {r} sent count");
        assert_eq!(f[3], 1, "producer {r} must have followed the takeover");
        replayed += f[1];
    }
    assert!(replayed > 0, "a mid-stream abort must leave a tail to replay");
}
