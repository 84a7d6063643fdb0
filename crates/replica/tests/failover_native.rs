//! Native-backend failover: OS threads cannot be killed, so the initial
//! primary "dies" voluntarily — its fold returns [`ControlFlow::Break`],
//! making `run_replicated` stop abruptly without a checkpoint, credits
//! or a goodbye. The standbys must detect the silence on the wall clock
//! and the successor must replay to the exact committed cursor.

use std::ops::ControlFlow;

use mpistream::transport::SimDuration;
use mpistream::{ChannelConfig, Role, RoutePolicy, StreamChannel, Transport};
use native::NativeWorld;
use replica::{run_replicated, ReplicaRole, ReplicatedProducer};

#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

#[test]
fn native_voluntary_stop_fails_over_to_standby() {
    const N_PRODUCERS: usize = 2;
    const PER_PRODUCER: u64 = 200;
    let config = ChannelConfig {
        element_bytes: 256,
        aggregation: 4,
        credits: Some(32),
        route: RoutePolicy::Static,
        credit_batch: 1,
        // Wall-clock timeouts: failover patience derives to 4 * 20ms.
        failure_timeout: Some(SimDuration::from_millis(20)),
        replicas: 2,
        replication_patience: None,
    };
    let world = NativeWorld::new(N_PRODUCERS + 3);
    // Each rank returns (elements it sent, its replica outcome).
    let ranks = world.run(|rank| {
        let comm = rank.world_group();
        let me = rank.world_rank();
        let role = if me < N_PRODUCERS { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config.clone());
        match role {
            Role::Producer => {
                let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
                for i in 0..PER_PRODUCER {
                    p.push(rank, (me as u64) << 32 | i);
                }
                (p.finish(rank).sent, None)
            }
            Role::Consumer => {
                let initial_primary = me == N_PRODUCERS;
                let mut folded = 0u64;
                let outcome = run_replicated::<u64, u64, _, _>(rank, &ch, 0, |_, acc, v| {
                    folded += 1;
                    if initial_primary && folded == 120 {
                        // Voluntary mid-stream stop: no checkpoint, no
                        // credits — the standbys see only silence.
                        return ControlFlow::Break(());
                    }
                    *acc = acc.wrapping_add(mix64(v));
                    ControlFlow::Continue(())
                });
                (0, Some(outcome))
            }
            Role::Bystander => unreachable!(),
        }
    });
    let sent: u64 = ranks.iter().map(|(sent, _)| sent).sum();
    let outcomes: Vec<_> = ranks.into_iter().filter_map(|(_, outcome)| outcome).collect();
    assert_eq!(outcomes.len(), 3);
    let expect: u64 = (0..N_PRODUCERS as u64)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| mix64(p << 32 | i)))
        .fold(0u64, |a, b| a.wrapping_add(b));
    let dead = &outcomes[0];
    assert_eq!(dead.role, ReplicaRole::Died);
    let successor = &outcomes[1];
    assert_eq!(successor.role, ReplicaRole::Primary);
    assert_eq!(successor.view, 1);
    assert_eq!(
        successor.state, expect,
        "exactly-once violated on the native backend after voluntary stop"
    );
    let standby = &outcomes[2];
    assert_eq!(standby.role, ReplicaRole::Standby);
    assert_eq!(standby.state, expect);
    assert_eq!(sent, N_PRODUCERS as u64 * PER_PRODUCER);
}
