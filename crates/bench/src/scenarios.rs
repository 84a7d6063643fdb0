//! Backend-portable benchmark scenarios.
//!
//! Each scenario is a per-rank body written against [`Transport`], so the
//! exact same communication pattern runs on every backend. The crate's
//! `tests/scenarios.rs` runs them on the simulator, pinning each one's
//! message count and virtual end time exactly, and on the native thread
//! backend, where each body's own asserts are the check. `benchmark/`'s
//! `socket_pingpong` workload and its sim pingpong probe time
//! [`pingpong_rank`].

use mpistream::{
    tree_reduce, ChannelConfig, Role, RoutePolicy, Src, Stream, StreamChannel, Tag, Transport,
};

// ---------------------------------------------------------------------
// incast — the Fig. 5 master pattern
// ---------------------------------------------------------------------

/// `producers` ranks all send `per_producer` messages to rank 0, which
/// drains them via `Src::Any`. On the native backend every push lands in
/// one mailbox — the maximal-contention case the sharded staging queue
/// exists for.
pub fn incast_rank<TP: Transport>(rank: &mut TP, producers: usize, per_producer: u64, bytes: u64) {
    let tag = Tag::user(1);
    let me = rank.world_rank();
    if me == 0 {
        let total = producers as u64 * per_producer;
        let mut sum = 0u64;
        for _ in 0..total {
            let (v, _info) = rank.recv::<u64>(Src::Any, tag);
            sum = sum.wrapping_add(v);
        }
        assert!(sum > 0);
    } else {
        for i in 0..per_producer {
            rank.send(0, tag, bytes, ((me as u64) << 32) | i);
        }
    }
}

// ---------------------------------------------------------------------
// pingpong — per-message overhead, near-empty mailbox
// ---------------------------------------------------------------------

pub fn pingpong_rank<TP: Transport>(rank: &mut TP, rounds: u64) {
    let tag = Tag::user(7);
    let me = rank.world_rank();
    let peer = 1 - me;
    for i in 0..rounds {
        if me == 0 {
            rank.send(peer, tag, 8, i);
            let (v, _) = rank.recv::<u64>(Src::Rank(peer), tag);
            assert_eq!(v, i);
        } else {
            let (v, _) = rank.recv::<u64>(Src::Rank(peer), tag);
            rank.send(peer, tag, 8, v);
        }
    }
}

// ---------------------------------------------------------------------
// fanin — try_recv polling over many tags + wait_for_mail parking
// ---------------------------------------------------------------------

/// A consumer polling `tags` distinct tags over `try_recv`, sleeping on
/// `wait_for_mail` between passes, while `producers` ranks fan in. Probe
/// misses and park/wake churn dominate; this is the scenario that caught
/// the native lost-wakeup race.
pub fn fanin_rank<TP: Transport>(
    rank: &mut TP,
    producers: usize,
    per_producer: u64,
    tags: u32,
    bytes: u64,
) {
    let me = rank.world_rank();
    if me == 0 {
        let total = producers as u64 * per_producer;
        let mut got = 0u64;
        while got < total {
            let mut progressed = false;
            for t in 1..=tags {
                while rank.try_recv::<u64>(Src::Any, Tag::user(t)).is_some() {
                    got += 1;
                    progressed = true;
                }
            }
            if !progressed && got < total {
                rank.wait_for_mail();
            }
        }
    } else {
        let tag = Tag::user(1 + (me as u32 - 1) % tags);
        for i in 0..per_producer {
            rank.send(0, tag, bytes, i);
        }
    }
}

// ---------------------------------------------------------------------
// agg_incast — the incast pattern routed through a reduction tree
// ---------------------------------------------------------------------

/// Every rank contributes one partial vector; a fan-in-`fan_in` reduction
/// tree merges them down to rank 0 instead of `ranks - 1` point-to-point
/// sends landing in one mailbox (the plain `incast` scenario). Every
/// leaf's partial is shipped exactly once, whatever the fan-in.
///
/// Returns 1 on the tree root (after checking the closed-form sum), 0
/// elsewhere; the caller sums and asserts exactly one root emerged.
pub fn agg_incast_rank<TP: Transport>(rank: &mut TP, fan_in: usize, width: usize) -> u64 {
    let comm = rank.world_group();
    let n = rank.world_size();
    let me = rank.world_rank();
    let leaves: Vec<usize> = (0..n).collect();
    let config = ChannelConfig { element_bytes: (width * 8) as u64, ..ChannelConfig::default() };
    let partial: Vec<u64> = vec![me as u64 + 1; width];
    let got = tree_reduce(rank, &comm, &leaves, fan_in, &config, Some(partial), |_, acc, e| {
        for (a, b) in acc.iter_mut().zip(e) {
            *a += b;
        }
    });
    match got {
        Some(v) => {
            let expect = (n as u64) * (n as u64 + 1) / 2;
            assert!(
                v.len() == width && v.iter().all(|&x| x == expect),
                "agg_incast tree sum mismatch"
            );
            1
        }
        None => 0,
    }
}

// ---------------------------------------------------------------------
// coll — collective rounds (barrier / allreduce / allgatherv)
// ---------------------------------------------------------------------

/// Every rank runs `iters` rounds of barrier + allreduce + allgatherv over
/// the world group. Its wire-message count is a topology detail — the
/// flat star versus the binomial tree is exactly the difference this
/// scenario is meant to time.
pub fn coll_rank<TP: Transport>(rank: &mut TP, iters: u64) {
    let world = rank.world_group();
    let size = rank.world_size() as u64;
    let me = rank.world_rank() as u64;
    for i in 0..iters {
        rank.barrier(&world);
        let sum = rank.allreduce(&world, 8, me + i, |a, b| *a += b);
        assert_eq!(sum, size * (size - 1) / 2 + size * i);
        let all = rank.allgatherv(&world, 8, me);
        debug_assert_eq!(all.len(), size as usize);
    }
}

// ---------------------------------------------------------------------
// stream — the full mpistream protocol under a credit window
// ---------------------------------------------------------------------

/// Flow-controlled stream pipeline: `producers` ranks push `per_producer`
/// elements each through a credited, aggregated channel to `consumers`
/// ranks. This is the end-to-end number — mailbox, credit returns and
/// wake-ups all on the critical path. `credit_batch` > 1 exercises the
/// batched acknowledgement path.
///
/// Returns the number of elements this rank processed (consumers) or 0
/// (producers); the caller sums and checks conservation.
pub fn stream_rank<TP: Transport>(
    rank: &mut TP,
    producers: usize,
    per_producer: u64,
    credit_batch: usize,
) -> u64 {
    let comm = rank.world_group();
    let me = rank.world_rank();
    let role = if me < producers { Role::Producer } else { Role::Consumer };
    let config = ChannelConfig {
        element_bytes: 512,
        aggregation: 2,
        credits: Some(32),
        route: RoutePolicy::RoundRobin,
        credit_batch,
        ..ChannelConfig::default()
    };
    let ch = StreamChannel::create(rank, &comm, role, config);
    let mut stream: Stream<u64> = Stream::attach(ch);
    match role {
        Role::Producer => {
            for i in 0..per_producer {
                stream.isend(rank, ((me as u64) << 32) | i);
            }
            stream.terminate(rank);
            0
        }
        Role::Consumer => stream.operate_outcome(rank, |_, _| {}).processed,
        Role::Bystander => unreachable!(),
    }
}
