//! The replicated consumer driver: a VSR group wrapped around one
//! [`Stream`] endpoint.
//!
//! Every rank in the channel's consumer list calls
//! [`run_replicated`]; `consumers[0]` starts as the view-0 primary and
//! drains the stream, the rest are standbys. The primary folds each
//! arriving batch into the accumulator, snapshots `(accumulator, cursor
//! checkpoint)` and replicates it through the [`VsrCore`] **before any
//! credit returns to a producer** — a credit doubles as a durability
//! acknowledgement, so producers may drop acknowledged elements from
//! their replay buffers. When the primary dies, the standbys elect a
//! successor, which restores the last committed snapshot, quarantines
//! every unfinished producer's data tag (stale batches addressed to a
//! previous reign must not fold — the quarantine lifts on the
//! producer's post-announce [`StreamMsg::Mark`]), tells every producer
//! the exact element cursor it holds ([`TakeoverMsg::Announce`]), and
//! resumes the drain; producers replay only the uncommitted suffix, so
//! every element is folded into the surviving state exactly once.
//! Credits leave stamped with the issuing primary's view
//! ([`CreditMsg`]), so a producer never mistakes a deposed reign's
//! acknowledgement for the current one.
//!
//! [`StreamMsg::Mark`]: mpistream::StreamMsg::Mark
//!
//! Timing sits on top of the channel's failure-detection hierarchy: with
//! `failure_timeout = t`, producers give up on a consumer after `t` and
//! consumers on a producer after `2t`, while the replica group's
//! patience (default `4t`,
//! [`ChannelConfig::effective_replication_patience`]) makes failover the
//! slowest, most deliberate detector. The primary heartbeats at a
//! quarter of the patience, so four consecutive losses are needed for a
//! spurious view change.
//!
//! [`ChannelConfig::effective_replication_patience`]:
//! mpistream::ChannelConfig::effective_replication_patience

use std::ops::ControlFlow;

use mpistream::transport::{Event, SimDuration, Src, Tag, Transport};
use mpistream::wire::Wire;
use mpistream::{ConsumerCheckpoint, Stream, StreamChannel, Wait};

use crate::producer::{CreditMsg, TakeoverMsg};
use crate::vsr::{Effect, Snapshot, VsrCore, VsrMsg};

/// The full replicated state of one consumer endpoint: the operator
/// accumulator (as a [`Wire`] frame) plus the stream's cursor
/// checkpoint. One `RepState` frame is the snapshot payload of every
/// VSR prepare.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepState {
    /// The accumulator, encoded with its own [`Wire`] impl.
    pub acc: Vec<u8>,
    /// The stream endpoint's durable cursors and statistics.
    pub ckpt: ConsumerCheckpoint,
}

mpistream::wire_struct!(RepState { acc, ckpt });

/// How this rank's participation in the replica group ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Finished as the (final) primary: this rank drained the stream to
    /// completion and its returned state is the canonical one.
    Primary,
    /// Finished as a standby: the returned state is the final committed
    /// snapshot received from the primary.
    Standby,
    /// The fold callback returned [`ControlFlow::Break`]: this rank
    /// stopped abruptly mid-stream *without* committing or releasing
    /// credits, simulating a crash. The returned state is the local
    /// (possibly uncommitted) view.
    Died,
}

/// What [`run_replicated`] produced on this rank.
#[derive(Clone, Debug)]
pub struct ReplicaOutcome<A> {
    /// How this rank finished.
    pub role: ReplicaRole,
    /// The view in which it finished.
    pub view: u64,
    /// Checkpoints this rank committed *as primary* (0 for a pure
    /// standby).
    pub commits: u64,
    /// The final accumulator (see [`ReplicaRole`] for whose state it is).
    pub state: A,
    /// The final cursor checkpoint accompanying `state`.
    pub checkpoint: ConsumerCheckpoint,
}

/// Modelled wire size of a protocol message (header + inline snapshot).
fn msg_bytes(msg: &VsrMsg) -> u64 {
    match msg {
        VsrMsg::Prepare { state, .. } => 25 + state.len() as u64,
        VsrMsg::DoViewChange { snapshot, .. } | VsrMsg::StartView { snapshot, .. } => {
            41 + snapshot.state.len() as u64
        }
        VsrMsg::RecoveryResponse { primary: Some((s, _)), .. } => 33 + s.state.len() as u64,
        _ => 24,
    }
}

/// Send the transport-facing effects, collecting protocol milestones.
fn apply_effects<TP: Transport>(
    rank: &mut TP,
    group: &[usize],
    me: usize,
    tag: Tag,
    effects: Vec<Effect>,
    milestones: &mut Vec<Effect>,
) {
    for e in effects {
        match e {
            Effect::Send { to, msg } => rank.send(group[to], tag, msg_bytes(&msg), msg),
            Effect::Broadcast { msg } => {
                for (i, &dst) in group.iter().enumerate() {
                    if i != me {
                        rank.send(dst, tag, msg_bytes(&msg), msg.clone());
                    }
                }
            }
            other => milestones.push(other),
        }
    }
}

/// Run this rank's replica of the channel's consumer group to
/// completion. Collective over the channel's consumer list (every
/// member must call it); producers use
/// [`ReplicatedProducer`](crate::ReplicatedProducer).
///
/// `fold` is the stream operator: called once per element (on whichever
/// rank is currently primary) with the transport, the accumulator and
/// the element. Returning [`ControlFlow::Break`] makes this rank stop
/// abruptly — no checkpoint, no credits — which is how the native
/// backend (whose threads cannot be killed) exercises failover; on the
/// simulator and socket backends a fault injection usually kills the
/// process inside `fold` instead.
///
/// The accumulator type `A` must encode deterministically: every
/// replica starts from an identical `init` frame and only the primary's
/// folds mutate it, so any `Wire` impl whose encoding is a pure
/// function of the value works.
pub fn run_replicated<T, A, TP, F>(
    rank: &mut TP,
    channel: &StreamChannel,
    init: A,
    mut fold: F,
) -> ReplicaOutcome<A>
where
    T: Wire + Send + 'static,
    A: Wire,
    TP: Transport,
    F: FnMut(&mut TP, &mut A, T) -> ControlFlow<()>,
{
    let group: Vec<usize> =
        channel.replica_group().expect("run_replicated on an unreplicated channel").to_vec();
    let me = group
        .iter()
        .position(|&w| w == rank.world_rank())
        .expect("run_replicated on a rank outside the channel's consumer group");
    // Heartbeat / retransmission cadence: the tick.
    let (patience, tick) = crate::patience_and_tick(channel);
    let repl_tag = channel.repl_tag();
    let takeover_tag = channel.takeover_tag();

    let mut stream = Stream::<T>::attach(channel.clone());
    stream.hold_credits(true);
    let mut acc = init;
    let initial = RepState { acc: acc.to_frame(), ckpt: stream.consumer_checkpoint() }.to_frame();
    let mut core = VsrCore::new(me, group.len(), initial);
    let mut commits = 0u64;

    'role: loop {
        if core.is_primary() {
            // ---------------- primary ----------------
            loop {
                // Drain replication traffic that queued while we were on
                // the data path (late PrepareOks, view-change probes,
                // recovery requests).
                let mut milestones = Vec::new();
                while let Some((msg, _)) = rank.try_recv::<VsrMsg>(Src::Any, repl_tag) {
                    let eff = core.on_message(msg);
                    apply_effects(rank, &group, me, repl_tag, eff, &mut milestones);
                }
                if milestones.iter().any(|m| matches!(m, Effect::Finished)) {
                    // A Shutdown in a view at least as new as ours: we
                    // were deposed and the successor finished the stream.
                    return standby_outcome(&core, commits);
                }
                if !core.is_primary() {
                    continue 'role;
                }
                // Done once every producer's Term is inside a committed
                // checkpoint (their claims arrived and the covering
                // operation reached quorum).
                if stream.all_terminated() && core.idle() {
                    debug_assert!(channel
                        .producers()
                        .iter()
                        .all(|&p| stream.claim_of(p) == Some(stream.cursor_of(p))));
                    let shutdown = VsrMsg::Shutdown { view: core.view() };
                    for (i, &dst) in group.iter().enumerate() {
                        if i != me {
                            rank.send(dst, repl_tag, msg_bytes(&shutdown), shutdown.clone());
                        }
                    }
                    return ReplicaOutcome {
                        role: ReplicaRole::Primary,
                        view: core.view(),
                        commits,
                        checkpoint: stream.consumer_checkpoint(),
                        state: acc,
                    };
                }
                // One stream step, bounded by the heartbeat tick.
                let mut died = false;
                let deadline = rank.now() + tick;
                let ev = {
                    let acc = &mut acc;
                    let fold = &mut fold;
                    stream.step(rank, Wait::Until(deadline), |r, elem| {
                        // After a Break, swallow the rest of the batch:
                        // the "crashed" rank must not keep folding.
                        if !died && fold(r, acc, elem).is_break() {
                            died = true;
                        }
                    })
                };
                let Some(ev) = ev else {
                    // Idle tick: heartbeat so the standbys stay patient.
                    let hb = VsrMsg::Commit { view: core.view(), commit_num: core.commit_num() };
                    for (i, &dst) in group.iter().enumerate() {
                        if i != me {
                            rank.send(dst, repl_tag, msg_bytes(&hb), hb.clone());
                        }
                    }
                    continue;
                };
                if died {
                    // Abrupt stop: no checkpoint, no credits, no goodbye —
                    // the standbys must detect the silence.
                    return ReplicaOutcome {
                        role: ReplicaRole::Died,
                        view: core.view(),
                        commits,
                        checkpoint: stream.consumer_checkpoint(),
                        state: acc,
                    };
                }
                if ev.elems == 0 && !ev.term {
                    // A quarantined stale message or an epoch Mark:
                    // nothing durable changed, nothing to replicate.
                    continue;
                }
                // Commit-before-credit-return: replicate the post-batch
                // state and wait for quorum before anything leaves.
                let snap =
                    RepState { acc: acc.to_frame(), ckpt: stream.consumer_checkpoint() }.to_frame();
                let bytes = snap.len() as u64;
                let t0 = rank.now();
                rank.observe(Event::Begin("repl-commit"));
                let mut milestones = Vec::new();
                let eff = core.on_local_op(snap);
                apply_effects(rank, &group, me, repl_tag, eff, &mut milestones);
                while !milestones.iter().any(|m| matches!(m, Effect::Committed { .. })) {
                    match rank.recv_deadline::<VsrMsg>(Src::Any, repl_tag, rank.now() + tick) {
                        Some((msg, _)) => {
                            let eff = core.on_message(msg);
                            apply_effects(rank, &group, me, repl_tag, eff, &mut milestones);
                            if !core.is_primary() {
                                rank.observe(Event::End("repl-commit"));
                                continue 'role;
                            }
                        }
                        None => {
                            // Retransmit the in-flight Prepare: it doubles
                            // as the heartbeat and repairs lost messages
                            // (backups re-PrepareOk idempotently).
                            let p = VsrMsg::Prepare {
                                view: core.view(),
                                op_num: core.op_num(),
                                commit_num: core.commit_num(),
                                state: core.prepared_state().to_vec(),
                            };
                            for (i, &dst) in group.iter().enumerate() {
                                if i != me {
                                    rank.send(dst, repl_tag, msg_bytes(&p), p.clone());
                                }
                            }
                        }
                    }
                }
                rank.observe(Event::End("repl-commit"));
                commits += 1;
                let latency_ns = (rank.now() - t0).as_nanos();
                rank.observe(Event::ReplCommit { channel: channel.id(), bytes, latency_ns });
                // The checkpoint is durable on a majority: now the
                // producers may drop the acknowledged elements. Each
                // acknowledgement leaves stamped with this primary's
                // view, so a producer that already followed a successor
                // (or has not yet heard of us) can reject it locally
                // instead of relying on cross-tag ordering.
                for (producer, elems) in stream.take_pending_credits() {
                    rank.observe(Event::CreditIssued { id: channel.id(), producer, elems });
                    let credit = CreditMsg { view: core.view(), acked: elems };
                    rank.send(producer, channel.credit_tag(), 16, credit);
                }
                if ev.term {
                    let ack = TakeoverMsg::TermAck { view: core.view() };
                    rank.send(ev.src, takeover_tag, 16, ack);
                }
            }
        } else {
            // ---------------- standby ----------------
            match rank.recv_deadline::<VsrMsg>(Src::Any, repl_tag, rank.now() + patience) {
                Some((msg, _)) => {
                    let mut milestones = Vec::new();
                    let eff = core.on_message(msg);
                    apply_effects(rank, &group, me, repl_tag, eff, &mut milestones);
                    for m in milestones {
                        match m {
                            Effect::Finished => return standby_outcome(&core, commits),
                            Effect::BecamePrimary { .. } => {
                                if takeover(rank, channel, &group, me, &mut core, tick, &mut stream)
                                {
                                    let rep = RepState::from_frame(core.committed_state())
                                        .expect("replicated state frame");
                                    acc = A::from_frame(&rep.acc).expect("accumulator frame");
                                }
                                continue 'role;
                            }
                            _ => {}
                        }
                    }
                }
                None => {
                    // Silence past the patience: suspect the primary.
                    let eff = core.on_timeout();
                    apply_effects(rank, &group, me, repl_tag, eff, &mut Vec::new());
                }
            }
        }
    }
}

/// Final outcome of a rank that ends as a standby: decode the last
/// committed snapshot it holds.
fn standby_outcome<A: Wire>(core: &VsrCore, commits: u64) -> ReplicaOutcome<A> {
    let rep = RepState::from_frame(core.committed_state()).expect("replicated state frame");
    ReplicaOutcome {
        role: ReplicaRole::Standby,
        view: core.view(),
        commits,
        state: A::from_frame(&rep.acc).expect("accumulator frame"),
        checkpoint: rep.ckpt,
    }
}

/// Complete a takeover after [`Effect::BecamePrimary`]: re-commit the
/// adopted snapshot in the new view, restore the committed checkpoint
/// into `stream`, quarantine every producer's data tag, and tell the
/// producers where the committed state stands. Returns `false` if a
/// yet-newer view deposed us mid-takeover (the caller goes back to
/// standby without touching its stream).
fn takeover<T, TP>(
    rank: &mut TP,
    channel: &StreamChannel,
    group: &[usize],
    me: usize,
    core: &mut VsrCore,
    tick: SimDuration,
    stream: &mut Stream<T>,
) -> bool
where
    T: Wire + Send + 'static,
    TP: Transport,
{
    let repl_tag = channel.repl_tag();
    // The adopted snapshot may be prepared-but-uncommitted — and it may
    // have been committed (credits released!) by the dead primary, so it
    // must reach quorum in this view before any cursor is announced.
    while !core.idle() {
        match rank.recv_deadline::<VsrMsg>(Src::Any, repl_tag, rank.now() + tick) {
            Some((msg, _)) => {
                let eff = core.on_message(msg);
                apply_effects(rank, group, me, repl_tag, eff, &mut Vec::new());
                if !core.is_primary() {
                    return false;
                }
            }
            None => {
                // Retransmit StartView: the PrepareOks it solicits are
                // what commit the adopted snapshot.
                let sv = VsrMsg::StartView {
                    view: core.view(),
                    snapshot: Snapshot {
                        op_num: core.op_num(),
                        state: core.prepared_state().to_vec(),
                    },
                    commit_num: core.commit_num(),
                };
                for (i, &dst) in group.iter().enumerate() {
                    if i != me {
                        rank.send(dst, repl_tag, msg_bytes(&sv), sv.clone());
                    }
                }
            }
        }
    }
    // Restore the committed checkpoint, then quarantine every
    // producer's data tag *before* announcing: messages addressed to an
    // earlier reign of this rank — still queued here, or in flight —
    // must not fold, because the replay the Announce solicits resends
    // the same suffix (the deposed-alive re-election hazard). Each
    // announced producer lifts its quarantine with `Mark(view)`, its
    // first post-announce message, so per-`(src, tag)` FIFO cuts the
    // stream exactly between stale and replayed traffic.
    let rep = RepState::from_frame(core.committed_state()).expect("replicated state frame");
    stream.restore_consumer(&rep.ckpt);
    // Announce the committed cursors. Producers whose Term is already
    // inside the committed checkpoint just get their acknowledgement
    // (their flow is complete — an Announce would solicit a duplicate
    // Term), and nothing further from them may ever fold; the rest
    // learn the cursor to replay from.
    let takeover_tag = channel.takeover_tag();
    let view = core.view();
    let claims: std::collections::HashMap<u64, u64> = rep.ckpt.claims.iter().copied().collect();
    for &p in channel.producers() {
        if claims.contains_key(&(p as u64)) {
            stream.quarantine_until_mark(p, u64::MAX);
            rank.send(p, takeover_tag, 16, TakeoverMsg::TermAck { view });
        } else {
            stream.quarantine_until_mark(p, view);
            let announce = TakeoverMsg::Announce { view, cursors: rep.ckpt.cursors.clone() };
            let bytes = 16 + 16 * rep.ckpt.cursors.len() as u64;
            rank.send(p, takeover_tag, bytes, announce);
        }
    }
    true
}
