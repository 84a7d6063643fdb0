//! The sans-io Viewstamped Replication core.
//!
//! A [`VsrCore`] is one replica's protocol state machine, written without
//! any transport: callers feed it local operations
//! ([`VsrCore::on_local_op`]), incoming messages ([`VsrCore::on_message`])
//! and silence ([`VsrCore::on_timeout`]), and it returns a list of
//! [`Effect`]s — messages to send and protocol milestones (commits,
//! primary handover, shutdown) for the driver to act on. This is the
//! layering of vsr-rs (and of loom-style protocol cores in general): the
//! pure state machine is unit-testable by shuttling [`VsrMsg`] values
//! between cores in-process, while the transport-facing driver
//! (`crate::consumer`) stays a thin loop.
//!
//! ## Protocol shape
//!
//! Classic VSR (Oki & Liskov; the Liskov/Cowling revisit) specialised to
//! *full-state checkpoints*: every operation carries a complete snapshot
//! of the replicated state, so the log is always compacted to its last
//! entry and state transfer is "adopt the newest snapshot". That fits the
//! consumer-state use exactly — a [`mpistream::ConsumerCheckpoint`] plus
//! operator accumulator *is* the whole state — and collapses the paper's
//! log machinery: `op_num` still totally orders operations and a
//! `(last_normal_view, op_num)` pair still picks the freshest replica in
//! a view change, but nothing older than the newest snapshot is ever
//! needed.
//!
//! - **Normal case:** the primary assigns `op_num`s, broadcasts
//!   [`VsrMsg::Prepare`] (snapshot inline), collects
//!   [`VsrMsg::PrepareOk`] from backups and commits at a majority
//!   (including itself), announcing [`Effect::Committed`] and an eager
//!   [`VsrMsg::Commit`]. One operation is in flight at a time — the
//!   driver's commit-before-credit-return handshake waits on the commit
//!   anyway.
//! - **View change:** a backup that times out advances its view and
//!   broadcasts [`VsrMsg::StartViewChange`]; at a majority of matching
//!   view-change votes every participant sends [`VsrMsg::DoViewChange`]
//!   (with its snapshot) to the new primary — `group[view % n]` — which
//!   adopts the freshest snapshot by `(last_normal_view, op_num)`,
//!   announces [`VsrMsg::StartView`], and emits
//!   [`Effect::BecamePrimary`]. An adopted snapshot that was prepared
//!   but not yet committed is re-committed in the new view (backups
//!   `PrepareOk` it in response to `StartView`) — it may have been
//!   committed by the dead primary, so it must survive.
//! - **Recovery:** a restarted replica broadcasts [`VsrMsg::Recovery`]
//!   with a nonce; members answer [`VsrMsg::RecoveryResponse`], the
//!   current primary's response carrying the snapshot. At a majority of
//!   responses for the latest view heard, the recovering replica installs
//!   the primary's snapshot and rejoins as a backup.
//!
//! Safety rests on quorum intersection exactly as in the paper: a commit
//! quorum and any later view-change quorum share a replica, so the
//! freshest snapshot adopted by a new primary is at least as new as any
//! committed (credit-released) state.

use std::collections::{BTreeMap, BTreeSet};

use mpistream::wire::{Wire, WireError, WireOut};

/// Replica status (the paper's `status` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Processing operations in the current view.
    Normal,
    /// Participating in a view change.
    ViewChange,
    /// Rejoining after a restart; ignores normal-case traffic.
    Recovering,
}

/// A full-state checkpoint: the snapshot that was prepared as operation
/// `op_num` (op 0 is the group's common initial state).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// The operation number this snapshot was prepared as.
    pub op_num: u64,
    /// Opaque serialized state (the driver's `Wire` frame).
    pub state: Vec<u8>,
}

mpistream::wire_struct!(Snapshot { op_num, state });

/// One DoViewChange vote's payload, kept per sender by the new primary.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Dvc {
    last_normal: u64,
    snapshot: Snapshot,
    commit_num: u64,
}

/// The replication-protocol messages, exchanged on a channel's `repl`
/// tag. `from` fields are *group indices* (positions in the channel's
/// consumer list), not world ranks — the membership is fixed at channel
/// creation, so indices are stable and smaller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VsrMsg {
    /// Primary -> backups: operation `op_num` with its full-state
    /// snapshot; piggybacks the primary's commit number.
    Prepare {
        /// The primary's view.
        view: u64,
        /// Operation number being prepared.
        op_num: u64,
        /// Highest committed operation at the primary.
        commit_num: u64,
        /// The full serialized state after this operation.
        state: Vec<u8>,
    },
    /// Backup -> primary: operation `op_num` is durably prepared here.
    PrepareOk {
        /// The backup's view.
        view: u64,
        /// The prepared operation.
        op_num: u64,
        /// Group index of the backup.
        from: usize,
    },
    /// Primary -> backups: commit notification, doubling as the idle
    /// heartbeat.
    Commit {
        /// The primary's view.
        view: u64,
        /// Highest committed operation.
        commit_num: u64,
    },
    /// A replica suspects the primary and proposes view `view`.
    StartViewChange {
        /// The proposed (new) view.
        view: u64,
        /// Group index of the proposer.
        from: usize,
    },
    /// A replica's vote-with-state for the new primary of `view`.
    DoViewChange {
        /// The new view.
        view: u64,
        /// Last view in which this replica's status was Normal.
        last_normal: u64,
        /// The replica's newest prepared snapshot.
        snapshot: Snapshot,
        /// The replica's commit number.
        commit_num: u64,
        /// Group index of the voter.
        from: usize,
    },
    /// New primary -> backups: view `view` starts with this snapshot.
    StartView {
        /// The new view.
        view: u64,
        /// The adopted snapshot (newest across the view-change quorum).
        snapshot: Snapshot,
        /// The new primary's commit number.
        commit_num: u64,
    },
    /// A restarted replica asks the group for the current state.
    Recovery {
        /// Group index of the recovering replica.
        from: usize,
        /// Nonce distinguishing this recovery from earlier incarnations.
        nonce: u64,
    },
    /// Answer to [`VsrMsg::Recovery`]; the primary's answer carries the
    /// snapshot.
    RecoveryResponse {
        /// The responder's view.
        view: u64,
        /// Echo of the recovery nonce.
        nonce: u64,
        /// Group index of the responder.
        from: usize,
        /// `Some((snapshot, commit_num))` iff the responder is the
        /// primary of `view`.
        primary: Option<(Snapshot, u64)>,
    },
    /// Primary -> backups: the replicated stream is complete; stop.
    Shutdown {
        /// The primary's view.
        view: u64,
    },
}

impl Wire for VsrMsg {
    fn encode<O: WireOut>(&self, out: &mut O) {
        match self {
            VsrMsg::Prepare { view, op_num, commit_num, state } => {
                out.put(&[0]);
                view.encode(out);
                op_num.encode(out);
                commit_num.encode(out);
                state.encode(out);
            }
            VsrMsg::PrepareOk { view, op_num, from } => {
                out.put(&[1]);
                view.encode(out);
                op_num.encode(out);
                from.encode(out);
            }
            VsrMsg::Commit { view, commit_num } => {
                out.put(&[2]);
                view.encode(out);
                commit_num.encode(out);
            }
            VsrMsg::StartViewChange { view, from } => {
                out.put(&[3]);
                view.encode(out);
                from.encode(out);
            }
            VsrMsg::DoViewChange { view, last_normal, snapshot, commit_num, from } => {
                out.put(&[4]);
                view.encode(out);
                last_normal.encode(out);
                snapshot.encode(out);
                commit_num.encode(out);
                from.encode(out);
            }
            VsrMsg::StartView { view, snapshot, commit_num } => {
                out.put(&[5]);
                view.encode(out);
                snapshot.encode(out);
                commit_num.encode(out);
            }
            VsrMsg::Recovery { from, nonce } => {
                out.put(&[6]);
                from.encode(out);
                nonce.encode(out);
            }
            VsrMsg::RecoveryResponse { view, nonce, from, primary } => {
                out.put(&[7]);
                view.encode(out);
                nonce.encode(out);
                from.encode(out);
                primary.encode(out);
            }
            VsrMsg::Shutdown { view } => {
                out.put(&[8]);
                view.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(VsrMsg::Prepare {
                view: u64::decode(input)?,
                op_num: u64::decode(input)?,
                commit_num: u64::decode(input)?,
                state: Vec::decode(input)?,
            }),
            1 => Ok(VsrMsg::PrepareOk {
                view: u64::decode(input)?,
                op_num: u64::decode(input)?,
                from: usize::decode(input)?,
            }),
            2 => Ok(VsrMsg::Commit { view: u64::decode(input)?, commit_num: u64::decode(input)? }),
            3 => Ok(VsrMsg::StartViewChange {
                view: u64::decode(input)?,
                from: usize::decode(input)?,
            }),
            4 => Ok(VsrMsg::DoViewChange {
                view: u64::decode(input)?,
                last_normal: u64::decode(input)?,
                snapshot: Snapshot::decode(input)?,
                commit_num: u64::decode(input)?,
                from: usize::decode(input)?,
            }),
            5 => Ok(VsrMsg::StartView {
                view: u64::decode(input)?,
                snapshot: Snapshot::decode(input)?,
                commit_num: u64::decode(input)?,
            }),
            6 => Ok(VsrMsg::Recovery { from: usize::decode(input)?, nonce: u64::decode(input)? }),
            7 => Ok(VsrMsg::RecoveryResponse {
                view: u64::decode(input)?,
                nonce: u64::decode(input)?,
                from: usize::decode(input)?,
                primary: Option::decode(input)?,
            }),
            8 => Ok(VsrMsg::Shutdown { view: u64::decode(input)? }),
            got => Err(WireError::BadDiscriminant { got }),
        }
    }
}

/// What the driver must do after feeding the core an event. Sends come
/// first in the returned vector, milestones after.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Send `msg` to group index `to`.
    Send {
        /// Destination group index.
        to: usize,
        /// The message.
        msg: VsrMsg,
    },
    /// Send `msg` to every *other* group member.
    Broadcast {
        /// The message.
        msg: VsrMsg,
    },
    /// Operation `op_num` is committed: its snapshot is durable on a
    /// majority. The driver may now externalize it (release credits,
    /// acknowledge terms).
    Committed {
        /// The committed operation.
        op_num: u64,
    },
    /// This replica just became the primary of `view` (view change
    /// completed here). The driver restores the adopted snapshot and
    /// takes over the stream.
    BecamePrimary {
        /// The new view.
        view: u64,
    },
    /// A snapshot was installed wholesale (StartView / recovery /
    /// state-transfer-by-Prepare): the driver's copy of the state is
    /// stale and must be re-read from [`VsrCore::prepared_state`].
    InstalledState,
    /// The primary declared the stream complete; a backup driver returns.
    Finished,
}

/// Group index of the primary of `view` in a group of `n`: each view
/// change hands the primary role to the next member, in group order.
pub(crate) fn primary_index(view: u64, n: usize) -> usize {
    (view % n as u64) as usize
}

/// One replica's protocol state. See the [module docs](self) for the
/// protocol; `crate::consumer` for the transport-facing driver.
#[derive(Clone, Debug)]
pub struct VsrCore {
    me: usize,
    n: usize,
    status: Status,
    view: u64,
    /// Last view in which this replica's status was Normal.
    last_normal: u64,
    /// Newest prepared snapshot (`prepared.op_num` is the classic
    /// `op_num` field).
    prepared: Snapshot,
    /// Newest committed snapshot (`committed.op_num` is `commit_num`).
    committed: Snapshot,
    /// PrepareOk votes for `prepared.op_num` (primary only).
    ok_from: BTreeSet<usize>,
    /// StartViewChange votes for `view` (during a view change).
    svc_from: BTreeSet<usize>,
    /// Whether this replica already cast its DoViewChange for `view`.
    dvc_sent: bool,
    /// DoViewChange votes for `view` (new primary only).
    dvc: BTreeMap<usize, Dvc>,
    /// Nonce of the in-flight recovery (Recovering only).
    recovery_nonce: u64,
    /// Recovery responses seen: group index -> responder's view.
    recovery_votes: BTreeMap<usize, u64>,
    /// Freshest primary payload among recovery responses.
    recovery_best: Option<(u64, Snapshot, u64)>,
}

impl VsrCore {
    /// A replica at group index `me` of an `n`-member group, starting in
    /// view 0 with the group's common initial state as committed
    /// operation 0. Every member must pass an identical `initial` frame.
    pub fn new(me: usize, n: usize, initial: Vec<u8>) -> VsrCore {
        assert!(n >= 1 && me < n, "replica index {me} out of a group of {n}");
        let snap = Snapshot { op_num: 0, state: initial };
        VsrCore {
            me,
            n,
            status: Status::Normal,
            view: 0,
            last_normal: 0,
            prepared: snap.clone(),
            committed: snap,
            ok_from: BTreeSet::new(),
            svc_from: BTreeSet::new(),
            dvc_sent: false,
            dvc: BTreeMap::new(),
            recovery_nonce: 0,
            recovery_votes: BTreeMap::new(),
            recovery_best: None,
        }
    }

    /// Majority quorum size (counting this replica).
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Group index of the primary of `view`.
    pub fn primary_of(&self, view: u64) -> usize {
        primary_index(view, self.n)
    }

    /// Whether this replica is the current, functioning primary.
    pub fn is_primary(&self) -> bool {
        self.status == Status::Normal && self.primary_of(self.view) == self.me
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Current status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Newest prepared operation number.
    pub fn op_num(&self) -> u64 {
        self.prepared.op_num
    }

    /// Newest committed operation number.
    pub fn commit_num(&self) -> u64 {
        self.committed.op_num
    }

    /// The newest prepared snapshot's state frame.
    pub fn prepared_state(&self) -> &[u8] {
        &self.prepared.state
    }

    /// The newest committed snapshot's state frame.
    pub fn committed_state(&self) -> &[u8] {
        &self.committed.state
    }

    /// Whether the newest prepared operation has committed (nothing in
    /// flight).
    pub fn idle(&self) -> bool {
        self.prepared.op_num == self.committed.op_num
    }

    /// Primary: prepare `state` as the next operation. Requires an idle
    /// core (the one-in-flight discipline of the commit-before-credit
    /// handshake). Returns the broadcast — and, in a single-member group,
    /// the immediate commit.
    pub fn on_local_op(&mut self, state: Vec<u8>) -> Vec<Effect> {
        assert!(self.is_primary(), "on_local_op on a non-primary");
        assert!(self.idle(), "on_local_op with an operation in flight");
        self.prepared = Snapshot { op_num: self.committed.op_num + 1, state };
        self.ok_from = BTreeSet::from([self.me]);
        let mut effects = vec![Effect::Broadcast {
            msg: VsrMsg::Prepare {
                view: self.view,
                op_num: self.prepared.op_num,
                commit_num: self.committed.op_num,
                state: self.prepared.state.clone(),
            },
        }];
        self.try_commit(&mut effects);
        effects
    }

    /// Feed one incoming message (`from` is the sender's group index as
    /// carried in the message where present; pass the transport's notion
    /// otherwise).
    pub fn on_message(&mut self, msg: VsrMsg) -> Vec<Effect> {
        let mut effects = Vec::new();
        match msg {
            VsrMsg::Prepare { view, op_num, commit_num, state } => {
                if view < self.view || self.status == Status::Recovering {
                    return effects;
                }
                if view > self.view || self.status != Status::Normal {
                    // The primary of `view` had quorum, and its Prepare
                    // carries full state: adopt the view directly (the
                    // missed StartView is subsumed by the snapshot).
                    self.enter_view(view);
                    // An op prepared under the old view but never
                    // committed is void here: this replica sat outside
                    // the view-change quorum, so the new primary may have
                    // assigned the *same op_num to different state*.
                    // Keeping it would skip the install below on an equal
                    // op_num while still PrepareOk-ing — acknowledging,
                    // and on the next Commit adopting, state this replica
                    // never held. The committed snapshot is the only safe
                    // base to compare the incoming op against.
                    self.prepared = self.committed.clone();
                }
                if op_num > self.prepared.op_num {
                    self.promote_if_covered(commit_num);
                    self.prepared = Snapshot { op_num, state };
                    effects.push(Effect::InstalledState);
                }
                self.promote_if_covered(commit_num);
                effects.push(Effect::Send {
                    to: self.primary_of(self.view),
                    msg: VsrMsg::PrepareOk { view: self.view, op_num, from: self.me },
                });
            }
            VsrMsg::PrepareOk { view, op_num, from } => {
                if view != self.view || !self.is_primary() || op_num != self.prepared.op_num {
                    return effects;
                }
                self.ok_from.insert(from);
                self.try_commit(&mut effects);
            }
            VsrMsg::Commit { view, commit_num } => {
                if view != self.view || self.status != Status::Normal {
                    return effects;
                }
                let before = self.committed.op_num;
                self.promote_if_covered(commit_num);
                if self.committed.op_num > before {
                    effects.push(Effect::Committed { op_num: self.committed.op_num });
                }
            }
            VsrMsg::StartViewChange { view, from } => {
                if view < self.view || self.status == Status::Recovering {
                    return effects;
                }
                if view == self.view && self.status == Status::Normal {
                    // This view change already completed here (StartView
                    // arrived, or a quorum-backed Prepare subsumed it): a
                    // straggler's vote for it is stale. Restarting would
                    // re-broadcast the vote and ping-pong the group
                    // between Normal and ViewChange forever.
                    return effects;
                }
                if view > self.view {
                    self.start_view_change(view, &mut effects);
                }
                self.svc_from.insert(from);
                self.maybe_do_view_change(&mut effects);
            }
            VsrMsg::DoViewChange { view, last_normal, snapshot, commit_num, from } => {
                if view < self.view || self.status == Status::Recovering {
                    return effects;
                }
                if view > self.view {
                    self.start_view_change(view, &mut effects);
                }
                if self.primary_of(view) != self.me {
                    return effects;
                }
                self.dvc.insert(from, Dvc { last_normal, snapshot, commit_num });
                self.maybe_become_primary(&mut effects);
            }
            VsrMsg::StartView { view, snapshot, commit_num } => {
                if view < self.view
                    || (view == self.view && self.status == Status::Normal)
                    || self.status == Status::Recovering
                {
                    return effects;
                }
                self.enter_view(view);
                self.prepared = snapshot;
                self.promote_if_covered(commit_num);
                effects.push(Effect::InstalledState);
                if self.prepared.op_num > self.committed.op_num {
                    // Help the new primary re-commit the adopted
                    // operation in its new view.
                    effects.push(Effect::Send {
                        to: self.primary_of(view),
                        msg: VsrMsg::PrepareOk {
                            view,
                            op_num: self.prepared.op_num,
                            from: self.me,
                        },
                    });
                }
            }
            VsrMsg::Recovery { from, nonce } => {
                if self.status != Status::Normal {
                    return effects;
                }
                let primary = if self.is_primary() {
                    Some((self.prepared.clone(), self.committed.op_num))
                } else {
                    None
                };
                effects.push(Effect::Send {
                    to: from,
                    msg: VsrMsg::RecoveryResponse {
                        view: self.view,
                        nonce,
                        from: self.me,
                        primary,
                    },
                });
            }
            VsrMsg::RecoveryResponse { view, nonce, from, primary } => {
                if self.status != Status::Recovering || nonce != self.recovery_nonce {
                    return effects;
                }
                self.recovery_votes.insert(from, view);
                if let Some((snapshot, commit_num)) = primary {
                    let fresher = self.recovery_best.as_ref().is_none_or(|&(v, ..)| view > v);
                    if fresher {
                        self.recovery_best = Some((view, snapshot, commit_num));
                    }
                }
                self.maybe_finish_recovery(&mut effects);
            }
            VsrMsg::Shutdown { view } => {
                if view >= self.view {
                    effects.push(Effect::Finished);
                }
            }
        }
        effects
    }

    /// The driver's patience ran out (no primary traffic for the
    /// channel's replication patience): start — or escalate — a view
    /// change. A primary ignores timeouts (it heartbeats instead).
    pub fn on_timeout(&mut self) -> Vec<Effect> {
        let mut effects = Vec::new();
        if self.is_primary() || self.status == Status::Recovering {
            return effects;
        }
        let next = self.view + 1;
        self.start_view_change(next, &mut effects);
        self.maybe_do_view_change(&mut effects);
        effects
    }

    /// Begin recovering after a restart: forget volatile state, pick a
    /// fresh `nonce`, and ask the group. The driver routes the broadcast
    /// and keeps feeding responses until [`Effect::InstalledState`].
    pub fn start_recovery(&mut self, nonce: u64) -> Vec<Effect> {
        self.status = Status::Recovering;
        self.recovery_nonce = nonce;
        self.recovery_votes.clear();
        self.recovery_best = None;
        vec![Effect::Broadcast { msg: VsrMsg::Recovery { from: self.me, nonce } }]
    }

    /// Commit when a majority (including self) has prepared the in-flight
    /// operation.
    fn try_commit(&mut self, effects: &mut Vec<Effect>) {
        if self.prepared.op_num > self.committed.op_num && self.ok_from.len() >= self.quorum() {
            self.committed = self.prepared.clone();
            effects.push(Effect::Broadcast {
                msg: VsrMsg::Commit { view: self.view, commit_num: self.committed.op_num },
            });
            effects.push(Effect::Committed { op_num: self.committed.op_num });
        }
    }

    /// Promote the prepared snapshot to committed when `commit_num`
    /// covers it. (With one operation in flight, `commit_num` is always
    /// `prepared.op_num` or `prepared.op_num - 1`.)
    fn promote_if_covered(&mut self, commit_num: u64) {
        if commit_num >= self.prepared.op_num && self.prepared.op_num > self.committed.op_num {
            self.committed = self.prepared.clone();
        }
    }

    /// Move to view `view` in ViewChange status, voting for it.
    fn start_view_change(&mut self, view: u64, effects: &mut Vec<Effect>) {
        debug_assert!(view > self.view || self.status != Status::ViewChange);
        if self.status == Status::Normal {
            self.last_normal = self.view;
        }
        self.view = view;
        self.status = Status::ViewChange;
        self.svc_from = BTreeSet::from([self.me]);
        self.dvc_sent = false;
        self.dvc.clear();
        effects.push(Effect::Broadcast { msg: VsrMsg::StartViewChange { view, from: self.me } });
    }

    /// Cast the DoViewChange vote once a majority proposes this view.
    fn maybe_do_view_change(&mut self, effects: &mut Vec<Effect>) {
        if self.status != Status::ViewChange || self.dvc_sent || self.svc_from.len() < self.quorum()
        {
            return;
        }
        self.dvc_sent = true;
        let dvc = Dvc {
            last_normal: self.last_normal,
            snapshot: self.prepared.clone(),
            commit_num: self.committed.op_num,
        };
        if self.primary_of(self.view) == self.me {
            self.dvc.insert(self.me, dvc);
            self.maybe_become_primary(effects);
        } else {
            effects.push(Effect::Send {
                to: self.primary_of(self.view),
                msg: VsrMsg::DoViewChange {
                    view: self.view,
                    last_normal: dvc.last_normal,
                    snapshot: dvc.snapshot,
                    commit_num: dvc.commit_num,
                    from: self.me,
                },
            });
        }
    }

    /// Complete the view change once a majority has cast DoViewChange
    /// votes here: adopt the freshest snapshot, announce StartView, and
    /// hand the stream to the driver.
    fn maybe_become_primary(&mut self, effects: &mut Vec<Effect>) {
        if self.status != Status::ViewChange || self.dvc.len() < self.quorum() {
            return;
        }
        let best = self
            .dvc
            .values()
            .max_by_key(|d| (d.last_normal, d.snapshot.op_num))
            .expect("quorum is non-empty");
        let commit_num =
            self.dvc.values().map(|d| d.commit_num).max().expect("quorum is non-empty");
        self.prepared = best.snapshot.clone();
        let view = self.view;
        self.enter_view(view);
        self.promote_if_covered(commit_num);
        effects.push(Effect::Broadcast {
            msg: VsrMsg::StartView {
                view: self.view,
                snapshot: self.prepared.clone(),
                commit_num: self.committed.op_num,
            },
        });
        // The adopted snapshot may be prepared-but-uncommitted (and may
        // have been committed by the dead primary — it must survive):
        // re-commit it in this view. Backups PrepareOk in response to
        // StartView; count our own vote now.
        self.ok_from = BTreeSet::from([self.me]);
        self.try_commit(effects);
        effects.push(Effect::BecamePrimary { view: self.view });
    }

    /// Install the freshest primary snapshot once a majority answered
    /// this recovery round and the freshest view's primary is among them.
    fn maybe_finish_recovery(&mut self, effects: &mut Vec<Effect>) {
        if self.recovery_votes.len() < self.quorum() {
            return;
        }
        let max_view = *self.recovery_votes.values().max().expect("quorum is non-empty");
        let Some((view, snapshot, commit_num)) = self.recovery_best.clone() else {
            return; // no primary answered yet: keep waiting
        };
        if view < max_view {
            return; // a fresher view exists; wait for its primary
        }
        self.enter_view(view);
        self.prepared = snapshot;
        self.promote_if_covered(commit_num);
        // Anything above the commit number is re-driven by the primary.
        self.prepared = self.committed.clone();
        effects.push(Effect::InstalledState);
    }

    /// Enter `view` in Normal status, clearing per-view vote state.
    fn enter_view(&mut self, view: u64) {
        self.view = view;
        self.last_normal = view;
        self.status = Status::Normal;
        self.svc_from.clear();
        self.dvc_sent = false;
        self.dvc.clear();
        self.ok_from.clear();
        self.recovery_votes.clear();
        self.recovery_best = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliver `effects` from `from` into a set of cores, returning
    /// follow-up effects per recipient. Send/Broadcast only.
    fn route(cores: &mut [VsrCore], from: usize, effects: Vec<Effect>) -> Vec<(usize, Effect)> {
        let mut out = Vec::new();
        for e in effects {
            match e {
                Effect::Send { to, msg } => {
                    for f in cores[to].on_message(msg.clone()) {
                        out.push((to, f));
                    }
                }
                Effect::Broadcast { msg } => {
                    for (to, core) in cores.iter_mut().enumerate() {
                        if to == from {
                            continue;
                        }
                        for f in core.on_message(msg.clone()) {
                            out.push((to, f));
                        }
                    }
                }
                other => out.push((from, other)),
            }
        }
        out
    }

    /// Run effects to a fixed point, collecting milestones.
    fn settle(cores: &mut [VsrCore], from: usize, effects: Vec<Effect>) -> Vec<(usize, Effect)> {
        let mut milestones = Vec::new();
        let mut frontier = vec![(from, effects)];
        while let Some((src, effs)) = frontier.pop() {
            for (who, e) in route(cores, src, effs) {
                match e {
                    Effect::Send { .. } | Effect::Broadcast { .. } => {
                        frontier.push((who, vec![e]));
                    }
                    other => milestones.push((who, other)),
                }
            }
        }
        milestones
    }

    fn group(n: usize) -> Vec<VsrCore> {
        (0..n).map(|i| VsrCore::new(i, n, vec![0xAA])).collect()
    }

    #[test]
    fn normal_case_commits_at_majority() {
        let mut cores = group(3);
        let effects = cores[0].on_local_op(vec![1, 2, 3]);
        let milestones = settle(&mut cores, 0, effects);
        assert!(milestones.contains(&(0, Effect::Committed { op_num: 1 })));
        assert_eq!(cores[0].commit_num(), 1);
        assert_eq!(cores[0].committed_state(), &[1, 2, 3]);
        // Backups prepared it; commit reaches them via the eager Commit.
        for c in &cores[1..] {
            assert_eq!(c.op_num(), 1);
            assert_eq!(c.commit_num(), 1, "eager commit broadcast reaches backups");
        }
    }

    #[test]
    fn single_member_group_commits_immediately() {
        let mut core = VsrCore::new(0, 1, vec![]);
        let effects = core.on_local_op(vec![9]);
        assert!(effects.iter().any(|e| matches!(e, Effect::Committed { op_num: 1 })));
        assert_eq!(core.commit_num(), 1);
    }

    #[test]
    fn view_change_adopts_freshest_snapshot_and_recommits() {
        let mut cores = group(3);
        // Commit op 1 everywhere, then prepare op 2 on backup 1 only
        // (primary "dies" before committing it — but it MAY have
        // committed, so the new primary must adopt and re-commit it).
        let effects = cores[0].on_local_op(vec![1]);
        settle(&mut cores, 0, effects);
        let op2 = VsrMsg::Prepare { view: 0, op_num: 2, commit_num: 1, state: vec![2] };
        cores[1].on_message(op2); // PrepareOk to dead primary: dropped
        assert_eq!(cores[1].op_num(), 2);
        assert_eq!(cores[1].commit_num(), 1);
        // Backup 2 times out; view change among {1, 2}; primary of view 1
        // is replica 1.
        let effects = cores[2].on_timeout();
        // Deliver only to replica 1 (replica 0 is dead).
        let mut milestones = Vec::new();
        let mut frontier = vec![(2usize, effects)];
        while let Some((src, effs)) = frontier.pop() {
            for e in effs {
                match e {
                    Effect::Send { to, msg } if to != 0 => {
                        let f = cores[to].on_message(msg);
                        frontier.push((to, f));
                    }
                    Effect::Broadcast { msg } => {
                        for (to, core) in cores.iter_mut().enumerate() {
                            if to == src || to == 0 {
                                continue;
                            }
                            let f = core.on_message(msg.clone());
                            frontier.push((to, f));
                        }
                    }
                    Effect::Send { .. } => {} // to the dead primary
                    other => milestones.push((src, other)),
                }
            }
        }
        assert!(
            milestones.contains(&(1, Effect::BecamePrimary { view: 1 })),
            "replica 1 must win view 1: {milestones:?}"
        );
        assert!(cores[1].is_primary());
        // The uncommitted op 2 was adopted AND re-committed in view 1.
        assert_eq!(cores[1].op_num(), 2);
        assert_eq!(cores[1].commit_num(), 2, "adopted snapshot must re-commit: {milestones:?}");
        assert_eq!(cores[1].committed_state(), &[2]);
        assert_eq!(cores[2].view(), 1);
        assert_eq!(cores[2].op_num(), 2, "StartView installs the adopted snapshot");
    }

    #[test]
    fn stale_view_messages_are_ignored() {
        let mut cores = group(3);
        let effects = cores[2].on_timeout(); // moves to view 1
        settle(&mut cores, 2, effects);
        // A stale Prepare from the deposed view-0 primary.
        let effects = cores[2].on_message(VsrMsg::Prepare {
            view: 0,
            op_num: 5,
            commit_num: 0,
            state: vec![5],
        });
        assert!(effects.is_empty());
        assert_ne!(cores[2].op_num(), 5);
    }

    #[test]
    fn backup_adopts_higher_view_from_prepare() {
        let mut cores = group(3);
        // Replica 2 never hears the view change; a Prepare from the view-1
        // primary carries everything needed to follow.
        let effects = cores[2].on_message(VsrMsg::Prepare {
            view: 1,
            op_num: 3,
            commit_num: 2,
            state: vec![7],
        });
        assert_eq!(cores[2].view(), 1);
        assert_eq!(cores[2].op_num(), 3);
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to: 1, msg: VsrMsg::PrepareOk { view: 1, op_num: 3, .. } }
        )));
    }

    /// The divergence scenario of op_num reuse across views (needs n>=5
    /// for a view-change quorum that excludes both the dead primary and
    /// a lagging backup): backup 3 prepared op 1 = A under view 0, the
    /// primary died uncommitted, and the view-1 quorum {1, 2, 4} never
    /// saw A — so the new primary reuses op 1 for different state B. The
    /// lagging backup must discard A and install B; acknowledging op 1
    /// while still holding A would commit divergent state on the next
    /// Commit message.
    #[test]
    fn higher_view_prepare_discards_stale_prepared_op() {
        let mut cores = group(5);
        cores[3].on_message(VsrMsg::Prepare {
            view: 0,
            op_num: 1,
            commit_num: 0,
            state: vec![0xA],
        });
        assert_eq!(cores[3].op_num(), 1);
        assert_eq!(cores[3].prepared_state(), &[0xA]);
        // New primary of view 1 prepares a *different* op 1 = B.
        let effects = cores[3].on_message(VsrMsg::Prepare {
            view: 1,
            op_num: 1,
            commit_num: 0,
            state: vec![0xB],
        });
        assert_eq!(cores[3].view(), 1);
        assert_eq!(cores[3].prepared_state(), &[0xB], "stale view-0 op 1 must be discarded");
        assert!(effects.contains(&Effect::InstalledState), "B must actually install: {effects:?}");
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to: 1, msg: VsrMsg::PrepareOk { view: 1, op_num: 1, .. } }
        )));
        // The commit that follows must commit B, not A.
        cores[3].on_message(VsrMsg::Commit { view: 1, commit_num: 1 });
        assert_eq!(cores[3].commit_num(), 1);
        assert_eq!(cores[3].committed_state(), &[0xB]);
    }

    #[test]
    fn recovery_installs_primary_snapshot() {
        let mut cores = group(3);
        let effects = cores[0].on_local_op(vec![4]);
        settle(&mut cores, 0, effects);
        // Replica 2 restarts from nothing.
        cores[2] = VsrCore::new(2, 3, vec![0xAA]);
        let effects = cores[2].start_recovery(77);
        let milestones = settle(&mut cores, 2, effects);
        assert!(milestones.contains(&(2, Effect::InstalledState)));
        assert_eq!(cores[2].status(), Status::Normal);
        assert_eq!(cores[2].commit_num(), 1);
        assert_eq!(cores[2].committed_state(), &[4]);
    }

    #[test]
    fn shutdown_finishes_backups() {
        let mut cores = group(3);
        let effects = cores[1].on_message(VsrMsg::Shutdown { view: 0 });
        assert_eq!(effects, vec![Effect::Finished]);
        // Stale shutdown from a deposed view is ignored.
        let effects = cores[2].on_timeout();
        settle(&mut cores, 2, effects);
        // (view changed past 0 on core 2 — re-send old shutdown)
        assert!(cores[2].view() > 0);
        let effects = cores[2].on_message(VsrMsg::Shutdown { view: 0 });
        assert!(effects.is_empty());
    }

    #[test]
    fn primary_steps_down_on_higher_view() {
        let mut cores = group(3);
        assert!(cores[0].is_primary());
        cores[0].on_message(VsrMsg::StartViewChange { view: 1, from: 2 });
        assert!(!cores[0].is_primary());
        assert_eq!(cores[0].status(), Status::ViewChange);
    }

    #[test]
    fn commit_requires_quorum_not_just_one_ok() {
        let mut cores = group(5); // quorum 3: self + 2 oks
        let effects = cores[0].on_local_op(vec![1]);
        // Withhold all backup responses.
        drop(effects);
        assert_eq!(cores[0].commit_num(), 0);
        cores[0].on_message(VsrMsg::PrepareOk { view: 0, op_num: 1, from: 1 });
        assert_eq!(cores[0].commit_num(), 0, "2 of 5 is not a majority");
        let effects = cores[0].on_message(VsrMsg::PrepareOk { view: 0, op_num: 1, from: 2 });
        assert_eq!(cores[0].commit_num(), 1);
        assert!(effects.iter().any(|e| matches!(e, Effect::Committed { op_num: 1 })));
        // Duplicate PrepareOks change nothing.
        let effects = cores[0].on_message(VsrMsg::PrepareOk { view: 0, op_num: 1, from: 1 });
        assert!(effects.is_empty());
    }
}
