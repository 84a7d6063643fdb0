//! Tree-aggregation operators: producer-side combiners and reduction
//! trees of intermediate consumer stages.
//!
//! The paper's own Fig. 5 analysis concedes that the decoupled curve
//! rises again at 4,096–8,192 ranks: the master drains one unaggregated
//! message per folded chunk from every local reducer, so its per-message
//! overhead `o` (Eq. 4) is paid `O(P)` times — an incast the decoupling
//! strategy itself does not remove. This module supplies the two
//! composable operators that do:
//!
//! - [`Combiner`] — producer-side pre-reduction. Elements destined for
//!   the same consumer are merged in place and enter the channel only
//!   every `flush_every` pushes, amortizing `o` across `flush_every`
//!   logical elements without changing the stream's granularity `S`.
//! - [`plan_tree`] / [`reduce_through`] — reduction-tree stages.
//!   Participating ranks are partitioned into blocks of `fan_in`; each
//!   block's first member is its *representative*, consuming the other
//!   members' partials over a private block channel and carrying the
//!   merged result into the next stage. The recursion ends at a single
//!   root, so every rank's partial reaches the root over
//!   `ceil(log_fan_in n)` hops and the worst per-rank fan-in is `fan_in`
//!   instead of `n`.
//!
//! Everything is generic over [`Transport`], so the simulator and the
//! native threaded backend get both operators unchanged.
//!
//! ## Termination and flow control across stages
//!
//! Each block channel is an ordinary [`StreamChannel`] with the full
//! protocol (aggregation, credits, Term markers). Stages compose without
//! new machinery because the block graph is a forest directed at the
//! root: a representative finishes draining its stage-`s` block (i.e.
//! has seen every block sender's `Term`) *before* it produces on its
//! stage-`s+1` channel, so `Term`s propagate strictly upward and no
//! credit-wait can cycle. See DESIGN.md §15.

use crate::channel::{ChannelConfig, StreamChannel};
use crate::group::Role;
use crate::stream::Stream;
use crate::transport::{prof_scoped, Transport};
use crate::wire::Wire;

// ---------------------------------------------------------------------
// Producer-side combiner
// ---------------------------------------------------------------------

/// Counters of one [`Combiner`]: how many elements were folded in and how
/// many pre-reduced elements actually entered the stream. The ratio is
/// the per-message-overhead amortization factor the operator bought.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombinerStats {
    /// Elements accepted by [`Combiner::push`].
    pub folded: u64,
    /// Pre-reduced elements emitted into the underlying stream.
    pub emitted: u64,
}

impl CombinerStats {
    /// Folded-to-emitted ratio (1.0 when the combiner never merged).
    pub fn fold_factor(&self) -> f64 {
        if self.emitted == 0 {
            1.0
        } else {
            self.folded as f64 / self.emitted as f64
        }
    }
}

/// Producer-side pre-reduction in front of a [`Stream`].
///
/// One accumulator slot per consumer index: [`Combiner::push`] merges the
/// new element into the slot (with the caller's associative `merge`) and
/// forwards the accumulated element via [`Stream::isend_to`] only once
/// `flush_every` elements have been folded into it. `flush_every = 1`
/// degenerates to a plain `isend_to`.
///
/// The combiner holds data outside the stream's aggregation buffers, so
/// callers must [`Combiner::finish`] (or [`Combiner::flush`]) before
/// terminating the stream — `finish` returns the stats and makes the
/// leak impossible to miss in review.
pub struct Combiner<T> {
    slots: Vec<Option<T>>,
    counts: Vec<u64>,
    flush_every: u64,
    stats: CombinerStats,
}

impl<T: Wire + Send + 'static> Combiner<T> {
    /// A combiner sized for `stream`'s consumer set, flushing each slot
    /// every `flush_every` folded elements.
    pub fn new(stream: &Stream<T>, flush_every: usize) -> Combiner<T> {
        assert!(flush_every >= 1, "flush_every must be at least 1");
        let nc = stream.channel().consumers().len();
        Combiner {
            slots: (0..nc).map(|_| None).collect(),
            counts: vec![0; nc],
            flush_every: flush_every as u64,
            stats: CombinerStats::default(),
        }
    }

    /// Fold `elem` into the accumulator for `consumer`, emitting the
    /// accumulated element into `stream` once `flush_every` elements have
    /// been merged. `merge(acc, elem)` must be associative with respect
    /// to the consumer's own fold, or the pre-reduction changes the
    /// result.
    pub fn push<TP: Transport>(
        &mut self,
        rank: &mut TP,
        stream: &mut Stream<T>,
        consumer: usize,
        elem: T,
        merge: impl FnOnce(&mut T, T),
    ) {
        self.stats.folded += 1;
        match &mut self.slots[consumer] {
            Some(acc) => merge(acc, elem),
            slot @ None => *slot = Some(elem),
        }
        self.counts[consumer] += 1;
        if self.counts[consumer] >= self.flush_every {
            self.emit(rank, stream, consumer);
        }
    }

    /// Emit every non-empty accumulator into `stream`.
    pub fn flush<TP: Transport>(&mut self, rank: &mut TP, stream: &mut Stream<T>) {
        for c in 0..self.slots.len() {
            if self.slots[c].is_some() {
                self.emit(rank, stream, c);
            }
        }
    }

    /// Flush and consume the combiner, returning its stats. Call before
    /// [`Stream::terminate`] on the underlying stream.
    pub fn finish<TP: Transport>(mut self, rank: &mut TP, stream: &mut Stream<T>) -> CombinerStats {
        self.flush(rank, stream);
        self.stats
    }

    /// Counters so far.
    pub fn stats(&self) -> CombinerStats {
        self.stats
    }

    fn emit<TP: Transport>(&mut self, rank: &mut TP, stream: &mut Stream<T>, consumer: usize) {
        let acc = self.slots[consumer].take().expect("emit of an empty combiner slot");
        self.counts[consumer] = 0;
        self.stats.emitted += 1;
        prof_scoped(rank, "combine", |rank| stream.isend_to(rank, consumer, acc));
    }
}

// ---------------------------------------------------------------------
// Reduction-tree planning
// ---------------------------------------------------------------------

/// One aggregation stage: the participating ranks partitioned into blocks
/// of at most `fan_in`. Each block's **first** member is its
/// representative (the block channel's consumer); the other members
/// stream their partials to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeStage {
    /// Aggregation blocks, in participant order. A singleton block has a
    /// representative and no senders (its partial just carries forward).
    pub blocks: Vec<Vec<usize>>,
}

impl TreeStage {
    /// The representatives, one per block — the next stage's members.
    pub fn receivers(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b[0]).collect()
    }

    /// `(sender, representative)` pairs across all blocks.
    pub fn senders(&self) -> Vec<(usize, usize)> {
        self.blocks.iter().flat_map(|b| b[1..].iter().map(move |&s| (s, b[0]))).collect()
    }

    /// The block containing `rank`, with its index, if `rank` takes part
    /// in this stage.
    pub fn block_of(&self, rank: usize) -> Option<(usize, &[usize])> {
        self.blocks.iter().enumerate().find(|(_, b)| b.contains(&rank)).map(|(i, b)| (i, &b[..]))
    }
}

/// Partition `members` into blocks of at most `fan_in` (a single
/// aggregation stage). `fan_in >= 2`; block representatives keep the
/// member order, so with a sorted member list every representative is the
/// lowest rank of its block.
pub fn plan_stage(members: &[usize], fan_in: usize) -> TreeStage {
    assert!(fan_in >= 2, "a reduction stage needs fan_in >= 2");
    assert!(!members.is_empty(), "a reduction stage needs at least one member");
    TreeStage { blocks: members.chunks(fan_in).map(<[usize]>::to_vec).collect() }
}

/// A full reduction tree over a set of leaf ranks: stages of
/// [`plan_stage`] repeated until a single root remains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreePlan {
    /// Configured fan-in `k`.
    pub fan_in: usize,
    /// Aggregation stages, leaf-most first. Empty when there is only one
    /// leaf.
    pub stages: Vec<TreeStage>,
    /// The single rank holding the fully merged result (`leaves[0]`).
    pub root: usize,
}

impl TreePlan {
    /// A one-stage plan: blocks of `fan_in` with no recursion — the shape
    /// of a streaming aggregator group (e.g. the fig8 I/O writers), where
    /// block representatives keep consuming indefinitely instead of
    /// forwarding a one-shot partial. `root` is the first member, for
    /// [`reduce_through`] compatibility.
    pub fn single_stage(members: &[usize], fan_in: usize) -> TreePlan {
        TreePlan { fan_in, stages: vec![plan_stage(members, fan_in)], root: members[0] }
    }

    /// Whether `rank` ends the reduction holding the merged result.
    pub fn is_root(&self, rank: usize) -> bool {
        self.root == rank
    }

    /// Tree depth in stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Total partial-carrying data messages the reduction will send (one
    /// per sender per stage; `Term` markers double the wire count).
    pub fn data_messages(&self) -> u64 {
        self.stages.iter().map(|s| s.senders().len() as u64).sum()
    }
}

/// Plan a reduction tree over `leaves` with the given fan-in: repeated
/// [`plan_stage`] over the surviving representatives until one root
/// remains. The root is always `leaves[0]`.
pub fn plan_tree(leaves: &[usize], fan_in: usize) -> TreePlan {
    assert!(fan_in >= 2, "a reduction tree needs fan_in >= 2");
    assert!(!leaves.is_empty(), "a reduction tree needs at least one leaf");
    debug_assert!(
        {
            let mut seen = std::collections::BTreeSet::new();
            leaves.iter().all(|&l| seen.insert(l))
        },
        "tree leaves must be distinct ranks"
    );
    let mut stages = Vec::new();
    let mut current: Vec<usize> = leaves.to_vec();
    while current.len() > 1 {
        let stage = plan_stage(&current, fan_in);
        current = stage.receivers();
        stages.push(stage);
    }
    TreePlan { fan_in, stages, root: leaves[0] }
}

// ---------------------------------------------------------------------
// Tree channels and the reduction driver
// ---------------------------------------------------------------------

/// This rank's endpoints on a planned tree: at most one block channel per
/// stage (`None` where the rank does not take part in the stage).
pub struct TreeChannels {
    channels: Vec<Option<StreamChannel>>,
}

impl TreeChannels {
    /// Take the per-stage endpoints out, for callers that drive the block
    /// channels directly (streaming aggregators) instead of through
    /// [`reduce_through`].
    pub fn into_stages(self) -> Vec<Option<StreamChannel>> {
        self.channels
    }
}

/// Collectively create the block channels of `plan`. **Every** rank of
/// `comm` must call this (the per-stage subgroup splits are collective),
/// whether or not it is a tree leaf; non-participants end up with no
/// endpoints. Each block gets its own private channel (senders =
/// producers, representative = consumer), so the whole tree moves one
/// data message and one `Term` per sender — never a quadratic
/// sender × receiver `Term` wave.
///
/// `config` applies to every block channel; `aggregation` is effectively
/// 1 for one-shot reductions (each sender contributes a single partial),
/// but streaming stages (e.g. the fig8 writer group) inherit whatever
/// batching the caller picked.
pub fn create_tree_channels<TP: Transport>(
    rank: &mut TP,
    comm: &TP::Group,
    plan: &TreePlan,
    config: &ChannelConfig,
) -> TreeChannels {
    let me = rank.world_rank();
    let mut channels = Vec::with_capacity(plan.stages.len());
    for stage in &plan.stages {
        // Singleton blocks need no channel: the representative's partial
        // simply survives into the next stage.
        let mine = stage.block_of(me).filter(|(_, b)| b.len() >= 2);
        let color = mine.map(|(i, _)| i as i64);
        let sub = rank.split(comm, color, me as i64);
        channels.push(match (mine, sub) {
            (Some((_, block)), Some(sub)) => {
                let role = if block[0] == me { Role::Consumer } else { Role::Producer };
                Some(StreamChannel::create(rank, &sub, role, config.clone()))
            }
            (None, _) => None,
            (Some(_), None) => unreachable!("colored ranks always get a subgroup"),
        });
    }
    TreeChannels { channels }
}

/// Span names attributing per-stage drain time on a profiled transport.
const STAGE_SPANS: [&str; 16] = [
    "tree-l0", "tree-l1", "tree-l2", "tree-l3", "tree-l4", "tree-l5", "tree-l6", "tree-l7",
    "tree-l8", "tree-l9", "tree-l10", "tree-l11", "tree-l12", "tree-l13", "tree-l14", "tree-l15",
];

/// The streamprof span name of tree stage `i` (stall breakdowns attribute
/// drain time per tree level through these).
pub fn stage_span(i: usize) -> &'static str {
    STAGE_SPANS.get(i).copied().unwrap_or("tree-deep")
}

/// Run the reduction: every tree leaf passes `Some(partial)`; the merged
/// result comes back as `Some` on the plan's root and `None` everywhere
/// else. `merge(rank, acc, incoming)` gets the transport so callers can
/// charge modelled compute per merge.
///
/// Stage walk, per rank: a block *sender* ships its accumulated partial
/// to its representative and is done; a *representative* drains its block
/// channel (under a per-stage profiling span, FCFS over the block) and
/// carries the merged accumulator into the next stage. Ranks of `comm`
/// that are not tree leaves pass `None` and flow straight through.
pub fn reduce_through<TP: Transport, T: Wire + Send + 'static>(
    rank: &mut TP,
    plan: &TreePlan,
    tree: TreeChannels,
    partial: Option<T>,
    mut merge: impl FnMut(&mut TP, &mut T, T),
) -> Option<T> {
    assert_eq!(tree.channels.len(), plan.stages.len(), "tree channels do not match the plan");
    let me = rank.world_rank();
    let mut acc = partial;
    for (i, ch) in tree.channels.into_iter().enumerate() {
        let Some(ch) = ch else { continue };
        match ch.role() {
            Role::Producer => {
                let v = acc.take().expect("a tree sender must hold a partial");
                let mut s: Stream<T> = Stream::attach(ch);
                s.isend_to(rank, 0, v);
                s.terminate(rank);
                s.free(rank);
                // A sender at stage `i` is in no later stage; the
                // remaining entries are `None` by construction.
            }
            Role::Consumer => {
                let mut s: Stream<T> = Stream::attach(ch);
                prof_scoped(rank, stage_span(i), |rank| {
                    s.operate(rank, |rank, incoming| match acc.as_mut() {
                        Some(acc) => merge(rank, acc, incoming),
                        None => acc = Some(incoming),
                    })
                });
                s.free(rank);
            }
            Role::Bystander => unreachable!("block channels have no bystanders"),
        }
    }
    if plan.is_root(me) {
        acc
    } else {
        None
    }
}

/// Plan, create and run a reduction tree in one collective call: every
/// rank of `comm` participates; `leaves` pass `Some(partial)`; the merged
/// result lands on `leaves[0]`.
pub fn tree_reduce<TP: Transport, T: Wire + Send + 'static>(
    rank: &mut TP,
    comm: &TP::Group,
    leaves: &[usize],
    fan_in: usize,
    config: &ChannelConfig,
    partial: Option<T>,
    merge: impl FnMut(&mut TP, &mut T, T),
) -> Option<T> {
    let plan = plan_tree(leaves, fan_in);
    let tree = create_tree_channels(rank, comm, &plan, config);
    reduce_through(rank, &plan, tree, partial, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stage_blocks_and_representatives() {
        let members: Vec<usize> = (10..23).collect(); // 13 members
        let stage = plan_stage(&members, 4);
        assert_eq!(stage.blocks.len(), 4);
        assert_eq!(stage.receivers(), vec![10, 14, 18, 22]);
        // The trailing singleton block has no senders.
        assert_eq!(stage.blocks[3], vec![22]);
        let senders = stage.senders();
        assert_eq!(senders.len(), 13 - 4);
        assert!(senders.contains(&(13, 10)));
        assert!(senders.contains(&(21, 18)));
    }

    #[test]
    fn plan_tree_reduces_to_a_single_root() {
        for n in [1usize, 2, 3, 8, 9, 64, 65, 511] {
            for k in [2usize, 4, 8] {
                let leaves: Vec<usize> = (0..n).collect();
                let plan = plan_tree(&leaves, k);
                assert_eq!(plan.root, 0, "n={n} k={k}");
                // Depth is ceil(log_k n) (0 for a single leaf).
                let mut depth = 0;
                let mut m = n;
                while m > 1 {
                    m = m.div_ceil(k);
                    depth += 1;
                }
                assert_eq!(plan.depth(), depth, "n={n} k={k}");
                // Every leaf but the root sends exactly once in the whole
                // tree, so the data message count is n - 1.
                assert_eq!(plan.data_messages(), n as u64 - 1, "n={n} k={k}");
                // Final stage merges into the root.
                if let Some(last) = plan.stages.last() {
                    assert_eq!(last.receivers(), vec![0]);
                }
            }
        }
    }

    #[test]
    fn plan_tree_keeps_worst_fan_in_bounded() {
        let leaves: Vec<usize> = (0..1000).collect();
        let plan = plan_tree(&leaves, 8);
        for stage in &plan.stages {
            for block in &stage.blocks {
                assert!(block.len() <= 8);
            }
        }
    }

    #[test]
    fn plan_tree_over_sparse_rank_set() {
        // Tree leaves need not be contiguous world ranks (fig5 uses the
        // reduce group's scattered ranks).
        let leaves = vec![3, 7, 11, 15, 19, 23, 27];
        let plan = plan_tree(&leaves, 3);
        assert_eq!(plan.root, 3);
        assert_eq!(plan.stages[0].receivers(), vec![3, 15, 27]);
        assert_eq!(plan.stages[1].receivers(), vec![3]);
        assert_eq!(plan.data_messages(), 6);
    }

    #[test]
    fn stage_span_names_are_stable() {
        assert_eq!(stage_span(0), "tree-l0");
        assert_eq!(stage_span(15), "tree-l15");
        assert_eq!(stage_span(16), "tree-deep");
    }

    #[test]
    fn fold_factor_reports_amortization() {
        let s = CombinerStats { folded: 24, emitted: 3 };
        assert_eq!(s.fold_factor(), 8.0);
        assert_eq!(CombinerStats::default().fold_factor(), 1.0);
    }
}
