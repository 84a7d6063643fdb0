//! MapReduce word histogram (the Fig. 5 case study).
//!
//! Extracts a word histogram over a corpus of log files. Two
//! implementations:
//!
//! - [`run_reference`] — the MPI pattern of Hoefler et al. ("Towards
//!   efficient MapReduce using MPI", cited as \[15\]): every rank maps its
//!   files, then the global key set is agreed with `Iallgatherv` and the
//!   dense count vectors are combined with `Ireduce`.
//! - [`run_decoupled`] — the paper's strategy: a map group streams
//!   intermediate `(word, count)` chunks to a reduce group (keyed
//!   routing); reduce ranks fold the stream on the fly (FCFS) and a master
//!   rank aggregates the per-consumer shards at the end **without** data
//!   aggregation on the way in — reproducing the master-incast uptick at
//!   4,096–8,192 processes the paper reports.
//!
//! Word counts are computed for real: both implementations are verified
//! against [`workloads::Corpus::serial_histogram`].

use std::sync::Arc;

use mpisim::{MachineConfig, Rank, World, WorldOutcome};
use mpistream::{
    create_tree_channels, plan_tree, prof_scoped, reduce_through, ChannelConfig, Combiner,
    GroupSpec, Role, Stream, StreamChannel, Transport, Wire,
};
use pfsim::{Pfs, PfsConfig};
use workloads::{Corpus, CorpusConfig};

/// Tunables of the MapReduce experiment.
#[derive(Clone, Debug)]
pub struct MapReduceConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Filesystem model (the corpus is read through it).
    pub pfs: PfsConfig,
    /// Corpus description. For weak scaling, callers scale `n_files`
    /// with the rank count.
    pub corpus: CorpusConfig,
    /// Map compute cost per nominal input gigabyte (seconds).
    pub map_secs_per_gb: f64,
    /// Modelled wire bytes of one streamed `(word, count)` chunk.
    pub element_bytes: u64,
    /// Tokens per streamed chunk (the actual-side granularity knob).
    pub chunk_tokens: usize,
    /// Decoupled only: one reduce rank per `alpha_every` ranks.
    pub alpha_every: usize,
    /// Modelled bytes of one `(word, count)` pair in exchanges.
    pub pair_bytes: u64,
    /// Nominal-to-actual scale applied to exchanged key/count volumes: the
    /// actual vocabulary is kept small, but the wire sizes of the key-union
    /// allgatherv, the dense reduce and the master flow are scaled up to
    /// paper-scale data volumes.
    pub wire_scale: f64,
    /// Reference only: CPU cost (s per modelled MB) of materialising and
    /// combining the *dense* count vectors the MPI workaround needs —
    /// Hoefler et al. point out that MPI has no variable-sized reduction,
    /// so the reference reduces union-sized dense vectors. The decoupled
    /// reducers fold sparse hash entries instead (the complexity reduction
    /// of §II-E).
    pub dense_fold_secs_per_mb: f64,
    /// Decoupled only: modelled wire size of one folded chunk summary
    /// relayed to the master (much smaller than the raw chunk).
    pub master_element_bytes: u64,
    /// Decoupled only: producer-side combiner — merge this many
    /// same-reducer chunks into one stream element before it enters the
    /// map-output channel (1 = off, the paper's per-chunk flow). Amortizes
    /// the per-message overhead `o` of Eq. 4 across `combine_every`
    /// chunks.
    pub combine_every: usize,
    /// Decoupled only: interpose a reduction tree with this fan-in
    /// between the local reducers and the master (None = the paper's flat
    /// reducer → master incast). Each reducer's folded shard climbs
    /// `ceil(log_k nr)` aggregation stages, so the master drains at most
    /// one pre-merged shard instead of every reducer's chunk stream.
    pub tree_fan_in: Option<usize>,
    /// RNG seed for the world.
    pub seed: u64,
}

impl Default for MapReduceConfig {
    fn default() -> Self {
        MapReduceConfig {
            machine: MachineConfig::default(),
            pfs: PfsConfig { n_ost: 160, ..PfsConfig::default() },
            corpus: CorpusConfig::default(),
            map_secs_per_gb: 4.0,
            element_bytes: 64 << 10,
            chunk_tokens: 256,
            alpha_every: 16,
            pair_bytes: 8,
            wire_scale: 64.0,
            dense_fold_secs_per_mb: 0.02,
            master_element_bytes: 8 << 10,
            combine_every: 1,
            tree_fan_in: None,
            seed: 0xFEED,
        }
    }
}

/// Result of one MapReduce run.
pub struct MapReduceResult {
    pub outcome: WorldOutcome,
    /// The computed histogram (indexed by word id), as assembled at the
    /// root/master rank.
    pub histogram: Vec<u64>,
    /// Virtual time at which the *last* mapper finished streaming its
    /// output (decoupled runs only; 0 for the reference).
    pub map_done_secs: f64,
    /// Pipeline-flush tail: elapsed minus [`Self::map_done_secs`] — how
    /// long the reduce/master side needed to drain after the last map
    /// output entered the pipeline. The master incast lives here, which
    /// makes it the discriminating metric for the aggregation operators.
    pub master_drain_secs: f64,
}

/// One chunk's partial counts: its distinct words in ascending order, each
/// with its number of occurrences. A sort of the chunk's words and a
/// run-length pass — no hashing, so nothing here depends on a per-process
/// hash key. When every word is below 2¹⁶ (the Fig. 5 vocabulary is
/// 20,000 words) the sort is a two-pass LSD radix sort, one byte a pass;
/// otherwise a comparison sort. Both work inside the returned vector.
pub(crate) fn count_words(tokens: impl IntoIterator<Item = u32>) -> KvChunk {
    // Each entry starts as `(scratch, word)`; the sort leaves the words in
    // order in `.1`, and the run-length pass rewrites the front of the
    // vector into `(word, count)` pairs.
    let mut pairs: KvChunk = tokens.into_iter().map(|w| (0, w)).collect();
    let (mut low, mut high, mut max) = ([0u32; 256], [0u32; 256], 0);
    for &(_, w) in &pairs {
        low[w as usize % 256] += 1;
        high[w as usize / 256 % 256] += 1;
        max = max.max(w);
    }
    if max < 1 << 16 {
        // Stable scatter by the low byte into `.0`, then by the high byte
        // back into `.1`: each pass reads one field and writes the other.
        exclusive_prefix_sums(&mut low);
        exclusive_prefix_sums(&mut high[..=max as usize / 256]);
        for i in 0..pairs.len() {
            let w = pairs[i].1;
            let slot = &mut low[w as usize % 256];
            pairs[*slot as usize].0 = w;
            *slot += 1;
        }
        for i in 0..pairs.len() {
            let w = pairs[i].0;
            let slot = &mut high[w as usize / 256];
            pairs[*slot as usize].1 = w;
            *slot += 1;
        }
    } else {
        pairs.sort_unstable_by_key(|&(_, w)| w);
    }
    let mut len = 0;
    for i in 0..pairs.len() {
        let w = pairs[i].1;
        if len > 0 && pairs[len - 1].0 == w {
            pairs[len - 1].1 += 1;
        } else {
            pairs[len] = (w, 1);
            len += 1;
        }
    }
    pairs.truncate(len);
    pairs
}

/// Turn a radix pass's digit counts into each digit's first slot in the
/// digit-sorted order.
fn exclusive_prefix_sums(counts: &mut [u32]) {
    let mut total = 0;
    for c in counts {
        (*c, total) = (total, total + *c);
    }
}

/// The sorted `(word, count)` pairs of a word-indexed count table.
fn nonzero(counts: &[u64]) -> impl Iterator<Item = (u32, u64)> + '_ {
    counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(w, &c)| (w as u32, c))
}

/// Map one file's tokens into a local histogram, charging compute in
/// chunk-sized slices so the data flow (in the decoupled version) is
/// spread over the execution. `emit` is called once per chunk with the
/// chunk's partial counts.
fn map_file<'w>(
    rank: &mut Rank<'w>,
    corpus: &Corpus,
    file: &workloads::FileSpec,
    cfg: &MapReduceConfig,
    pfs: &Pfs,
    emit: &mut dyn FnMut(&mut Rank<'w>, KvChunk),
) {
    // Drawn a chunk at a time, straight into the chunk's counts.
    let mut tokens = corpus.tokens_of(file);
    let chunks = file.tokens.div_ceil(cfg.chunk_tokens);
    let bytes_per_chunk = file.bytes / chunks.max(1) as u64;
    let secs_per_chunk = cfg.map_secs_per_gb * bytes_per_chunk as f64 / (1u64 << 30) as f64;
    for _ in 0..chunks {
        // Read this slice of the file, then count its words (really).
        pfs.read_striped(rank.ctx(), bytes_per_chunk);
        rank.compute(secs_per_chunk);
        emit(rank, count_words(tokens.by_ref().take(cfg.chunk_tokens)));
    }
}

/// Reference implementation: map everywhere, then
/// `Iallgatherv` (key union) + `Ireduce` (dense counts).
pub fn run_reference(nprocs: usize, cfg: &MapReduceConfig) -> MapReduceResult {
    let corpus = Arc::new(Corpus::new(cfg.corpus.clone()));
    let pfs = Pfs::new(cfg.pfs.clone());

    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let cfg2 = cfg.clone();
    let (corpus2, pfs2) = (corpus, pfs);
    let (outcome, per_rank) = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        // --- map phase: local histogram over my files ---
        let mut local = vec![0u64; corpus2.vocab()];
        for file in corpus2.files_for(me, nprocs) {
            map_file(rank, &corpus2, &file, &cfg2, &pfs2, &mut |_rank, pairs| {
                for (w, c) in pairs {
                    local[w as usize] += c as u64;
                }
            });
        }
        // --- key union: allgatherv of local key sets ---
        let my_keys: Vec<u32> = nonzero(&local).map(|(w, _)| w).collect();
        let key_bytes = (my_keys.len() as f64 * 4.0 * cfg2.wire_scale) as u64;
        let req = rank.iallgatherv_start(&comm, key_bytes, my_keys);
        let key_sets = rank.iallgatherv_wait::<Vec<u32>>(req);
        let mut global_keys: Vec<u32> = key_sets.into_iter().flatten().collect();
        global_keys.sort_unstable();
        global_keys.dedup();
        // --- dense reduce over the agreed key order ---
        let dense: Vec<u64> = global_keys.iter().map(|&k| local[k as usize]).collect();
        let dense_bytes = (dense.len() as f64 * cfg2.pair_bytes as f64 * cfg2.wire_scale) as u64;
        // Materialising the union-sized dense vector and combining it
        // along the tree is real CPU work proportional to its size
        // (construction + the expected ~1.5 combines per rank).
        rank.compute(dense_bytes as f64 / 1e6 * cfg2.dense_fold_secs_per_mb * 2.5);
        let req = rank.ireduce_start(&comm, dense_bytes, dense);
        let summed = rank.ireduce_wait(req, |a: &mut Vec<u64>, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        });
        summed.map(|summed| {
            // Root re-expands to a vocabulary-indexed histogram.
            let mut hist = vec![0u64; corpus2.vocab()];
            for (k, v) in global_keys.iter().zip(summed) {
                hist[*k as usize] = v;
            }
            hist
        })
    });

    let histogram =
        per_rank.into_iter().flatten().next().expect("the root assembles the histogram");
    MapReduceResult { outcome, histogram, map_done_secs: 0.0, master_drain_secs: 0.0 }
}

/// A streamed chunk of intermediate map output: sorted `(word, count)`
/// pairs.
pub type KvChunk = Vec<(u32, u32)>;

/// Partition one map chunk among `nc` local reducers: part `i` holds the
/// pairs whose word `w % nc == i`, in the chunk's word order. With one
/// reducer the chunk itself is the only part, moved, not copied;
/// otherwise a counting pass sizes each part exactly and one pass fills
/// them, so no part grows.
pub fn split_by_reducer(pairs: KvChunk, nc: usize) -> Vec<KvChunk> {
    if nc == 1 {
        return vec![pairs];
    }
    let mut sizes = vec![0usize; nc];
    for &(w, _) in &pairs {
        sizes[w as usize % nc] += 1;
    }
    let mut parts: Vec<KvChunk> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (w, c) in pairs {
        parts[w as usize % nc].push((w, c));
    }
    parts
}

/// A folded histogram shard climbing the reduction tree (sorted by word).
pub(crate) type Shard = Vec<(u32, u64)>;

/// Merge `other` into `acc` (both sorted by key), summing counts of
/// duplicate keys. The associative merge behind both the mapper-side
/// combiner and the reduction-tree stages.
pub(crate) fn merge_sorted<C: Copy + std::ops::AddAssign>(
    acc: &mut Vec<(u32, C)>,
    other: Vec<(u32, C)>,
) {
    let a = std::mem::take(acc);
    let mut out = Vec::with_capacity(a.len() + other.len());
    let mut a = a.into_iter().peekable();
    let mut b = other.into_iter().peekable();
    loop {
        match (a.peek().copied(), b.peek().copied()) {
            (Some((ka, va)), Some((kb, vb))) => {
                if ka < kb {
                    out.push((ka, va));
                    a.next();
                } else if kb < ka {
                    out.push((kb, vb));
                    b.next();
                } else {
                    let mut v = va;
                    v += vb;
                    out.push((ka, v));
                    a.next();
                    b.next();
                }
            }
            (Some(x), None) => {
                out.push(x);
                a.next();
            }
            (None, Some(x)) => {
                out.push(x);
                b.next();
            }
            (None, None) => break,
        }
    }
    *acc = out;
}

/// The local reducer's kernel: fold arriving chunks FCFS into the
/// word-indexed `local` histogram and forward each chunk to the master —
/// deliberately unaggregated, per the paper.
fn reduce_fold<TP: Transport>(
    rank: &mut TP,
    input: &mut Stream<KvChunk>,
    mut to_master: Option<&mut Stream<KvChunk>>,
    local: &mut [u64],
) {
    input.operate(rank, |rank, chunk| {
        prof_scoped(rank, "reduce", |rank| {
            // Sparse fold: cheap per pair.
            rank.compute(chunk.len() as f64 * 100e-9);
            for &(w, c) in &chunk {
                local[w as usize] += c as u64;
            }
            if let Some(m) = to_master.as_mut() {
                m.isend_to(rank, 0, chunk);
            }
        });
    });
}

/// The master's kernel: aggregate what reaches it — the flat incast's
/// stream of unaggregated per-chunk updates (`u32` counts), or the single
/// pre-merged shard of the tree root (`u64`) — into a dense histogram.
fn master_aggregate<TP: Transport, C: Into<u64> + Send + 'static>(
    rank: &mut TP,
    channel: StreamChannel,
    hist: &mut [u64],
) where
    Vec<(u32, C)>: Wire,
{
    Stream::<Vec<(u32, C)>>::attach(channel).operate(rank, |rank, chunk| {
        prof_scoped(rank, "master", |rank| {
            rank.compute(chunk.len() as f64 * 100e-9);
            for (w, c) in chunk {
                hist[w as usize] += c.into();
            }
        });
    });
}

/// Everything about the Fig. 5 dataflow that is not its input: the shape
/// [`decoupled_rank`] builds, as plain data.
#[derive(Clone, Debug)]
pub struct DecoupledShape {
    /// One reduce rank per `every` ranks (the paper's `alpha`).
    pub every: usize,
    /// Word-id space: the length of the master's histogram.
    pub vocab: usize,
    /// The map-output channel, mappers → local reducers.
    pub map_output: ChannelConfig,
    /// The flat reducers → master relay.
    pub to_master: ChannelConfig,
    /// Every reduction-tree stage and the tree root → master link.
    pub tree: ChannelConfig,
    /// Producer-side combiner ([`MapReduceConfig::combine_every`]).
    pub combine_every: usize,
    /// Reduction tree ([`MapReduceConfig::tree_fan_in`]).
    pub tree_fan_in: Option<usize>,
}

/// One rank of the decoupled implementation (§IV-B of the paper, its
/// Fig. 5), generic over the transport: a map group streams intermediate
/// `(word, count)` chunks to a group of local reducers (keyed routing over
/// the word space); the local reducers fold arriving chunks on the fly
/// (FCFS) **and** forward their per-chunk results to a master rank
/// *without data aggregation* — the unoptimized intra-group flow the
/// paper calls out as the cause of master congestion at 4,096–8,192
/// processes. Returns `Some(histogram)` on the master, `None` elsewhere.
///
/// The input is the caller's: on mapper `mapper_index` of `n_mappers`,
/// `map(rank, mapper_index, n_mappers, emit)` runs once and calls `emit`
/// with each chunk's sorted pairs.
pub fn decoupled_rank<TP: Transport>(
    rank: &mut TP,
    shape: &DecoupledShape,
    map: impl FnOnce(&mut TP, usize, usize, &mut dyn FnMut(&mut TP, KvChunk)),
) -> Option<Vec<u64>> {
    let nprocs = rank.world_size();
    assert!(nprocs >= shape.every, "need at least {} ranks for alpha = 1/{0}", shape.every);
    let comm = rank.world_group();
    let spec = GroupSpec { every: shape.every };
    let me = rank.world_rank();
    let my_role = spec.role_of(me);
    // The reduce group's highest rank serves as the master aggregator
    // (it does not consume map output unless it is the only reducer).
    let (map_ranks, reduce_ranks) = spec.members(nprocs);
    let master = *reduce_ranks.last().expect("at least one reducer");
    let solo_reducer = reduce_ranks.len() == 1;
    let local_reducers: Vec<usize> =
        reduce_ranks.iter().copied().filter(|&r| solo_reducer || r != master).collect();
    // Optional reduction tree over the local reducers (a solo reducer
    // is its own master — nothing to aggregate).
    let tree_plan =
        if solo_reducer { None } else { shape.tree_fan_in.map(|k| plan_tree(&local_reducers, k)) };

    // Channel 1: map group -> local reducers.
    let ch1_role = match my_role {
        Role::Producer => Role::Producer,
        Role::Consumer if me == master && !solo_reducer => Role::Bystander,
        Role::Consumer => Role::Consumer,
        Role::Bystander => unreachable!(),
    };
    let ch1 = StreamChannel::create(rank, &comm, ch1_role, shape.map_output.clone());
    // Channel 2: local reducers -> master (absent when solo). In tree
    // mode only the tree root produces — the other reducers' shards
    // reach the master through it.
    let ch2 = (!solo_reducer).then(|| {
        let role = match (&tree_plan, my_role) {
            (_, Role::Consumer) if me == master => Role::Consumer,
            (Some(plan), _) if plan.is_root(me) => Role::Producer,
            (None, Role::Consumer) => Role::Producer,
            _ => Role::Bystander,
        };
        let config = if tree_plan.is_some() { &shape.tree } else { &shape.to_master };
        StreamChannel::create(rank, &comm, role, config.clone())
    });
    // Tree-stage block channels (collective: every rank takes part in
    // the per-stage subgroup splits, mappers and master end up with no
    // endpoints).
    let tree = tree_plan.as_ref().map(|plan| create_tree_channels(rank, &comm, plan, &shape.tree));

    match ch1_role {
        Role::Producer => {
            // Map rank: stream each chunk's pairs, partitioned by the
            // owning local reducer.
            let mut stream: Stream<KvChunk> = Stream::attach(ch1);
            let mi = map_ranks.iter().position(|&r| r == me).expect("mapper");
            let nc = stream.channel().consumers().len();
            // Optional producer-side combiner: pre-merge chunks bound
            // for the same reducer so the channel carries one element
            // per `combine_every` chunks.
            let mut comb =
                (shape.combine_every > 1).then(|| Combiner::new(&stream, shape.combine_every));
            map(rank, mi, map_ranks.len(), &mut |rank, pairs| {
                for (ci, part) in split_by_reducer(pairs, nc).into_iter().enumerate() {
                    if part.is_empty() {
                        continue;
                    }
                    match comb.as_mut() {
                        Some(comb) => comb.push(rank, &mut stream, ci, part, merge_sorted),
                        None => stream.isend_to(rank, ci, part),
                    }
                }
            });
            if let Some(comb) = comb {
                comb.finish(rank, &mut stream);
            }
            stream.terminate(rank);
            None
        }
        Role::Consumer => {
            let mut input: Stream<KvChunk> = Stream::attach(ch1);
            let mut local = vec![0u64; shape.vocab];
            if let (Some(plan), Some(tree)) = (tree_plan.as_ref(), tree) {
                // Tree mode: fold the map stream locally (nothing is
                // forwarded per chunk), then climb the reduction tree
                // with the folded shard; only the tree root talks to
                // the master — with a single pre-merged shard.
                reduce_fold(rank, &mut input, None, &mut local);
                let shard: Shard = nonzero(&local).collect();
                let merged = reduce_through(rank, plan, tree, Some(shard), |rank, acc, other| {
                    rank.compute(other.len() as f64 * 100e-9);
                    merge_sorted(acc, other);
                });
                if let Some(shard) = merged {
                    let mut m: Stream<Shard> =
                        Stream::attach(ch2.expect("tree root has the master channel"));
                    m.isend_to(rank, 0, shard);
                    m.terminate(rank);
                }
                return None;
            }
            // Paper baseline: fold arriving chunks FCFS and forward
            // each folded chunk to the master without aggregation.
            let mut to_master: Option<Stream<KvChunk>> = ch2.map(Stream::attach);
            reduce_fold(rank, &mut input, to_master.as_mut(), &mut local);
            if let Some(mut m) = to_master {
                m.terminate(rank);
                return None;
            }
            // Solo reducer: it *is* the master.
            Some(local)
        }
        Role::Bystander => {
            let ch2 = ch2.expect("master has the reducer channel");
            let mut hist = vec![0u64; shape.vocab];
            if tree_plan.is_some() {
                master_aggregate::<_, u64>(rank, ch2, &mut hist);
            } else {
                master_aggregate::<_, u32>(rank, ch2, &mut hist);
            }
            Some(hist)
        }
    }
}

/// The [`DecoupledShape`] of the Fig. 5 experiment: three default
/// channels that differ in their modelled element size.
fn shape_of(cfg: &MapReduceConfig) -> DecoupledShape {
    let sized = |element_bytes| ChannelConfig { element_bytes, ..ChannelConfig::default() };
    // A merged shard covers the whole vocabulary in the worst case;
    // model every tree (and tree-root → master) element at that full
    // size rather than flattering the tree with per-stage estimates.
    let shard_bytes = (cfg.corpus.vocab as f64 * cfg.pair_bytes as f64 * cfg.wire_scale) as u64;
    DecoupledShape {
        every: cfg.alpha_every,
        vocab: cfg.corpus.vocab,
        map_output: sized(cfg.element_bytes),
        to_master: sized(cfg.master_element_bytes),
        tree: sized(shard_bytes),
        combine_every: cfg.combine_every,
        tree_fan_in: cfg.tree_fan_in,
    }
}

/// Decoupled implementation on the simulator: [`decoupled_rank`] over the
/// corpus, each mapper reading its files through the `pfsim` model.
pub fn run_decoupled(nprocs: usize, cfg: &MapReduceConfig) -> MapReduceResult {
    let corpus = Arc::new(Corpus::new(cfg.corpus.clone()));
    let pfs = Pfs::new(cfg.pfs.clone());

    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let (cfg2, shape) = (cfg.clone(), shape_of(cfg));
    let (outcome, per_rank) = world.run_expect(nprocs, move |rank| {
        let mut mapped = false;
        let hist = decoupled_rank(rank, &shape, |rank, mi, nmap, emit| {
            for file in corpus.files_for(mi, nmap) {
                map_file(rank, &corpus, &file, &cfg2, &pfs, emit);
            }
            mapped = true;
        });
        // A mapper's finish time (nothing after the map stream's
        // `terminate` advanced this rank's clock).
        let map_done = mapped.then(|| Transport::now(rank).as_secs_f64());
        (map_done, hist)
    });

    // Everything after the last mapper finished is pipeline flush (the
    // drain tail).
    let map_done_secs = per_rank.iter().filter_map(|(done, _)| *done).fold(0.0, |latest, done| {
        if done > latest {
            done
        } else {
            latest
        }
    });
    let histogram = per_rank
        .into_iter()
        .find_map(|(_, hist)| hist)
        .expect("the master assembles the histogram");
    let master_drain_secs = (outcome.elapsed_secs() - map_done_secs).max(0.0);
    MapReduceResult { outcome, histogram, map_done_secs, master_drain_secs }
}

/// The decoupled run's communication topology (the paper's Fig. 5 shape),
/// declared for the `streamcheck` static pass. Mirrors exactly what
/// [`decoupled_rank`] builds from the same [`DecoupledShape`]: mappers stream keyed word chunks to the local
/// reducers (`word % nc` partitioning), which forward folded chunks to the
/// master — the reduce group's highest rank — unless a solo reducer is
/// its own master.
pub fn topology(nprocs: usize, cfg: &MapReduceConfig) -> streamcheck::Topology {
    use streamcheck::{ChannelDecl, GroupDecl, Topology};
    let (mappers, reducers) = GroupSpec { every: cfg.alpha_every }.members(nprocs);
    let master = *reducers.last().expect("at least one reducer");
    let solo = reducers.len() == 1;
    let local: Vec<usize> = if solo {
        reducers.clone()
    } else {
        reducers.iter().copied().filter(|&r| r != master).collect()
    };
    let nc = local.len();
    let shape = shape_of(cfg);
    let mut topo = Topology::new(nprocs)
        .group(GroupDecl::new("map", mappers.clone()))
        .group(GroupDecl::new("reduce", reducers))
        .channel(
            ChannelDecl::new("map-output", mappers, local.clone(), shape.map_output)
                // Word-space partitioning: bucket `w % nc` -> local reducer.
                .keyed((0..nc).map(Some).collect()),
        );
    if !solo {
        if let Some(k) = cfg.tree_fan_in {
            // Tree mode: one private channel per aggregation block, then a
            // single root → master link. Mirrors `create_tree_channels`.
            let plan = plan_tree(&local, k);
            for (si, stage) in plan.stages.iter().enumerate() {
                for (bi, block) in stage.blocks.iter().enumerate() {
                    if block.len() < 2 {
                        continue;
                    }
                    topo = topo.channel(
                        ChannelDecl::new(
                            format!("tree-s{si}-b{bi}"),
                            block[1..].to_vec(),
                            vec![block[0]],
                            shape.tree.clone(),
                        )
                        .keyed(vec![Some(0)]),
                    );
                }
            }
            topo = topo.channel(
                ChannelDecl::new("reduce-to-master", vec![plan.root], vec![master], shape.tree)
                    .keyed(vec![Some(0)]),
            );
        } else {
            topo = topo.channel(
                ChannelDecl::new("reduce-to-master", local, vec![master], shape.to_master)
                    .keyed(vec![Some(0)]),
            );
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::NoiseModel;
    use proptest::prelude::*;

    fn small_cfg(n_files: usize) -> MapReduceConfig {
        MapReduceConfig {
            corpus: CorpusConfig {
                n_files,
                vocab: 500,
                tokens_per_gb: 2_000,
                min_file_bytes: 8 << 20,
                max_file_bytes: 64 << 20,
                ..CorpusConfig::default()
            },
            machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
            chunk_tokens: 64,
            alpha_every: 4,
            ..MapReduceConfig::default()
        }
    }

    #[test]
    fn reference_histogram_matches_serial_oracle() {
        let cfg = small_cfg(12);
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_reference(6, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    #[test]
    fn decoupled_histogram_matches_serial_oracle() {
        let cfg = small_cfg(12);
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_decoupled(8, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    #[test]
    fn decoupled_with_solo_reducer_matches_oracle() {
        // every=4 at P=4: exactly one reducer, which doubles as master.
        let cfg = small_cfg(9);
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_decoupled(4, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    #[test]
    fn both_implementations_agree_across_sizes() {
        for (nprocs, files) in [(8usize, 5usize), (12, 20), (16, 16)] {
            let cfg = small_cfg(files);
            let a = run_reference(nprocs, &cfg);
            let b = run_decoupled(nprocs, &cfg);
            assert_eq!(a.histogram, b.histogram, "P={nprocs} files={files}");
        }
    }

    #[test]
    fn reference_on_one_rank_is_a_serial_run() {
        let cfg = small_cfg(3);
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_reference(1, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    /// A chunk's counts the way `map_file` built them before ISSUE 24:
    /// hash, collect, sort. The sort makes hash order unobservable.
    #[allow(clippy::disallowed_types)]
    fn count_words_by_hashing(chunk: &[u32]) -> KvChunk {
        let mut partial = std::collections::HashMap::new();
        for &t in chunk {
            *partial.entry(t).or_insert(0) += 1;
        }
        let mut pairs: KvChunk = partial.into_iter().collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn count_words_equals_the_hashed_chunk() {
        let zipf = Corpus::new(small_cfg(3).corpus);
        let zipf: Vec<u32> = zipf.files().iter().flat_map(|f| zipf.tokens_of(f)).collect();
        assert!(!zipf.len().is_multiple_of(128), "the last chunk is meant to be a short one");
        let all_equal = [7u32; 128];
        let all_distinct: Vec<u32> = (0..128u32).rev().map(|i| i * 7_919 % 20_000).collect();
        // One high byte, so the radix sort's second pass moves nothing.
        let one_high_byte: Vec<u32> = (0..128u32).rev().collect();
        // Words below 2^16 and just above it: the comparison-sort path.
        let mixed: Vec<u32> = (0..128u32)
            .map(|i| [i % 7, 0xffff - i % 3, 0x1_0000 + i % 4, 0x1_0100 - i % 2][i as usize % 4])
            .collect();
        let slices = zipf.chunks(128).chain([
            &all_equal[..],
            &all_distinct[..],
            &one_high_byte[..],
            &mixed[..],
            &[][..],
            &[u32::MAX][..],
        ]);
        for chunk in slices {
            let pairs = count_words(chunk.iter().copied());
            assert_eq!(pairs, count_words_by_hashing(chunk));
            assert_eq!(pairs.iter().map(|&(_, c)| c as usize).sum::<usize>(), chunk.len());
        }
        assert_eq!(count_words(all_equal), vec![(7, 128)]);
    }

    /// How the mapper partitioned a chunk before `split_by_reducer`: one
    /// growing part per reducer, pair by pair.
    fn split_pair_by_pair(pairs: KvChunk, nc: usize) -> Vec<KvChunk> {
        let mut by_consumer: Vec<KvChunk> = vec![Vec::new(); nc];
        for (w, c) in pairs {
            by_consumer[w as usize % nc].push((w, c));
        }
        by_consumer
    }

    /// A map chunk as `count_words` emits it: distinct words, ascending.
    fn sorted_chunk() -> impl Strategy<Value = KvChunk> {
        prop::collection::vec((any::<u32>(), 1u32..1_000), 0..200).prop_map(|mut pairs| {
            pairs.sort_unstable();
            pairs.dedup_by_key(|&mut (w, _)| w);
            pairs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn split_by_reducer_partitions_by_word(
            pairs in prop_oneof![1 => Just(KvChunk::new()), 9 => sorted_chunk()],
        ) {
            for nc in [1usize, 2, 3, 7, 16] {
                let old = split_pair_by_pair(pairs.clone(), nc);
                let input = pairs.clone();
                let at = input.as_ptr();
                let parts = split_by_reducer(input, nc);
                if nc == 1 {
                    prop_assert_eq!(parts[0].as_ptr(), at, "one reducer gets the chunk itself");
                }
                prop_assert_eq!(&parts, &old, "nc = {}", nc);
                for (i, part) in parts.iter().enumerate() {
                    prop_assert!(part.iter().all(|&(w, _)| w as usize % nc == i));
                    prop_assert!(part.windows(2).all(|p| p[0].0 < p[1].0), "part {} unsorted", i);
                }
                let mut all = parts.concat();
                all.sort_unstable();
                prop_assert_eq!(&all, &pairs, "the parts are a permutation of the chunk");
            }
        }
    }

    #[test]
    fn merge_sorted_sums_duplicates_and_keeps_order() {
        let mut acc: Vec<(u32, u64)> = vec![(1, 2), (3, 4), (9, 1)];
        merge_sorted(&mut acc, vec![(0, 1), (3, 6), (9, 9), (12, 2)]);
        assert_eq!(acc, vec![(0, 1), (1, 2), (3, 10), (9, 10), (12, 2)]);
        let mut empty: Vec<(u32, u64)> = Vec::new();
        merge_sorted(&mut empty, vec![(5, 5)]);
        assert_eq!(empty, vec![(5, 5)]);
        merge_sorted(&mut empty, Vec::new());
        assert_eq!(empty, vec![(5, 5)]);
    }

    #[test]
    fn combiner_mode_matches_oracle() {
        let cfg = MapReduceConfig { combine_every: 4, ..small_cfg(12) };
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_decoupled(8, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    #[test]
    fn tree_mode_matches_oracle_at_various_fan_ins() {
        // every=4 at P=16: reducers {3,7,11,15}, master 15, three local
        // reducers climbing the tree. Also a deeper shape at P=32.
        for (nprocs, k) in [(16usize, 2usize), (16, 3), (32, 2), (32, 4)] {
            let cfg = MapReduceConfig { tree_fan_in: Some(k), ..small_cfg(12) };
            let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
            let res = run_decoupled(nprocs, &cfg);
            assert_eq!(res.histogram, oracle, "P={nprocs} k={k}");
        }
    }

    #[test]
    fn combined_operators_match_oracle() {
        let cfg = MapReduceConfig { combine_every: 4, tree_fan_in: Some(2), ..small_cfg(16) };
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_decoupled(16, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    #[test]
    fn tree_mode_with_solo_reducer_falls_back_cleanly() {
        // A solo reducer is its own master: tree_fan_in must be a no-op.
        let cfg = MapReduceConfig { tree_fan_in: Some(4), ..small_cfg(9) };
        let oracle = Corpus::new(cfg.corpus.clone()).serial_histogram();
        let res = run_decoupled(4, &cfg);
        assert_eq!(res.histogram, oracle);
    }

    #[test]
    fn drain_metric_splits_elapsed_at_the_last_mapper() {
        let cfg = small_cfg(12);
        let res = run_decoupled(8, &cfg);
        assert!(res.map_done_secs > 0.0);
        assert!(res.master_drain_secs >= 0.0);
        let total = res.outcome.elapsed_secs();
        assert!(
            (res.map_done_secs + res.master_drain_secs - total).abs() < 1e-9,
            "metric must partition elapsed time"
        );
    }

    #[test]
    fn decoupled_wins_when_the_reduce_phase_matters() {
        // Miniature of the paper's setting: the exchanged key volume is
        // large relative to the map time (wire_scale lifts the actual
        // 500-word vocabulary to paper-scale data volumes). The decoupled
        // run pipelines the reduce away; the reference pays it after the
        // map phase.
        let cfg = MapReduceConfig {
            wire_scale: 40_000.0,
            corpus: CorpusConfig {
                // LCM-friendly: 224 = 7 x 32 mappers (reference) and
                // 8 x 28 mappers (decoupled), so file-count imbalance does
                // not mask the reduce-phase effect under study.
                n_files: 224,
                vocab: 500,
                tokens_per_gb: 2_000,
                min_file_bytes: 8 << 20,
                max_file_bytes: 64 << 20,
                ..CorpusConfig::default()
            },
            machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
            chunk_tokens: 64,
            alpha_every: 8,
            ..MapReduceConfig::default()
        };
        let t_ref = run_reference(32, &cfg).outcome.elapsed_secs();
        let t_dec = run_decoupled(32, &cfg).outcome.elapsed_secs();
        assert!(t_dec < t_ref, "decoupled ({t_dec}) should beat reference ({t_ref}) at P=32");
    }
}
