//! Mini-iPIC3D: the particle-in-cell case study (Fig. 2, 7 and 8).
//!
//! A particle code on a periodic unit cube with a GEM-like current-sheet
//! particle distribution (skewed across ranks, dynamically migrating).
//! Only the parts the paper evaluates are implemented in full:
//!
//! **Particle communication** (Fig. 7):
//! - [`run_comm_reference`] — the iPIC3D scheme: each round, every rank
//!   forwards exiting particles one hop towards their destination through
//!   its six Cartesian neighbours, then a global allreduce decides whether
//!   any particles are still travelling. Worst case `ΣDimᵢ` rounds; one
//!   collective per round, every step.
//! - [`run_comm_decoupled`] — the paper's strategy: compute ranks stream
//!   exiting particles to a decoupled group, which aggregates them by
//!   destination and forwards each bundle in one pass — at most two hops
//!   per particle and no global collectives.
//!
//! **Particle I/O** (Fig. 8):
//! - [`run_io_reference`] with [`IoMode::Collective`] —
//!   `MPI_File_write_all` flavour: per dump, a count allgatherv
//!   (displacements), a file-view redefinition at the metadata server, a
//!   striped write and a closing barrier.
//! - [`run_io_reference`] with [`IoMode::Shared`] —
//!   `MPI_File_write_shared` flavour: every rank writes through the
//!   shared file pointer; writers serialize.
//! - [`run_io_decoupled`] — particles stream to an I/O group that buffers
//!   aggressively and flushes large striped writes, overlapping compute.
//!
//! Particles are real (positions and velocities are advanced and
//! ownership is asserted); the *nominal* particle count per rank drives
//! the compute/wire/IO cost models at paper scale.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpisim::{MachineConfig, Rank, World, WorldOutcome};
use mpistream::{
    create_tree_channels, dims_create, operate2, plan_stage, prof_scoped, Cart, ChannelConfig,
    GroupSpec, Role, Stream, StreamChannel, Transport, TreePlan, Wait,
};
use pfsim::{Pfs, PfsConfig};
use workloads::particles::{advance, Particle, ParticleConfig};

/// Tunables of the PIC experiments.
#[derive(Clone, Debug)]
pub struct PicConfig {
    pub machine: MachineConfig,
    pub seed: u64,
    /// Nominal particles per rank (the paper: ~2×10⁹ / 8192 ≈ 244k).
    pub nominal_per_rank: f64,
    /// Actual in-memory particles per rank (kept small for big worlds).
    pub actual_per_rank: usize,
    /// Mover cost: flops per (nominal) particle per step.
    pub mover_flops_per_particle: f64,
    /// Transient per-rank, per-step variability of the mover
    /// (coefficient of variation of a mean-1 log-normal). Models the
    /// unpredictable per-step cost swings of particle work — sorting,
    /// cache behaviour, locally varying field gathers — on top of the
    /// static sheet skew. This is the variance the decoupling strategy
    /// absorbs: a global collective waits for the slowest of `P` draws
    /// every round, a local protocol only for the slowest neighbour.
    pub mover_step_cv: f64,
    /// Effective flop rate per rank.
    pub flop_rate: f64,
    /// Time step (controls the exiting fraction).
    pub dt: f64,
    /// Number of simulation steps.
    pub iterations: usize,
    /// Particle distribution (current-sheet skew).
    pub particle: ParticleConfig,
    /// Decoupled variants: one decoupled rank per `alpha_every`.
    pub alpha_every: usize,
    /// Nominal wire/disk bytes of one nominal particle.
    pub particle_bytes: u64,
    /// Filesystem model (I/O experiments only).
    pub pfs: PfsConfig,
    /// Decoupled I/O: flush threshold of the I/O-group buffer.
    pub io_buffer_bytes: u64,
    /// Decoupled I/O: aggregate the I/O group into writer blocks of this
    /// fan-in (k ≥ 2). Only block representatives open and write the
    /// file; the other io ranks buffer their particle share and spill
    /// byte bundles to their writer — collapsing the `O(αP)` serialized
    /// metadata opens and letting writers cross the flush threshold
    /// mid-run instead of draining one unoverlapped buffer each at the
    /// end. None = every io rank writes (the paper's flat shape).
    pub io_writer_fan_in: Option<usize>,
}

impl Default for PicConfig {
    fn default() -> Self {
        PicConfig {
            machine: MachineConfig::default(),
            seed: 0x91C,
            nominal_per_rank: 244_000.0,
            actual_per_rank: 192,
            mover_flops_per_particle: 400.0,
            mover_step_cv: 0.25,
            flop_rate: 1.0e9,
            dt: 0.4,
            iterations: 10,
            // A moderately thick current sheet: still strongly skewed
            // (mid-plane ranks carry several times the edge load) but not
            // so singular that tiny decomposition differences between the
            // P-rank and (1-α)P-rank grids dominate every comparison.
            particle: ParticleConfig { sheet_thickness: 0.22, ..ParticleConfig::default() },
            alpha_every: 16,
            particle_bytes: 56,
            pfs: PfsConfig { n_ost: 160, ..PfsConfig::default() },
            io_buffer_bytes: 1 << 30,
            io_writer_fan_in: None,
        }
    }
}

impl PicConfig {
    /// Modelled wire/disk bytes of one actual particle: `particle_bytes`
    /// times the nominal particles it stands for.
    pub fn particle_wire_bytes(&self) -> u64 {
        (self.particle_bytes as f64 * self.nominal_per_rank / self.actual_per_rank as f64) as u64
    }
}

/// Result of one PIC run.
pub struct PicResult {
    pub outcome: WorldOutcome,
    /// Total particles held by the compute ranks at the end
    /// (conservation check).
    pub final_particles: u64,
    /// Total bytes the run wrote to the filesystem (I/O experiments).
    pub bytes_written: u64,
    /// Serialized metadata operations the run issued (I/O experiments) —
    /// the writer-aggregation stage exists to shrink this.
    pub meta_ops: u64,
    /// The figure metric: the execution time of the weak-scaling test
    /// (equals `outcome.elapsed_secs()`), kept as an explicit field so
    /// harnesses treat every experiment uniformly.
    pub op_secs: f64,
}

/// Per-rank particle state on a Cartesian compute decomposition.
struct PicState {
    cart: Cart,
    me: usize,
    lo: [f64; 3],
    hi: [f64; 3],
    particles: Vec<Particle>,
    /// Nominal particles represented by one actual particle.
    scale: f64,
}

impl PicState {
    /// Build the state for compute rank `me` of `cart`, with the global
    /// nominal population taken from `world_ranks` (so decoupled runs
    /// carry the same total workload on fewer compute ranks).
    fn new(cfg: &PicConfig, cart: &Cart, me: usize, world_ranks: usize) -> PicState {
        let dims = cart.dims();
        let coords = cart.coords(me);
        let lo = [
            coords[0] as f64 / dims[0] as f64,
            coords[1] as f64 / dims[1] as f64,
            coords[2] as f64 / dims[2] as f64,
        ];
        let hi = [
            (coords[0] + 1) as f64 / dims[0] as f64,
            (coords[1] + 1) as f64 / dims[1] as f64,
            (coords[2] + 1) as f64 / dims[2] as f64,
        ];
        let total_nominal = cfg.nominal_per_rank * world_ranks as f64;
        let total_actual = (cfg.actual_per_rank * world_ranks) as f64;
        // The sheet profile concentrates along y (dim 1); x and z are
        // uniform, so this subdomain's share of the population is its x/z
        // extent times the sheet mass over its y range.
        let frac = (hi[0] - lo[0]) * (hi[2] - lo[2]) * cfg.particle.mass_in(lo[1], hi[1]);
        let n_actual = (total_actual * frac).round() as usize;
        let particles = cfg.particle.generate(me, n_actual, lo, hi);
        PicState { cart: cart.clone(), me, lo, hi, particles, scale: total_nominal / total_actual }
    }

    /// Nominal particle count currently represented by this rank.
    fn nominal_count(&self) -> f64 {
        self.particles.len() as f64 * self.scale
    }

    /// Nominal bytes of `n` actual particles.
    fn bytes_of(&self, cfg: &PicConfig, n: usize) -> u64 {
        (n as f64 * self.scale * cfg.particle_bytes as f64).ceil() as u64
    }

    /// Advance all particles one step (charging the nominal mover cost)
    /// and split off the ones that left the subdomain.
    fn mover(&mut self, rank: &mut Rank, cfg: &PicConfig) -> Vec<Particle> {
        let swing = workloads::lognormal(1.0, cfg.mover_step_cv, rank.rng());
        let secs = self.nominal_count() * cfg.mover_flops_per_particle / cfg.flop_rate * swing;
        rank.traced("comp", |rank| rank.compute(secs));
        let dt = cfg.dt;
        let pcfg = cfg.particle.clone();
        let rng = rank.rng();
        for p in self.particles.iter_mut() {
            *p = advance(p, dt, &pcfg, rng);
        }
        let me = self.me;
        let mut exiting = Vec::new();
        let mut kept = Vec::with_capacity(self.particles.len());
        for p in self.particles.drain(..) {
            if cart_owner(&self.cart, p.pos) == me {
                kept.push(p);
            } else {
                exiting.push(p);
            }
        }
        self.particles = kept;
        exiting
    }

    /// Every resident particle is inside the subdomain box.
    fn assert_all_home(&self) {
        for p in &self.particles {
            assert_eq!(
                cart_owner(&self.cart, p.pos),
                self.me,
                "particle at {:?} not home on rank {} ([{:?} .. {:?}])",
                p.pos,
                self.me,
                self.lo,
                self.hi
            );
        }
    }
}

/// The compute rank (cart rank) owning position `pos` of the unit cube.
fn cart_owner(cart: &Cart, pos: [f64; 3]) -> usize {
    let dims = cart.dims();
    let mut c = [0usize; 3];
    for d in 0..3 {
        c[d] = ((pos[d] * dims[d] as f64) as usize).min(dims[d] - 1);
    }
    cart.rank_at(&c)
}

/// One hop of the reference forwarding: which neighbour takes a particle
/// that ultimately belongs to `owner`? Move along the first mismatched
/// dimension, in the wrap-shortest direction.
fn forward_hop(cart: &Cart, me: usize, owner: usize) -> usize {
    let dims = cart.dims();
    let my_c = cart.coords(me);
    let ow_c = cart.coords(owner);
    for d in 0..3 {
        if my_c[d] != ow_c[d] {
            let n = dims[d] as isize;
            let delta = ow_c[d] as isize - my_c[d] as isize;
            let fwd = delta.rem_euclid(n);
            let dir = if fwd <= n - fwd { 1 } else { -1 };
            return cart.shift(me, d, dir).expect("periodic grid always has a shift");
        }
    }
    me
}

/// Decomposition used by every PIC run: balanced factors, with the
/// *largest even* factor assigned to y (the sheet axis). An even y count
/// puts a subdomain boundary exactly on the current sheet's mid-plane, so
/// reference and decoupled runs (whose rank counts differ by α) split the
/// particle hotspot the same way and stay comparable.
pub(crate) fn pic_dims(n: usize) -> Vec<usize> {
    let mut d = dims_create(n, 3); // sorted non-increasing
    let y_idx = d.iter().position(|&v| v % 2 == 0).unwrap_or(0);
    let y = d.remove(y_idx);
    // Remaining two: larger to x, smaller to z.
    vec![d[0], y, d[1]]
}

// ---------------------------------------------------------------------
// Particle communication (Fig. 7)
// ---------------------------------------------------------------------

/// Reference: iterative 6-neighbour forwarding with a global termination
/// check per round.
pub fn run_comm_reference(nprocs: usize, cfg: &PicConfig) -> PicResult {
    run_comm_reference_inner(nprocs, cfg, false)
}

/// Trace-enabled reference run (Fig. 2, top panel).
pub fn run_comm_reference_traced(nprocs: usize, cfg: &PicConfig) -> PicResult {
    run_comm_reference_inner(nprocs, cfg, true)
}

fn run_comm_reference_inner(nprocs: usize, cfg: &PicConfig, trace: bool) -> PicResult {
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed).with_trace(trace);
    let final_count = Arc::new(AtomicU64::new(0));
    let fc = final_count.clone();
    let cfg2 = cfg.clone();
    let outcome = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let cart = Cart::new(pic_dims(nprocs), vec![true; 3]);
        let me = rank.world_rank();
        let mut st = PicState::new(&cfg2, &cart, me, nprocs);
        for _step in 0..cfg2.iterations {
            let mut homeless = st.mover(rank, &cfg2);
            // Rounds of one-hop forwarding until the world is quiet.
            loop {
                let travelling = rank.traced("comm", |rank| {
                    rank.allreduce(&comm, 8, homeless.len() as u64, |a, b| *a += b)
                });
                if travelling == 0 {
                    break;
                }
                rank.trace_begin("comm");
                // Bucket by the next hop.
                let mut buckets: BTreeMap<usize, Vec<Particle>> = BTreeMap::new();
                for p in homeless.drain(..) {
                    let owner = cart_owner(&cart, p.pos);
                    let hop = forward_hop(&cart, me, owner);
                    buckets.entry(hop).or_default().push(p);
                }
                // Exchange with all six neighbours (empty bundles too, so
                // receive counts stay deterministic).
                let neighbours = cart.neighbors(me);
                let mut reqs = Vec::new();
                for &(dim, dir, nb) in &neighbours {
                    let w = comm.world_rank(nb);
                    let bundle = buckets.remove(&nb).unwrap_or_default();
                    let bytes = st.bytes_of(&cfg2, bundle.len());
                    let tag = mpisim::Tag::user(200 + dim as u32 * 2 + u32::from(dir > 0));
                    reqs.push(rank.isend(w, tag, bytes, bundle));
                }
                debug_assert!(buckets.is_empty(), "every hop must be a neighbour");
                for &(dim, dir, nb) in &neighbours {
                    let w = comm.world_rank(nb);
                    // Our (dim, dir) send matches their (dim, -dir) recv.
                    let tag = mpisim::Tag::user(200 + dim as u32 * 2 + u32::from(dir < 0));
                    let (bundle, _) = rank.recv::<Vec<Particle>>(mpisim::Src::Rank(w), tag);
                    for p in bundle {
                        if cart_owner(&cart, p.pos) == me {
                            st.particles.push(p);
                        } else {
                            homeless.push(p);
                        }
                    }
                }
                rank.wait_send_all(reqs);
                rank.trace_end("comm");
            }
            st.assert_all_home();
        }
        fc.fetch_add(st.particles.len() as u64, Ordering::SeqCst);
    });
    let op_secs = outcome.elapsed_secs();
    PicResult {
        outcome,
        final_particles: final_count.load(Ordering::SeqCst),
        bytes_written: 0,
        meta_ops: 0,
        op_secs,
    }
}

/// Messages on the forward (compute → decoupled) channel.
enum ToComm {
    Exits { particles: Vec<Particle> },
}

impl mpistream::Wire for ToComm {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ToComm::Exits { particles } => {
                out.push(0);
                particles.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, mpistream::WireError> {
        match u8::decode(input)? {
            0 => Ok(ToComm::Exits { particles: mpistream::Wire::decode(input)? }),
            got => Err(mpistream::WireError::BadDiscriminant { got }),
        }
    }
}

/// The communication group's relay kernel, generic over the transport:
/// aggregate each arriving bundle of exits by destination owner and
/// forward in one pass, in ascending destination order — pure FCFS, no
/// waiting on any producer. The simulated and native backends run this
/// same function.
fn relay_exits<TP: Transport>(
    rank: &mut TP,
    input: &mut Stream<ToComm>,
    reply: &mut Stream<Vec<Particle>>,
    owner_of: impl Fn(&Particle) -> usize,
) {
    while let Some(ToComm::Exits { particles }) = input.recv_one(rank) {
        prof_scoped(rank, "relay", |rank| {
            let mut by_dest: BTreeMap<usize, Vec<Particle>> = BTreeMap::new();
            for p in particles {
                by_dest.entry(owner_of(&p)).or_default().push(p);
            }
            // Small aggregation cost per forwarded bundle.
            rank.compute(1e-6 * by_dest.len().max(1) as f64);
            for (dest, bundle) in by_dest {
                reply.isend_to(rank, dest, bundle);
            }
        });
    }
    reply.terminate(rank);
}

/// Decoupled: stream exiting particles to the communication group; each
/// arriving bundle is aggregated by destination and forwarded in one pass
/// (max two hops per particle, no collectives). The compute ranks are
/// **free-running**: they inject exits, opportunistically merge whatever
/// arrivals have already landed, and keep computing — the continuous
/// compute timeline of the paper's Fig. 2 (bottom). In-flight particles
/// join their owner a step later (the FCFS weak consistency the dataflow
/// model embraces); a full drain at the end restores exact conservation.
pub fn run_comm_decoupled(nprocs: usize, cfg: &PicConfig) -> PicResult {
    run_comm_decoupled_inner(nprocs, cfg, false)
}

/// Trace-enabled decoupled run (Fig. 2, bottom panel).
pub fn run_comm_decoupled_traced(nprocs: usize, cfg: &PicConfig) -> PicResult {
    run_comm_decoupled_inner(nprocs, cfg, true)
}

fn run_comm_decoupled_inner(nprocs: usize, cfg: &PicConfig, trace: bool) -> PicResult {
    assert!(nprocs >= cfg.alpha_every);
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed).with_trace(trace);
    let final_count = Arc::new(AtomicU64::new(0));
    let fc = final_count.clone();
    let cfg2 = cfg.clone();
    let outcome = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: cfg2.alpha_every };
        let (g0, _g1, role) = spec.split(rank, &comm);
        let pb = cfg2.particle_wire_bytes();
        let fwd_ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig { element_bytes: pb.max(1), ..ChannelConfig::default() },
        );
        let rev_ch = StreamChannel::create(
            rank,
            &comm,
            role.reverse(),
            ChannelConfig { element_bytes: pb.max(1), ..ChannelConfig::default() },
        );
        let cart = Cart::new(pic_dims(g0.size()), vec![true; 3]);
        let nc = fwd_ch.consumers().len();

        match role {
            Role::Producer => {
                let me = g0.rank_of(rank.world_rank()).expect("in G0");
                let mut out: Stream<ToComm> = Stream::attach(fwd_ch);
                let mut back: Stream<Vec<Particle>> = Stream::attach(rev_ch);
                let mut st = PicState::new(&cfg2, &cart, me, nprocs);
                for _step in 0..cfg2.iterations {
                    let exiting = st.mover(rank, &cfg2);
                    rank.trace_begin("comm");
                    if !exiting.is_empty() {
                        out.isend_to(rank, me % nc, ToComm::Exits { particles: exiting });
                    }
                    // Opportunistic, non-blocking merge of whatever
                    // arrivals already landed; stragglers join later.
                    let mut staged: Vec<Vec<Particle>> = Vec::new();
                    // Stops on an empty poll *and* on a `Term`, which
                    // carries no elements.
                    while back
                        .step(rank, Wait::Poll, |_, bundle| staged.push(bundle))
                        .is_some_and(|ev| ev.elems > 0)
                    {}
                    for p in staged.into_iter().flatten() {
                        debug_assert_eq!(cart_owner(&cart, p.pos), me);
                        st.particles.push(p);
                    }
                    rank.trace_end("comm");
                }
                out.terminate(rank);
                // Final drain: everything still in flight, for exact
                // conservation at shutdown.
                rank.trace_begin("comm");
                let mut staged: Vec<Vec<Particle>> = Vec::new();
                back.operate(rank, |_, bundle| staged.push(bundle));
                for p in staged.into_iter().flatten() {
                    st.particles.push(p);
                }
                rank.trace_end("comm");
                st.assert_all_home();
                fc.fetch_add(st.particles.len() as u64, Ordering::SeqCst);
            }
            Role::Consumer => {
                let mut input: Stream<ToComm> = Stream::attach(fwd_ch);
                let mut reply: Stream<Vec<Particle>> = Stream::attach(rev_ch);
                rank.trace_begin("comm");
                relay_exits(rank, &mut input, &mut reply, |p| cart_owner(&cart, p.pos));
                rank.trace_end("comm");
            }
            Role::Bystander => unreachable!(),
        }
    });
    let op_secs = outcome.elapsed_secs();
    PicResult {
        outcome,
        final_particles: final_count.load(Ordering::SeqCst),
        bytes_written: 0,
        meta_ops: 0,
        op_secs,
    }
}

// ---------------------------------------------------------------------
// Particle I/O (Fig. 8)
// ---------------------------------------------------------------------

/// Which reference I/O flavour to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoMode {
    /// `MPI_File_write_all`: displacement allgatherv + file-view update +
    /// striped write + barrier, every dump.
    Collective,
    /// `MPI_File_write_shared`: serialized shared-pointer writes.
    Shared,
}

/// Reference particle I/O (collective or shared), dumping every step.
pub fn run_io_reference(nprocs: usize, cfg: &PicConfig, mode: IoMode) -> PicResult {
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let pfs = Pfs::new(cfg.pfs.clone());
    let final_count = Arc::new(AtomicU64::new(0));
    let (fc, pfs2) = (final_count.clone(), pfs.clone());
    let cfg2 = cfg.clone();
    let outcome = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let cart = Cart::new(pic_dims(nprocs), vec![true; 3]);
        let me = rank.world_rank();
        let mut st = PicState::new(&cfg2, &cart, me, nprocs);
        pfs2.meta_op(rank.ctx()); // open
        for _step in 0..cfg2.iterations {
            // The I/O experiment isolates mover + dump: migrating
            // particles stay local (ownership is irrelevant to I/O time).
            let exiting = st.mover(rank, &cfg2);
            st.particles.extend(exiting);
            let bytes = st.bytes_of(&cfg2, st.particles.len());
            match mode {
                IoMode::Collective => rank.traced("io", |rank| {
                    // Everyone agrees on displacements, redefines the file
                    // view (metadata), writes its block, synchronizes.
                    let _counts = rank.allgatherv(&comm, 8, st.particles.len() as u64);
                    pfs2.meta_op(rank.ctx());
                    pfs2.write_striped(rank.ctx(), bytes);
                    rank.barrier(&comm);
                }),
                IoMode::Shared => rank.traced("io", |rank| {
                    pfs2.write_shared(rank.ctx(), bytes);
                }),
            }
        }
        fc.fetch_add(st.particles.len() as u64, Ordering::SeqCst);
    });
    let op_secs = outcome.elapsed_secs();
    PicResult {
        outcome,
        final_particles: final_count.load(Ordering::SeqCst),
        bytes_written: pfs.bytes_written(),
        meta_ops: pfs.meta_ops(),
        op_secs,
    }
}

/// Decoupled particle I/O: stream particles to the I/O group, which
/// buffers up to `io_buffer_bytes` and flushes large striped writes,
/// overlapping the compute group's next steps.
pub fn run_io_decoupled(nprocs: usize, cfg: &PicConfig) -> PicResult {
    assert!(nprocs >= cfg.alpha_every);
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let pfs = Pfs::new(cfg.pfs.clone());
    let final_count = Arc::new(AtomicU64::new(0));
    let (fc, pfs2) = (final_count.clone(), pfs.clone());
    let cfg2 = cfg.clone();
    let outcome = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: cfg2.alpha_every };
        let (g0, _g1, role) = spec.split(rank, &comm);
        let pb = cfg2.particle_wire_bytes();
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: pb.max(1),
                aggregation: 64, // coalesce particles into wire messages
                ..ChannelConfig::default()
            },
        );
        // Optional writer-aggregation stage over the I/O group: one spill
        // channel per block (collective — compute ranks take part in the
        // splits and get no endpoints).
        let io_ranks = spec.members(nprocs).1;
        let wplan = cfg2
            .io_writer_fan_in
            .filter(|_| io_ranks.len() >= 2)
            .map(|k| TreePlan::single_stage(&io_ranks, k));
        let spill_at =
            (cfg2.io_buffer_bytes / cfg2.io_writer_fan_in.unwrap_or(1).max(1) as u64).max(1);
        let spill_ch = wplan.as_ref().and_then(|plan| {
            let chans = create_tree_channels(
                rank,
                &comm,
                plan,
                &ChannelConfig { element_bytes: spill_at, ..ChannelConfig::default() },
            );
            chans.into_stages().pop().flatten()
        });
        let cart = Cart::new(pic_dims(g0.size()), vec![true; 3]);
        match role {
            Role::Producer => {
                let me = g0.rank_of(rank.world_rank()).expect("in G0");
                let mut out: Stream<Particle> = Stream::attach(ch);
                let mut st = PicState::new(&cfg2, &cart, me, nprocs);
                for _step in 0..cfg2.iterations {
                    let exiting = st.mover(rank, &cfg2);
                    st.particles.extend(exiting);
                    rank.traced("io", |rank| {
                        for p in st.particles.clone() {
                            out.isend(rank, p);
                        }
                    });
                }
                out.terminate(rank);
                fc.fetch_add(st.particles.len() as u64, Ordering::SeqCst);
            }
            Role::Consumer => {
                let mut input: Stream<Particle> = Stream::attach(ch);
                let flush_at = cfg2.io_buffer_bytes;
                match spill_ch {
                    Some(sc) if sc.role() == Role::Producer => {
                        // Forwarder: buffer my particle share and spill
                        // byte bundles to my block's writer — never touches
                        // the filesystem (no open, no metadata).
                        let mut spill: Stream<u64> = Stream::attach(sc);
                        let mut buffered: u64 = 0;
                        input.operate(rank, |rank, _p| {
                            buffered += pb;
                            if buffered >= spill_at {
                                spill.isend_to(rank, 0, buffered);
                                buffered = 0;
                            }
                        });
                        if buffered > 0 {
                            spill.isend_to(rank, 0, buffered);
                        }
                        spill.terminate(rank);
                    }
                    Some(sc) => {
                        // Writer: multiplex my own particle share and the
                        // forwarders' spills FCFS; flush large striped
                        // writes past the buffer threshold.
                        let mut spills: Stream<u64> = Stream::attach(sc);
                        pfs2.meta_op(rank.ctx()); // open once per block
                        let buffered = Cell::new(0u64);
                        let flush_if_full = |rank: &mut Rank, buffered: &Cell<u64>| {
                            if buffered.get() >= flush_at {
                                rank.traced("io", |rank| {
                                    pfs2.write_striped(rank.ctx(), buffered.get());
                                });
                                buffered.set(0);
                            }
                        };
                        operate2(
                            rank,
                            &mut input,
                            &mut spills,
                            |rank, _p: Particle| {
                                buffered.set(buffered.get() + pb);
                                flush_if_full(rank, &buffered);
                            },
                            |rank, bytes: u64| {
                                buffered.set(buffered.get() + bytes);
                                flush_if_full(rank, &buffered);
                            },
                        );
                        if buffered.get() > 0 {
                            pfs2.write_striped(rank.ctx(), buffered.get());
                        }
                    }
                    None => {
                        // Flat shape (the paper): every io rank opens and
                        // writes its own buffer.
                        pfs2.meta_op(rank.ctx()); // open once
                        let mut buffered: u64 = 0;
                        input.operate(rank, |rank, _p| {
                            buffered += pb;
                            if buffered >= flush_at {
                                rank.traced("io", |rank| {
                                    pfs2.write_striped(rank.ctx(), buffered);
                                });
                                buffered = 0;
                            }
                        });
                        if buffered > 0 {
                            pfs2.write_striped(rank.ctx(), buffered);
                        }
                    }
                }
            }
            Role::Bystander => unreachable!(),
        }
    });
    let op_secs = outcome.elapsed_secs();
    PicResult {
        outcome,
        final_particles: final_count.load(Ordering::SeqCst),
        bytes_written: pfs.bytes_written(),
        meta_ops: pfs.meta_ops(),
        op_secs,
    }
}

/// Communication topology of [`run_comm_decoupled`] for the `streamcheck`
/// static pass: exiting particles stream to relay rank `me % nc`, which
/// forwards each bundle to its owner (keyed identity over the compute
/// group). Like CG, the fwd/rev pair is an unbounded request/reply cycle.
pub fn comm_topology(nprocs: usize, cfg: &PicConfig) -> streamcheck::Topology {
    use streamcheck::{ChannelDecl, GroupDecl, Topology};
    let (g0, g1) = GroupSpec { every: cfg.alpha_every }.members(nprocs);
    let pb = cfg.particle_wire_bytes();
    let nc = g1.len();
    Topology::new(nprocs)
        .group(GroupDecl::new("compute", g0.clone()))
        .group(GroupDecl::new("relay", g1.clone()))
        .channel(
            ChannelDecl::new(
                "exits",
                g0.clone(),
                g1.clone(),
                ChannelConfig { element_bytes: pb.max(1), ..ChannelConfig::default() },
            )
            .keyed((0..g0.len()).map(|b| Some(b % nc)).collect()),
        )
        .channel(
            ChannelDecl::new(
                "returns",
                g1,
                g0.clone(),
                ChannelConfig { element_bytes: pb.max(1), ..ChannelConfig::default() },
            )
            .keyed((0..g0.len()).map(Some).collect()),
        )
}

/// Communication topology of [`run_io_decoupled`]: one statically-routed,
/// aggregated particle stream from the compute group to the I/O group —
/// plus, with [`PicConfig::io_writer_fan_in`] set, one spill channel per
/// writer block (forwarders → block representative). The whole pipeline
/// stays acyclic (compute → forwarders → writers), so the checker
/// certifies it deadlock-free.
pub fn io_topology(nprocs: usize, cfg: &PicConfig) -> streamcheck::Topology {
    use streamcheck::{ChannelDecl, GroupDecl, Topology};
    let (g0, g1) = GroupSpec { every: cfg.alpha_every }.members(nprocs);
    let pb = cfg.particle_wire_bytes();
    let mut topo = Topology::new(nprocs)
        .group(GroupDecl::new("compute", g0.clone()))
        .group(GroupDecl::new("io", g1.clone()))
        .channel(ChannelDecl::new(
            "particles",
            g0,
            g1.clone(),
            ChannelConfig { element_bytes: pb.max(1), aggregation: 64, ..ChannelConfig::default() },
        ));
    if let Some(k) = cfg.io_writer_fan_in.filter(|_| g1.len() >= 2) {
        let spill_at = (cfg.io_buffer_bytes / k as u64).max(1);
        let stage = plan_stage(&g1, k);
        for (bi, block) in stage.blocks.iter().enumerate() {
            if block.len() < 2 {
                continue;
            }
            topo = topo.channel(
                ChannelDecl::new(
                    format!("spill-b{bi}"),
                    block[1..].to_vec(),
                    vec![block[0]],
                    ChannelConfig { element_bytes: spill_at, ..ChannelConfig::default() },
                )
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

    fn test_cfg() -> PicConfig {
        PicConfig {
            machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
            actual_per_rank: 64,
            iterations: 4,
            alpha_every: 4,
            dt: 0.3,
            io_buffer_bytes: 64 << 20,
            ..PicConfig::default()
        }
    }

    fn total_initial_particles(cfg: &PicConfig, compute_ranks: usize, world: usize) -> u64 {
        let cart = Cart::new(dims_create(compute_ranks, 3), vec![true; 3]);
        (0..compute_ranks).map(|r| PicState::new(cfg, &cart, r, world).particles.len() as u64).sum()
    }

    #[test]
    fn pic_dims_prefers_even_sheet_axis() {
        // y (index 1) must get the largest even factor so the sheet
        // mid-plane falls on a subdomain boundary.
        assert_eq!(pic_dims(64)[1] % 2, 0);
        assert_eq!(pic_dims(8192)[1] % 2, 0);
        assert_eq!(pic_dims(56)[1] % 2, 0);
        assert_eq!(pic_dims(120)[1] % 2, 0);
        // Product preserved for arbitrary sizes.
        for n in 1..200 {
            assert_eq!(pic_dims(n).iter().product::<usize>(), n, "n={n}");
        }
        // Odd-only factorizations fall back to the largest factor.
        assert_eq!(pic_dims(15).iter().product::<usize>(), 15);
    }

    #[test]
    fn initial_distribution_is_sheet_skewed() {
        let cfg = test_cfg();
        let cart = Cart::new(dims_create(64, 3), vec![true; 3]);
        let counts: Vec<usize> =
            (0..64).map(|r| PicState::new(&cfg, &cart, r, 64).particles.len()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 3 * min.max(1), "skew expected: min {min} max {max}");
        let total: usize = counts.iter().sum();
        let expect = 64 * cfg.actual_per_rank;
        assert!(
            (total as i64 - expect as i64).unsigned_abs() < expect as u64 / 10,
            "total {total} vs {expect}"
        );
    }

    #[test]
    fn forward_hop_always_makes_progress() {
        let cart = Cart::new(vec![4, 3, 2], vec![true; 3]);
        for me in 0..24 {
            for owner in 0..24 {
                let mut at = me;
                let mut hops = 0;
                while at != owner {
                    at = forward_hop(&cart, at, owner);
                    hops += 1;
                    assert!(hops <= 4 + 3 + 2, "no progress from {me} to {owner}");
                }
            }
        }
    }

    #[test]
    fn reference_comm_conserves_particles_and_homes_them() {
        let cfg = test_cfg();
        let initial = total_initial_particles(&cfg, 8, 8);
        let res = run_comm_reference(8, &cfg);
        assert_eq!(res.final_particles, initial);
    }

    #[test]
    fn decoupled_comm_conserves_particles_and_homes_them() {
        let cfg = test_cfg();
        // 8 ranks, every=4 -> 6 compute ranks.
        let initial = total_initial_particles(&cfg, 6, 8);
        let res = run_comm_decoupled(8, &cfg);
        assert_eq!(res.final_particles, initial);
    }

    #[test]
    fn decoupled_comm_operation_is_cheaper() {
        // The reference pays >= 2 global allreduces per step, each
        // harvesting the per-step transient imbalance across all P ranks;
        // the free-running decoupled pipeline absorbs it. At the paper's
        // α = 6.25% the compute-inflation cost (1/(1−α)) is small, so
        // decoupling must win the end-to-end time.
        let cfg = PicConfig { iterations: 6, alpha_every: 16, ..test_cfg() };
        let r = run_comm_reference(64, &cfg);
        let d = run_comm_decoupled(64, &cfg);
        assert!(
            d.op_secs < r.op_secs,
            "decoupled comm {} must undercut reference {}",
            d.op_secs,
            r.op_secs
        );
    }

    #[test]
    fn io_modes_write_identical_volumes() {
        let cfg = test_cfg();
        let coll = run_io_reference(8, &cfg, IoMode::Collective);
        let shared = run_io_reference(8, &cfg, IoMode::Shared);
        assert_eq!(coll.bytes_written, shared.bytes_written);
        assert!(coll.bytes_written > 0);
    }

    #[test]
    fn decoupled_io_writes_comparable_volume() {
        let cfg = test_cfg();
        let dec = run_io_decoupled(8, &cfg);
        assert!(dec.bytes_written > 0);
        // Volume ≈ iterations x total particles x per-particle bytes.
        let pb = cfg.particle_wire_bytes();
        let initial = total_initial_particles(&cfg, 6, 8);
        let expect = cfg.iterations as u64 * initial * pb;
        let rel = (dec.bytes_written as f64 - expect as f64).abs() / expect as f64;
        assert!(rel < 0.05, "wrote {} vs expected {expect}", dec.bytes_written);
    }

    #[test]
    fn aggregated_io_writes_identical_volume() {
        // Writer aggregation re-routes bytes through block
        // representatives but must conserve the written volume exactly.
        let flat = run_io_decoupled(16, &test_cfg());
        for k in [2usize, 4] {
            let cfg = PicConfig { io_writer_fan_in: Some(k), ..test_cfg() };
            let agg = run_io_decoupled(16, &cfg);
            assert_eq!(agg.bytes_written, flat.bytes_written, "k={k}");
            assert_eq!(agg.final_particles, flat.final_particles, "k={k}");
        }
    }

    #[test]
    fn aggregated_io_opens_one_file_per_writer_block() {
        // 16 ranks, every=4 -> io group {3,7,11,15}. Flat: 4 opens.
        // k=4: one block, one writer, one open.
        assert_eq!(run_io_decoupled(16, &test_cfg()).meta_ops, 4);
        let agg_cfg = PicConfig { io_writer_fan_in: Some(4), ..test_cfg() };
        assert_eq!(run_io_decoupled(16, &agg_cfg).meta_ops, 1);
    }

    #[test]
    fn aggregated_io_with_singleton_tail_block_still_writes_everything() {
        // io group {3,7,11,15} at k=3: blocks {3,7,11} and {15} — the
        // singleton representative must fall back to writing directly.
        let cfg = PicConfig { io_writer_fan_in: Some(3), ..test_cfg() };
        let flat = run_io_decoupled(16, &test_cfg());
        let agg = run_io_decoupled(16, &cfg);
        assert_eq!(agg.bytes_written, flat.bytes_written);
        assert_eq!(agg.meta_ops, 2); // one per writing rank
    }

    #[test]
    fn shared_io_is_slowest_and_decoupled_fastest_at_scale() {
        // Keep the mover light so the comparison isolates the I/O path
        // (at miniature scale the 24- vs 32-rank y-decompositions split
        // the particle sheet differently, which would otherwise dominate).
        let cfg = PicConfig { iterations: 3, mover_flops_per_particle: 40.0, ..test_cfg() };
        let t_coll = run_io_reference(32, &cfg, IoMode::Collective).outcome.elapsed_secs();
        let t_shared = run_io_reference(32, &cfg, IoMode::Shared).outcome.elapsed_secs();
        let t_dec = run_io_decoupled(32, &cfg).outcome.elapsed_secs();
        assert!(t_shared > t_coll, "shared {t_shared} vs collective {t_coll}");
        assert!(t_dec < t_shared, "decoupled {t_dec} vs shared {t_shared}");
    }

    #[test]
    fn traced_runs_produce_comp_and_comm_spans() {
        let cfg = PicConfig { iterations: 2, ..test_cfg() };
        let res = run_comm_decoupled_traced(8, &cfg);
        let tags: std::collections::BTreeSet<&str> =
            res.outcome.sim.trace.spans().iter().map(|s| s.tag).collect();
        assert!(tags.contains("comp"), "tags: {tags:?}");
        assert!(tags.contains("comm"), "tags: {tags:?}");
    }
}
