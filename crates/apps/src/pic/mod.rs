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
//!
//! The decoupled rank bodies, [`comm_decoupled_rank`] and
//! [`io_decoupled_rank`], run on any [`Transport`]; the references are the
//! paper's MPI baselines and stay on the simulator's `mpisim::Rank`. Each
//! `run_*` launches one body on every rank of [`PicConfig::world`].

use std::cell::Cell;
use std::collections::BTreeMap;

use mpisim::{MachineConfig, Rank, World, WorldOutcome};
use mpistream::{
    create_tree_channels, dims_create, operate2, plan_stage, prof_scoped, Cart, ChannelConfig,
    Event, Group, GroupSpec, Role, Stream, StreamChannel, Transport, TreePlan, Wait,
};
use pfsim::{Pfs, PfsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    /// The simulated world every run of this case study launches; Fig. 2
    /// traces it with `.with_trace(true)`.
    pub fn world(&self) -> World {
        World::new(self.machine.clone()).with_seed(self.seed)
    }

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

impl PicResult {
    /// The result of a world whose ranks each returned the particles they
    /// hold at the end; `pfs` is the filesystem of the I/O experiments.
    fn new((outcome, particles): (WorldOutcome, Vec<u64>), pfs: Option<&Pfs>) -> PicResult {
        PicResult {
            op_secs: outcome.elapsed_secs(),
            outcome,
            final_particles: particles.iter().sum(),
            bytes_written: pfs.map_or(0, Pfs::bytes_written),
            meta_ops: pfs.map_or(0, Pfs::meta_ops),
        }
    }
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
    /// The mover's own random stream (per-step swing and particle kicks),
    /// seeded from `cfg.seed` and the compute rank: no backend's draws,
    /// such as the simulator's compute noise, interleave with it.
    rng: StdRng,
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
        // Another multiplier than `ParticleConfig::generate`'s, so the
        // mover's stream is not the generator's.
        let rng = StdRng::seed_from_u64(cfg.seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scale = total_nominal / total_actual;
        PicState { cart: cart.clone(), me, lo, hi, particles, scale, rng }
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
    fn mover<TP: Transport>(&mut self, rank: &mut TP, cfg: &PicConfig) -> Vec<Particle> {
        let swing = workloads::lognormal(1.0, cfg.mover_step_cv, &mut self.rng);
        let secs = self.nominal_count() * cfg.mover_flops_per_particle / cfg.flop_rate * swing;
        prof_scoped(rank, "comp", |rank| rank.compute(secs));
        for p in self.particles.iter_mut() {
            *p = advance(p, cfg.dt, &cfg.particle, &mut self.rng);
        }
        let (kept, exiting) = std::mem::take(&mut self.particles)
            .into_iter()
            .partition(|p| cart_owner(&self.cart, p.pos) == self.me);
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
/// check per round. Every rank runs [`comm_reference_rank`].
pub fn run_comm_reference(nprocs: usize, cfg: &PicConfig) -> PicResult {
    let cfg = cfg.clone();
    PicResult::new(
        cfg.world().run_expect(nprocs, move |r| comm_reference_rank(r, nprocs, &cfg)),
        None,
    )
}

/// One rank of the reference: each step, rounds of one-hop forwarding
/// through the six Cartesian neighbours until an allreduce finds no
/// particle travelling. Returns the particles the rank holds at the end.
pub fn comm_reference_rank(rank: &mut Rank, nprocs: usize, cfg: &PicConfig) -> u64 {
    let comm = rank.comm_world();
    let cart = Cart::new(pic_dims(nprocs), vec![true; 3]);
    let me = rank.world_rank();
    let mut st = PicState::new(cfg, &cart, me, nprocs);
    for _step in 0..cfg.iterations {
        let mut homeless = st.mover(rank, cfg);
        // Rounds of one-hop forwarding until the world is quiet.
        loop {
            let travelling = prof_scoped(rank, "comm", |rank| {
                rank.allreduce(&comm, 8, homeless.len() as u64, |a, b| *a += b)
            });
            if travelling == 0 {
                break;
            }
            rank.observe(Event::Begin("comm"));
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
                let bytes = st.bytes_of(cfg, bundle.len());
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
            rank.observe(Event::End("comm"));
        }
        st.assert_all_home();
    }
    st.particles.len() as u64
}

/// Decoupled: stream exiting particles to the communication group.
/// Every rank runs [`comm_decoupled_rank`].
pub fn run_comm_decoupled(nprocs: usize, cfg: &PicConfig) -> PicResult {
    let cfg = cfg.clone();
    PicResult::new(
        cfg.world().run_expect(nprocs, move |r| comm_decoupled_rank(r, nprocs, &cfg)),
        None,
    )
}

/// One rank of the decoupled variant, on any transport: compute ranks
/// stream exiting particles to the communication group, which aggregates
/// each arriving bundle by destination and forwards it in one pass (max
/// two hops per particle, no collectives). The compute ranks are
/// **free-running**: they inject exits, opportunistically merge whatever
/// arrivals have already landed, and keep computing — the continuous
/// compute timeline of the paper's Fig. 2 (bottom). In-flight particles
/// join their owner a step later (the FCFS weak consistency the dataflow
/// model embraces); a full drain at the end restores exact conservation.
/// A compute rank returns the particles it holds at the end, a relay 0.
pub fn comm_decoupled_rank<TP: Transport>(rank: &mut TP, nprocs: usize, cfg: &PicConfig) -> u64 {
    assert!(nprocs >= cfg.alpha_every);
    let comm = rank.world_group();
    let spec = GroupSpec { every: cfg.alpha_every };
    let (g0, _g1, role) = spec.split(rank, &comm);
    let config = ChannelConfig {
        element_bytes: cfg.particle_wire_bytes().max(1),
        ..ChannelConfig::default()
    };
    let fwd_ch = StreamChannel::create(rank, &comm, role, config.clone());
    let rev_ch = StreamChannel::create(rank, &comm, role.reverse(), config);
    let cart = Cart::new(pic_dims(g0.size()), vec![true; 3]);
    let nc = fwd_ch.consumers().len();

    match role {
        Role::Producer => {
            let me = g0.rank_of(rank.world_rank()).expect("in G0");
            let mut out: Stream<Vec<Particle>> = Stream::attach(fwd_ch);
            let mut back: Stream<Vec<Particle>> = Stream::attach(rev_ch);
            let mut st = PicState::new(cfg, &cart, me, nprocs);
            for _step in 0..cfg.iterations {
                let exiting = st.mover(rank, cfg);
                rank.observe(Event::Begin("comm"));
                if !exiting.is_empty() {
                    out.isend_to(rank, me % nc, exiting);
                }
                // Opportunistic, non-blocking merge of whatever arrivals
                // already landed; stragglers join later. Stops on an
                // empty poll *and* on a `Term`, which carries no elements.
                while back
                    .step(rank, Wait::Poll, |_, bundle| {
                        debug_assert!(bundle.iter().all(|p| cart_owner(&cart, p.pos) == me));
                        st.particles.extend(bundle);
                    })
                    .is_some_and(|ev| ev.elems > 0)
                {}
                rank.observe(Event::End("comm"));
            }
            out.terminate(rank);
            // Final drain: everything still in flight, for exact
            // conservation at shutdown.
            prof_scoped(rank, "comm", |rank| {
                back.operate(rank, |_, bundle| st.particles.extend(bundle));
            });
            st.assert_all_home();
            st.particles.len() as u64
        }
        Role::Consumer => {
            // Relay: aggregate each arriving bundle of exits by
            // destination owner and forward in one pass, in ascending
            // destination order — pure FCFS, no waiting on any producer.
            let mut input: Stream<Vec<Particle>> = Stream::attach(fwd_ch);
            let mut reply: Stream<Vec<Particle>> = Stream::attach(rev_ch);
            prof_scoped(rank, "comm", |rank| {
                while let Some(exits) = input.recv_one(rank) {
                    let mut by_dest: BTreeMap<usize, Vec<Particle>> = BTreeMap::new();
                    for p in exits {
                        by_dest.entry(cart_owner(&cart, p.pos)).or_default().push(p);
                    }
                    // Small aggregation cost per forwarded bundle.
                    rank.compute(1e-6 * by_dest.len().max(1) as f64);
                    for (dest, bundle) in by_dest {
                        reply.isend_to(rank, dest, bundle);
                    }
                }
                reply.terminate(rank);
            });
            0
        }
        Role::Bystander => unreachable!(),
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
    let pfs = Pfs::new(cfg.pfs.clone());
    let (cfg, fs) = (cfg.clone(), pfs.clone());
    let run =
        cfg.world().run_expect(nprocs, move |r| io_reference_rank(r, nprocs, &cfg, mode, &fs));
    PicResult::new(run, Some(&pfs))
}

/// One rank of the reference particle I/O. Returns the particles it
/// holds at the end.
fn io_reference_rank(
    rank: &mut Rank,
    nprocs: usize,
    cfg: &PicConfig,
    mode: IoMode,
    pfs: &Pfs,
) -> u64 {
    let comm = rank.comm_world();
    let cart = Cart::new(pic_dims(nprocs), vec![true; 3]);
    let mut st = PicState::new(cfg, &cart, rank.world_rank(), nprocs);
    pfs.meta_op(rank.ctx()); // open
    for _step in 0..cfg.iterations {
        // The I/O experiment isolates mover + dump: migrating particles
        // stay local (ownership is irrelevant to I/O time).
        let exiting = st.mover(rank, cfg);
        st.particles.extend(exiting);
        let bytes = st.bytes_of(cfg, st.particles.len());
        match mode {
            IoMode::Collective => prof_scoped(rank, "io", |rank| {
                // Everyone agrees on displacements, redefines the file
                // view (metadata), writes its block, synchronizes.
                let _counts = rank.allgatherv(&comm, 8, st.particles.len() as u64);
                pfs.meta_op(rank.ctx());
                pfs.write_striped(rank.ctx(), bytes);
                rank.barrier(&comm);
            }),
            IoMode::Shared => prof_scoped(rank, "io", |rank| pfs.write_shared(rank.ctx(), bytes)),
        }
    }
    st.particles.len() as u64
}

/// What the decoupled I/O group does to a file system: open the file
/// (one serialized metadata operation) or write bytes to it. The
/// simulator's launcher maps these onto `pfsim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsOp {
    Open,
    Write(u64),
}

/// Decoupled particle I/O on `pfsim`: every rank runs
/// [`io_decoupled_rank`].
pub fn run_io_decoupled(nprocs: usize, cfg: &PicConfig) -> PicResult {
    let pfs = Pfs::new(cfg.pfs.clone());
    let (cfg, fs) = (cfg.clone(), pfs.clone());
    let run = cfg.world().run_expect(nprocs, move |r| {
        io_decoupled_rank(r, nprocs, &cfg, &|rank, op| match op {
            FsOp::Open => fs.meta_op(rank.ctx()),
            FsOp::Write(bytes) => {
                fs.write_striped(rank.ctx(), bytes);
            }
        })
    });
    PicResult::new(run, Some(&pfs))
}

/// One rank of the decoupled particle I/O, on any transport and file
/// system `fs`: compute ranks stream their particles to the I/O group,
/// which buffers up to `io_buffer_bytes` and flushes large writes,
/// overlapping the compute group's next steps. A compute rank returns
/// the particles it holds at the end, an I/O rank 0.
pub fn io_decoupled_rank<TP: Transport>(
    rank: &mut TP,
    nprocs: usize,
    cfg: &PicConfig,
    fs: &impl Fn(&mut TP, FsOp),
) -> u64 {
    assert!(nprocs >= cfg.alpha_every);
    let comm = rank.world_group();
    let spec = GroupSpec { every: cfg.alpha_every };
    let (g0, _g1, role) = spec.split(rank, &comm);
    let pb = cfg.particle_wire_bytes();
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
    let wplan = cfg
        .io_writer_fan_in
        .filter(|_| io_ranks.len() >= 2)
        .map(|k| TreePlan::single_stage(&io_ranks, k));
    let spill_at = (cfg.io_buffer_bytes / cfg.io_writer_fan_in.unwrap_or(1).max(1) as u64).max(1);
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
    let flush_at = cfg.io_buffer_bytes;
    match role {
        Role::Producer => {
            let me = g0.rank_of(rank.world_rank()).expect("in G0");
            let mut out: Stream<Particle> = Stream::attach(ch);
            let mut st = PicState::new(cfg, &cart, me, nprocs);
            for _step in 0..cfg.iterations {
                let exiting = st.mover(rank, cfg);
                st.particles.extend(exiting);
                prof_scoped(rank, "io", |rank| {
                    for &p in &st.particles {
                        out.isend(rank, p);
                    }
                });
            }
            out.terminate(rank);
            st.particles.len() as u64
        }
        Role::Consumer => {
            let mut input: Stream<Particle> = Stream::attach(ch);
            match spill_ch {
                Some(sc) if sc.role() == Role::Producer => {
                    // Forwarder: buffer my particle share and spill byte
                    // bundles to my block's writer — never touches the
                    // file system (no open, no metadata).
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
                spills => {
                    // Writer: in the flat shape (the paper) every io rank,
                    // with writer blocks one per block, which multiplexes
                    // its own particle share and the forwarders' spills
                    // FCFS. It opens the file once and flushes large
                    // striped writes past the buffer threshold.
                    fs(rank, FsOp::Open);
                    let buffered = Cell::new(0u64);
                    let add = |rank: &mut TP, bytes: u64| {
                        buffered.set(buffered.get() + bytes);
                        if buffered.get() >= flush_at {
                            prof_scoped(rank, "io", |rank| fs(rank, FsOp::Write(buffered.take())));
                        }
                    };
                    match spills {
                        Some(sc) => {
                            let mut spills = Stream::attach(sc);
                            operate2(rank, &mut input, &mut spills, |rank, _p| add(rank, pb), add);
                        }
                        None => {
                            input.operate(rank, |rank, _p| add(rank, pb));
                        }
                    }
                    if buffered.get() > 0 {
                        fs(rank, FsOp::Write(buffered.get()));
                    }
                }
            }
            0
        }
        Role::Bystander => unreachable!(),
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
        let (outcome, _) = cfg
            .world()
            .with_trace(true)
            .run_expect(8, move |rank| comm_decoupled_rank(rank, 8, &cfg));
        let tags: std::collections::BTreeSet<&str> =
            outcome.sim.trace.spans().iter().map(|s| s.tag).collect();
        assert!(tags.contains("comp"), "tags: {tags:?}");
        assert!(tags.contains("comm"), "tags: {tags:?}");
    }
}
