//! Conjugate Gradient Poisson solver (the Fig. 6 case study).
//!
//! Solves the 3-D Poisson problem `-∇²u = f` with homogeneous Dirichlet
//! boundaries on a Cartesian grid, decomposed over ranks in blocks. Each
//! iteration does a halo exchange of the search direction, a 7-point
//! stencil application, and two dot-product allreduces — the structure of
//! the open-source reference the paper decouples (Hoefler et al.,
//! "Optimizing a conjugate gradient solver with non-blocking collective
//! operations", cited as \[17\]).
//!
//! Three variants:
//! - [`run_blocking`] — halo exchange completes before any compute;
//! - [`run_nonblocking`] — halo exchange overlaps the inner stencil;
//! - [`run_decoupled`] — boundary values stream to a decoupled group that
//!   aggregates all six neighbour faces per rank and streams one combined
//!   packet back (§IV-C of the paper), overlapping the inner stencil.
//!
//! The math is real: all variants converge on the same global grid and are
//! verified against a serial oracle and the manufactured solution
//! `u = sin(πx)sin(πy)sin(πz)`.

pub mod grid;

use std::f64::consts::PI;
use std::sync::Arc;

use mpisim::{Comm, MachineConfig, Rank, Src, World, WorldOutcome};
use mpistream::{
    dims_create, prof_scoped, Cart, ChannelConfig, GroupSpec, Role, Stream, StreamChannel,
    Transport,
};
use parking_lot::Mutex;

use grid::{Field, Shell};

/// Tunables of the CG experiment.
#[derive(Clone, Debug)]
pub struct CgConfig {
    pub machine: MachineConfig,
    pub seed: u64,
    /// Owned cells per dimension per rank (actual, computed-on grid).
    pub n_local: usize,
    /// Nominal cells per rank driving the compute-time model (the paper
    /// runs 120³ per process).
    pub nominal_cells: f64,
    /// Fixed iteration count (the paper uses 300).
    pub iterations: usize,
    /// Modelled stencil cost: flops per cell per iteration.
    pub stencil_flops_per_cell: f64,
    /// Modelled vector-op cost (dots, axpys): flops per cell per iteration.
    pub vector_flops_per_cell: f64,
    /// Effective flop rate per rank (flops/s).
    pub flop_rate: f64,
    /// Decoupled only: one boundary-aggregation rank per `alpha_every`.
    pub alpha_every: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            machine: MachineConfig::default(),
            seed: 0xC6,
            n_local: 8,
            nominal_cells: 120.0 * 120.0 * 120.0,
            iterations: 50,
            stencil_flops_per_cell: 16.0,
            vector_flops_per_cell: 14.0,
            flop_rate: 0.6e9,
            alpha_every: 16,
        }
    }
}

impl CgConfig {
    /// Seconds of stencil compute per iteration for a rank owning
    /// `scale ×` the nominal cells.
    fn stencil_secs(&self, scale: f64) -> f64 {
        self.nominal_cells * scale * self.stencil_flops_per_cell / self.flop_rate
    }

    fn vector_secs(&self, scale: f64) -> f64 {
        self.nominal_cells * scale * self.vector_flops_per_cell / self.flop_rate
    }

    /// Modelled bytes of one halo face for a rank owning `scale ×` the
    /// nominal cells.
    fn face_bytes(&self, scale: f64) -> u64 {
        ((self.nominal_cells * scale).powf(2.0 / 3.0) * 8.0) as u64
    }

    /// Fraction of the stencil in the subdomain's outermost owned layer.
    fn boundary_fraction(&self) -> f64 {
        let n = self.n_local as f64;
        if n <= 2.0 {
            return 1.0;
        }
        1.0 - ((n - 2.0) / n).powi(3)
    }
}

/// Result of one CG run.
pub struct CgResult {
    pub outcome: WorldOutcome,
    /// Final squared residual ‖r‖².
    pub residual: f64,
    /// Max-norm error against the manufactured solution (only meaningful
    /// when the global grid is cubic; `NaN` otherwise).
    pub solution_error: f64,
}

/// State each rank carries through the CG iterations.
struct CgState {
    x: Field,
    r: Field,
    p: Field,
    q: Field,
    b_norm2: f64,
    rr: f64,
    inv_h2: [f64; 3],
    /// Global interior sizes.
    n_global: [usize; 3],
    offset: [usize; 3],
}

fn manufactured_u(g: [usize; 3], n_global: [usize; 3]) -> f64 {
    let x = (g[0] + 1) as f64 / (n_global[0] + 1) as f64;
    let y = (g[1] + 1) as f64 / (n_global[1] + 1) as f64;
    let z = (g[2] + 1) as f64 / (n_global[2] + 1) as f64;
    (PI * x).sin() * (PI * y).sin() * (PI * z).sin()
}

fn setup_state(cart: &Cart, crank: usize, n_local: usize) -> CgState {
    let dims = cart.dims();
    let coords = cart.coords(crank);
    let n = [n_local; 3];
    let n_global = [dims[0] * n_local, dims[1] * n_local, dims[2] * n_local];
    let offset = [coords[0] * n_local, coords[1] * n_local, coords[2] * n_local];
    let h: Vec<f64> = n_global.iter().map(|&ng| 1.0 / (ng + 1) as f64).collect();
    let inv_h2 = [1.0 / (h[0] * h[0]), 1.0 / (h[1] * h[1]), 1.0 / (h[2] * h[2])];

    // b = f = 3π² u (RHS of -∇²u = f for the manufactured solution).
    let mut b = Field::zeros(n);
    b.fill_from(offset, |gx, gy, gz| 3.0 * PI * PI * manufactured_u([gx, gy, gz], n_global));
    let b_norm2_local = b.dot(&b);
    let r = b.clone();
    let p = r.clone();
    CgState {
        x: Field::zeros(n),
        rr: b_norm2_local, // local; reduced by callers
        r,
        p,
        q: Field::zeros(n),
        b_norm2: b_norm2_local,
        inv_h2,
        n_global,
        offset,
    }
}

impl CgState {
    /// Max-norm error vs the manufactured solution over owned cells.
    fn local_error(&self) -> f64 {
        let mut err = 0.0f64;
        let n = self.x.n;
        for i in 1..=n[0] {
            for j in 1..=n[1] {
                for k in 1..=n[2] {
                    let g =
                        [self.offset[0] + i - 1, self.offset[1] + j - 1, self.offset[2] + k - 1];
                    let u = manufactured_u(g, self.n_global);
                    err = err.max((self.x.data[self.x.idx(i, j, k)] - u).abs());
                }
            }
        }
        err
    }
}

/// Serial oracle: plain CG on the full grid, no simulator involved.
/// Returns `(final ‖r‖², max-norm solution error)`.
pub fn serial_solve(n_global_per_dim: usize, iterations: usize) -> (f64, f64) {
    let cart = Cart::new(vec![1, 1, 1], vec![false; 3]);
    let mut st = setup_state(&cart, 0, n_global_per_dim);
    let mut rr = st.rr;
    for _ in 0..iterations {
        st.p.laplacian_into(&mut st.q, st.inv_h2, Shell::All);
        let pq = st.p.dot(&st.q);
        let alpha = rr / pq;
        st.x.axpy(alpha, &st.p);
        st.r.axpy(-alpha, &st.q);
        let rr_new = st.r.dot(&st.r);
        let beta = rr_new / rr;
        rr = rr_new;
        st.p.xpby(&st.r, beta);
    }
    (rr / st.b_norm2, st.local_error())
}

/// The shared CG iteration skeleton: `exchange` must fill `p`'s halos and
/// apply the stencil into `q` (charging its own compute); the rest of the
/// iteration (dots, updates, allreduces) is identical across variants.
fn cg_loop(
    rank: &mut Rank,
    comm: &Comm,
    st: &mut CgState,
    cfg: &CgConfig,
    scale: f64,
    iterations: usize,
    mut exchange_and_stencil: impl FnMut(&mut Rank, &mut CgState, usize),
) -> (f64, f64) {
    let mut rr = rank.allreduce(comm, 8, st.rr, |a, b| *a += b);
    let b_norm2 = rank.allreduce(comm, 8, st.b_norm2, |a, b| *a += b);
    for it in 0..iterations {
        exchange_and_stencil(rank, st, it);
        rank.traced("comp", |rank| rank.compute(cfg.vector_secs(scale)));
        let pq_local = st.p.dot(&st.q);
        let pq = rank.traced("comm", |rank| rank.allreduce(comm, 8, pq_local, |a, b| *a += b));
        let alpha = rr / pq;
        st.x.axpy(alpha, &st.p);
        st.r.axpy(-alpha, &st.q);
        let rr_local = st.r.dot(&st.r);
        let rr_new = rank.traced("comm", |rank| rank.allreduce(comm, 8, rr_local, |a, b| *a += b));
        let beta = rr_new / rr;
        rr = rr_new;
        st.p.xpby(&st.r, beta);
    }
    let err_local = st.local_error();
    let err = rank.allreduce(comm, 8, err_local, |a, b| *a = a.max(*b));
    (rr / b_norm2, err)
}

/// Exchange `p`'s halos as the reference does — with a *blocking
/// all-to-all collective* (Hoefler et al. [17] build the halo exchange on
/// MPI_Alltoallv): a global synchronization plus the pairwise-exchange
/// algorithm's `P` rounds, even though only six partners carry data. The
/// payload itself still moves point-to-point so the numerics are real.
/// `cart` is laid over `comm`'s ranks.
fn halo_blocking(
    rank: &mut Rank,
    comm: &Comm,
    cart: &Cart,
    st: &mut CgState,
    cfg: &CgConfig,
    scale: f64,
) {
    let me = comm.rank_of(rank.world_rank()).expect("member");
    let face_bytes = cfg.face_bytes(scale);
    rank.trace_begin("comm");
    // Blocking MPI_Alltoallv: enter together (a collective is a
    // synchronization point) ...
    rank.barrier(comm);
    // ... and walk the pairwise-exchange rounds: one latency + software
    // overhead per peer, including the P-6 empty ones.
    let rounds = comm.size() as u64;
    let per_round = cfg.machine.inter_latency + cfg.machine.send_overhead * 2;
    rank.ctx().advance(per_round * rounds);
    let mut reqs = Vec::new();
    for (dim, dir, nb) in cart.neighbors(me) {
        let face = st.p.extract_face(dim, dir);
        let w = comm.world_rank(nb);
        let tag = halo_tag(dim, dir);
        reqs.push(rank.isend(w, tag, face_bytes, face));
    }
    for (dim, dir, nb) in cart.neighbors(me) {
        let w = comm.world_rank(nb);
        // Our -x halo comes from the neighbour's +x face.
        let tag = halo_tag(dim, -dir);
        let (face, _) = rank.recv::<Vec<f64>>(Src::Rank(w), tag);
        st.p.set_halo(dim, dir, &face);
    }
    rank.wait_send_all(reqs);
    rank.trace_end("comm");
    rank.traced("comp", |rank| rank.compute(cfg.stencil_secs(scale)));
    st.p.laplacian_into(&mut st.q, st.inv_h2, Shell::All);
}

/// Non-blocking variant: post the sends, apply the inner stencil while
/// faces are in flight, then complete the boundary.
fn halo_nonblocking(
    rank: &mut Rank,
    comm: &Comm,
    cart: &Cart,
    st: &mut CgState,
    cfg: &CgConfig,
    scale: f64,
) {
    let me = comm.rank_of(rank.world_rank()).expect("member");
    let face_bytes = cfg.face_bytes(scale);
    rank.trace_begin("comm");
    let mut reqs = Vec::new();
    for (dim, dir, nb) in cart.neighbors(me) {
        let face = st.p.extract_face(dim, dir);
        let w = comm.world_rank(nb);
        reqs.push(rank.isend(w, halo_tag(dim, dir), face_bytes, face));
    }
    rank.trace_end("comm");
    // Overlap: inner stencil while the halos travel.
    let bf = cfg.boundary_fraction();
    rank.traced("comp", |rank| rank.compute(cfg.stencil_secs(scale) * (1.0 - bf)));
    st.p.laplacian_into(&mut st.q, st.inv_h2, Shell::Inner);
    rank.trace_begin("comm");
    for (dim, dir, nb) in cart.neighbors(me) {
        let w = comm.world_rank(nb);
        let (face, _) = rank.recv::<Vec<f64>>(Src::Rank(w), halo_tag(dim, -dir));
        st.p.set_halo(dim, dir, &face);
    }
    rank.wait_send_all(reqs);
    rank.trace_end("comm");
    rank.traced("comp", |rank| rank.compute(cfg.stencil_secs(scale) * bf));
    st.p.laplacian_into(&mut st.q, st.inv_h2, Shell::Boundary);
}

fn halo_tag(dim: usize, dir: isize) -> mpisim::Tag {
    mpisim::Tag::user(100 + (dim as u32) * 2 + u32::from(dir > 0))
}

/// Run the blocking reference.
pub fn run_blocking(nprocs: usize, cfg: &CgConfig) -> CgResult {
    run_reference(nprocs, cfg, false)
}

/// Run the non-blocking (overlapping) reference.
pub fn run_nonblocking(nprocs: usize, cfg: &CgConfig) -> CgResult {
    run_reference(nprocs, cfg, true)
}

fn run_reference(nprocs: usize, cfg: &CgConfig, nonblocking: bool) -> CgResult {
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let out: Arc<Mutex<(f64, f64)>> = Arc::new(Mutex::new((f64::NAN, f64::NAN)));
    let out2 = out.clone();
    let cfg2 = cfg.clone();
    let outcome = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let cart = Cart::new(dims_create(nprocs, 3), vec![false; 3]);
        let me = rank.world_rank();
        let mut st = setup_state(&cart, me, cfg2.n_local);
        let (res, err) = cg_loop(rank, &comm, &mut st, &cfg2, 1.0, cfg2.iterations, {
            let comm = comm.clone();
            let cfg3 = cfg2.clone();
            move |rank, st, _it| {
                if nonblocking {
                    halo_nonblocking(rank, &comm, &cart, st, &cfg3, 1.0);
                } else {
                    halo_blocking(rank, &comm, &cart, st, &cfg3, 1.0);
                }
            }
        });
        if me == 0 {
            *out2.lock() = (res, err);
        }
    });
    let (residual, solution_error) = *out.lock();
    CgResult { outcome, residual, solution_error }
}

/// One streamed boundary face, addressed to a compute rank.
struct FaceMsg {
    /// Destination's rank index within the compute (G0) group.
    dest: usize,
    iter: usize,
    /// Which halo of the destination this fills.
    dim: usize,
    dir: isize,
    values: Vec<f64>,
}

mpistream::wire_struct!(FaceMsg { dest, iter, dim, dir, values });

/// The combined per-iteration halo packet streamed back to a compute rank.
struct HaloPacket {
    iter: usize,
    faces: Vec<(usize, isize, Vec<f64>)>,
}

mpistream::wire_struct!(HaloPacket { iter, faces });

/// The boundary group's aggregation kernel, generic over the transport:
/// collect the faces of each `(destination, iteration)` pair
/// first-come-first-served, and reply with one combined packet the moment
/// the set is complete. `expected[r]` is the number of faces destination
/// rank `r` is owed per iteration. The simulated and native backends run
/// this same function.
fn aggregate_faces<TP: Transport>(
    rank: &mut TP,
    faces_in: &mut Stream<FaceMsg>,
    halo_out: &mut Stream<HaloPacket>,
    expected: &[usize],
) {
    // Faces collected so far for one (destination, iteration).
    type FaceSet = Vec<(usize, isize, Vec<f64>)>;
    let mut pending: std::collections::BTreeMap<(usize, usize), FaceSet> =
        std::collections::BTreeMap::new();
    while let Some(msg) = faces_in.recv_one(rank) {
        let key = (msg.dest, msg.iter);
        let entry = pending.entry(key).or_default();
        entry.push((msg.dim, msg.dir, msg.values));
        if entry.len() == expected[msg.dest] {
            let faces = pending.remove(&key).expect("just inserted");
            prof_scoped(rank, "aggregate", |rank| {
                // Small aggregation cost per combined packet.
                rank.compute(1e-6);
                halo_out.isend_to(rank, key.0, HaloPacket { iter: key.1, faces });
            });
        }
    }
    assert!(pending.is_empty(), "all face sets must complete");
    halo_out.terminate(rank);
}

/// Run the decoupled variant: compute ranks stream their faces (routed by
/// *destination*) to the boundary group, which aggregates the up-to-six
/// faces of each destination and streams one combined packet back.
pub fn run_decoupled(nprocs: usize, cfg: &CgConfig) -> CgResult {
    assert!(nprocs >= cfg.alpha_every, "need at least alpha_every ranks");
    let world = World::new(cfg.machine.clone()).with_seed(cfg.seed);
    let out: Arc<Mutex<(f64, f64)>> = Arc::new(Mutex::new((f64::NAN, f64::NAN)));
    let out2 = out.clone();
    let cfg2 = cfg.clone();
    let outcome = world.run_expect(nprocs, move |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: cfg2.alpha_every };
        let (g0, _g1, role) = spec.split(rank, &comm);
        // The compute group owns the whole grid: each member's share of
        // the nominal workload is inflated by P / |G0| (Eq. 2's 1/(1-α)).
        let scale = nprocs as f64 / g0.size() as f64;
        let face_bytes = cfg2.face_bytes(scale);
        // G0 produces faces, G1 consumes them and replies.
        let fwd_ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig { element_bytes: face_bytes, ..ChannelConfig::default() },
        );
        let rev_ch = StreamChannel::create(
            rank,
            &comm,
            role.reverse(),
            ChannelConfig { element_bytes: face_bytes * 6, ..ChannelConfig::default() },
        );
        let cart = Cart::new(dims_create(g0.size(), 3), vec![false; 3]);

        match role {
            Role::Producer => {
                let me = g0.rank_of(rank.world_rank()).expect("in G0");
                let nc = fwd_ch.consumers().len();
                let mut faces_out: Stream<FaceMsg> = Stream::attach(fwd_ch);
                let mut halo_in: Stream<HaloPacket> = Stream::attach(rev_ch);
                let mut st = setup_state(&cart, me, cfg2.n_local);
                let bf = cfg2.boundary_fraction();
                let cart2 = cart.clone();
                let cfg3 = cfg2.clone();
                let fo = &mut faces_out;
                let hi = &mut halo_in;
                let (res, err) = cg_loop(rank, &g0, &mut st, &cfg2, scale, cfg2.iterations, {
                    let cart = cart2;
                    move |rank, st, it| {
                        // Stream each face to the consumer that aggregates
                        // for the *destination* rank.
                        rank.trace_begin("comm");
                        for (dim, dir, nb) in cart.neighbors(me) {
                            let values = st.p.extract_face(dim, dir);
                            let msg = FaceMsg { dest: nb, iter: it, dim, dir: -dir, values };
                            fo.isend_to(rank, nb % nc, msg);
                        }
                        rank.trace_end("comm");
                        // Overlap the inner stencil with the round trip.
                        rank.traced("comp", |rank| {
                            rank.compute(cfg3.stencil_secs(scale) * (1.0 - bf))
                        });
                        st.p.laplacian_into(&mut st.q, st.inv_h2, Shell::Inner);
                        // One combined packet per iteration comes back.
                        rank.trace_begin("comm");
                        let packet = hi.recv_one(rank).expect("halo packet for every iteration");
                        assert_eq!(packet.iter, it, "iteration-ordered replies");
                        for (dim, dir, values) in packet.faces {
                            st.p.set_halo(dim, dir, &values);
                        }
                        rank.trace_end("comm");
                        rank.traced("comp", |rank| rank.compute(cfg3.stencil_secs(scale) * bf));
                        st.p.laplacian_into(&mut st.q, st.inv_h2, Shell::Boundary);
                    }
                });
                faces_out.terminate(rank);
                if me == 0 {
                    *out2.lock() = (res, err);
                }
            }
            Role::Consumer => {
                let mut faces_in: Stream<FaceMsg> = Stream::attach(fwd_ch);
                let mut halo_out: Stream<HaloPacket> = Stream::attach(rev_ch);
                let expected: Vec<usize> =
                    (0..g0.size()).map(|r| cart.neighbors(r).len()).collect();
                aggregate_faces(rank, &mut faces_in, &mut halo_out, &expected);
            }
            Role::Bystander => unreachable!(),
        }
    });
    let (residual, solution_error) = *out.lock();
    CgResult { outcome, residual, solution_error }
}

/// The decoupled solver's communication topology for the `streamcheck`
/// static pass: the compute group streams faces to the boundary group
/// (keyed by the *destination* rank, `nb % nc`), which replies with one
/// combined halo packet per destination (keyed identity). The two channels
/// form a request/reply cycle — with unbounded credit windows, so the
/// checker reports it as an informational cycle, not a credit deadlock.
pub fn topology(nprocs: usize, cfg: &CgConfig) -> streamcheck::Topology {
    use streamcheck::{ChannelDecl, GroupDecl, Topology};
    let (g0, g1) = GroupSpec { every: cfg.alpha_every }.members(nprocs);
    let scale = nprocs as f64 / g0.len() as f64;
    let face_bytes = cfg.face_bytes(scale);
    let nc = g1.len();
    Topology::new(nprocs)
        .group(GroupDecl::new("compute", g0.clone()))
        .group(GroupDecl::new("boundary", g1.clone()))
        .channel(
            ChannelDecl::new(
                "faces",
                g0.clone(),
                g1.clone(),
                ChannelConfig { element_bytes: face_bytes, ..ChannelConfig::default() },
            )
            // Face for destination rank `nb` goes to aggregator `nb % nc`.
            .keyed((0..g0.len()).map(|b| Some(b % nc)).collect()),
        )
        .channel(
            ChannelDecl::new(
                "halos",
                g1,
                g0.clone(),
                ChannelConfig { element_bytes: face_bytes * 6, ..ChannelConfig::default() },
            )
            // One combined packet back to each destination rank.
            .keyed((0..g0.len()).map(Some).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::NoiseModel;

    fn test_cfg() -> CgConfig {
        CgConfig {
            machine: MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() },
            n_local: 6,
            iterations: 40,
            alpha_every: 4,
            ..CgConfig::default()
        }
    }

    #[test]
    fn serial_oracle_converges_to_manufactured_solution() {
        let (res, err) = serial_solve(12, 60);
        assert!(res < 1e-10, "relative residual {res}");
        // Discretisation error of the 7-point stencil at h = 1/13.
        assert!(err < 0.01, "solution error {err}");
    }

    #[test]
    fn blocking_matches_serial_oracle() {
        // 8 ranks x 6^3 = global 12^3 grid, same as serial_solve(12).
        let cfg = test_cfg();
        let r = run_blocking(8, &cfg);
        let (res_ser, err_ser) = serial_solve(12, cfg.iterations);
        assert!(
            (r.residual - res_ser).abs() <= 1e-9 * (1.0 + res_ser.abs()),
            "parallel {} vs serial {res_ser}",
            r.residual
        );
        assert!((r.solution_error - err_ser).abs() < 1e-9);
    }

    #[test]
    fn nonblocking_matches_blocking_numerically() {
        let cfg = test_cfg();
        let a = run_blocking(8, &cfg);
        let b = run_nonblocking(8, &cfg);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "identical arithmetic");
    }

    #[test]
    fn decoupled_converges_like_its_own_serial_grid() {
        // 8 ranks, every=4 -> G0 has 6 ranks; dims_create(6,3)=[3,2,1],
        // global grid 18x12x6 — verify against the residual dropping and
        // the packet protocol completing.
        let cfg = test_cfg();
        let r = run_decoupled(8, &cfg);
        assert!(r.residual < 1e-8, "decoupled CG must converge, got {}", r.residual);
        assert!(r.solution_error < 0.05);
    }

    #[test]
    fn decoupled_matches_reference_on_same_grid() {
        // Reference on 6 ranks == decoupled's G0 (8 ranks, every=4 -> 6
        // compute ranks): identical global grid, so identical residuals up
        // to reduction order.
        let cfg = test_cfg();
        let reference = run_blocking(6, &cfg);
        let decoupled = run_decoupled(8, &cfg);
        let rel = (reference.residual - decoupled.residual).abs() / reference.residual.max(1e-300);
        assert!(rel < 1e-6, "ref {} vs dec {}", reference.residual, decoupled.residual);
    }

    #[test]
    fn nonblocking_is_not_slower_than_blocking() {
        let cfg = CgConfig { iterations: 20, ..test_cfg() };
        let tb = run_blocking(16, &cfg).outcome.elapsed_secs();
        let tn = run_nonblocking(16, &cfg).outcome.elapsed_secs();
        assert!(tn <= tb * 1.02, "nonblocking {tn} vs blocking {tb}");
    }
}
