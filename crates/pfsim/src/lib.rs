//! # pfsim — a parallel filesystem model
//!
//! Models the Lustre-class storage behind the paper's particle-I/O
//! experiment (Fig. 8) at the fidelity the experiment needs:
//!
//! - **OSTs** (object storage targets): `n_ost` parallel FIFO lanes, each
//!   sustaining `ost_bandwidth`. Large writes are striped across lanes in
//!   `stripe_size` chunks, so aggregate bandwidth grows with OST count but
//!   contends across clients.
//! - **Metadata server**: a single FIFO lane charging `meta_latency` per
//!   operation — `open`, and crucially the per-iteration *file view*
//!   redefinition that `MPI_File_write_all` needs when the data layout
//!   changes every dump (all P ranks hit it, serializing).
//! - **Shared file pointer**: a FIFO lock whose holder performs its
//!   transfer before releasing — the known pathology that makes
//!   `MPI_File_write_shared` collapse at scale.
//!
//! The model is expressed in `desim` virtual time and is MPI-agnostic; the
//! application layer (`apps::pic::io_*`) combines it with `mpisim`
//! communication for the two-phase collective write and the decoupled
//! I/O-group variant.

#![warn(clippy::disallowed_types)] // see clippy.toml: determinism as a lint

use std::collections::VecDeque;
use std::sync::Arc;

use desim::{Ctx, FifoServer, Pid, SimDuration, SimTime};
use parking_lot::Mutex;

/// Parallel filesystem parameters.
#[derive(Clone, Debug)]
pub struct PfsConfig {
    /// Number of object storage targets.
    pub n_ost: usize,
    /// Sustained bandwidth per OST, bytes/s.
    pub ost_bandwidth: f64,
    /// Per-request fixed cost on an OST (RPC + seek).
    pub ost_request_overhead: SimDuration,
    /// Stripe size used to spread large transfers across OSTs.
    pub stripe_size: u64,
    /// Cost of one metadata operation (open, file-view update, ...).
    pub meta_latency: SimDuration,
    /// Cost of acquiring/updating the shared file pointer.
    pub shared_pointer_latency: SimDuration,
    /// Per-client link bandwidth to the filesystem, bytes/s.
    pub client_bandwidth: f64,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            n_ost: 16,
            ost_bandwidth: 2.0e9,
            ost_request_overhead: SimDuration::from_micros(200),
            stripe_size: 4 << 20,
            meta_latency: SimDuration::from_micros(500),
            shared_pointer_latency: SimDuration::from_micros(300),
            client_bandwidth: 4.0e9,
        }
    }
}

struct SharedPointer {
    held: bool,
    queue: VecDeque<Pid>,
}

struct Accounting {
    bytes_written: u64,
    bytes_read: u64,
    writes: u64,
    meta_ops: u64,
    shared_writes: u64,
}

/// One simulated filesystem instance, shared by all ranks of a run.
#[derive(Clone)]
pub struct Pfs {
    config: PfsConfig,
    osts: FifoServer,
    meta: FifoServer,
    pointer: Arc<Mutex<SharedPointer>>,
    acct: Arc<Mutex<Accounting>>,
}

impl Pfs {
    pub fn new(config: PfsConfig) -> Pfs {
        let osts = FifoServer::new(config.n_ost, config.ost_bandwidth, config.ost_request_overhead);
        // The metadata server's "bandwidth" is irrelevant; requests carry
        // zero bytes and cost `meta_latency` each.
        let meta = FifoServer::new(1, 1e18, config.meta_latency);
        Pfs {
            config,
            osts,
            meta,
            pointer: Arc::new(Mutex::new(SharedPointer { held: false, queue: VecDeque::new() })),
            acct: Arc::new(Mutex::new(Accounting {
                bytes_written: 0,
                bytes_read: 0,
                writes: 0,
                meta_ops: 0,
                shared_writes: 0,
            })),
        }
    }

    pub fn config(&self) -> &PfsConfig {
        &self.config
    }

    /// A metadata operation: open, close, stat, or a collective file-view
    /// (re)definition. All clients serialize through the metadata server.
    pub fn meta_op(&self, ctx: &mut Ctx) {
        // FIFO servers are call-order resources: surrender any lazy local
        // lead so submissions arrive in virtual-time order (see
        // `Ctx::commit_lag`).
        ctx.commit_lag();
        let done = self.meta.submit(ctx.now(), 0);
        let wait = done.since(ctx.now());
        ctx.advance(wait);
        self.acct.lock().meta_ops += 1;
    }

    /// Independent striped write of `bytes` (the data path of a collective
    /// or aggregated write): chunks of `stripe_size` go to successive OST
    /// lanes; the client blocks until the last chunk lands, and can never
    /// exceed its own link bandwidth.
    pub fn write_striped(&self, ctx: &mut Ctx, bytes: u64) -> SimTime {
        ctx.commit_lag(); // call-order resource; see `meta_op`
        let done = self.submit_striped(ctx.now(), bytes);
        let client_done =
            ctx.now() + SimDuration::from_bytes_at(bytes.max(1), self.config.client_bandwidth);
        let finish = done.max(client_done);
        let wait = finish.since(ctx.now());
        ctx.advance(wait);
        {
            let mut a = self.acct.lock();
            a.bytes_written += bytes;
            a.writes += 1;
        }
        finish
    }

    /// Striped read of `bytes` (same path as [`Pfs::write_striped`]).
    pub fn read_striped(&self, ctx: &mut Ctx, bytes: u64) -> SimTime {
        ctx.commit_lag(); // call-order resource; see `meta_op`
        let done = self.submit_striped(ctx.now(), bytes);
        let client_done =
            ctx.now() + SimDuration::from_bytes_at(bytes.max(1), self.config.client_bandwidth);
        let finish = done.max(client_done);
        let wait = finish.since(ctx.now());
        ctx.advance(wait);
        {
            let mut a = self.acct.lock();
            a.bytes_read += bytes;
        }
        finish
    }

    fn submit_striped(&self, now: SimTime, bytes: u64) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let stripe = self.config.stripe_size.max(1);
        let mut remaining = bytes;
        let mut last = now;
        while remaining > 0 {
            let chunk = remaining.min(stripe);
            last = last.max(self.osts.submit(now, chunk));
            remaining -= chunk;
        }
        last
    }

    /// `MPI_File_write_shared`-style write: acquire the shared file
    /// pointer (FIFO), update it, perform the transfer *while holding it*
    /// (the consistency semantics the MPI library must enforce without a
    /// file view), release. Writers fully serialize.
    pub fn write_shared(&self, ctx: &mut Ctx, bytes: u64) {
        // The pointer queue is a lock: both the acquisition order *and* the
        // hold interval are mediated by execution order, so the whole
        // operation runs on committed (eventful) time — a lazy hold would
        // release at a kernel clock that never moved, letting the next
        // writer's interval overlap this one's.
        ctx.commit_lag();
        self.pointer_lock(ctx);
        ctx.advance(self.config.shared_pointer_latency);
        ctx.commit_lag();
        // Transfer through a single OST lane's worth of bandwidth — shared
        // pointer writes do not stripe effectively.
        let rate = self.config.ost_bandwidth.min(self.config.client_bandwidth);
        ctx.advance(self.config.ost_request_overhead);
        ctx.commit_lag();
        ctx.advance(SimDuration::from_bytes_at(bytes, rate));
        ctx.commit_lag();
        self.pointer_unlock(ctx);
        {
            let mut a = self.acct.lock();
            a.bytes_written += bytes;
            a.writes += 1;
            a.shared_writes += 1;
        }
    }

    fn pointer_lock(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        {
            let mut p = self.pointer.lock();
            if !p.held && p.queue.is_empty() {
                p.held = true;
                return;
            }
            p.queue.push_back(me);
        }
        loop {
            ctx.suspend("pfs-shared-pointer");
            let mut p = self.pointer.lock();
            if !p.held && p.queue.front() == Some(&me) {
                p.queue.pop_front();
                p.held = true;
                return;
            }
        }
    }

    fn pointer_unlock(&self, ctx: &Ctx) {
        let next = {
            let mut p = self.pointer.lock();
            assert!(p.held, "unlock of free shared pointer");
            p.held = false;
            p.queue.front().copied()
        };
        if let Some(pid) = next {
            let k = ctx.kernel();
            k.schedule_at(k.now(), pid);
        }
    }

    /// Total bytes written so far (conservation checks).
    pub fn bytes_written(&self) -> u64 {
        self.acct.lock().bytes_written
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.acct.lock().bytes_read
    }

    /// Number of completed write calls.
    pub fn writes(&self) -> u64 {
        self.acct.lock().writes
    }

    /// Number of metadata operations performed.
    pub fn meta_ops(&self) -> u64 {
        self.acct.lock().meta_ops
    }

    /// Number of shared-pointer writes performed.
    pub fn shared_writes(&self) -> u64 {
        self.acct.lock().shared_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimConfig, Simulation};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fast_meta_cfg() -> PfsConfig {
        PfsConfig {
            n_ost: 4,
            ost_bandwidth: 1e9,
            ost_request_overhead: SimDuration::ZERO,
            stripe_size: 1 << 20,
            meta_latency: SimDuration::from_micros(100),
            shared_pointer_latency: SimDuration::from_micros(10),
            client_bandwidth: 1e12,
        }
    }

    #[test]
    fn striped_write_uses_all_osts() {
        // 4 MB over 4 OSTs at 1 GB/s each with 1 MB stripes: ~1 ms, not 4.
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(fast_meta_cfg());
        let p2 = pfs.clone();
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        sim.spawn("w", move |ctx| {
            p2.write_striped(ctx, 4 << 20);
            t2.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        sim.run_expect();
        let secs = t.load(Ordering::SeqCst) as f64 / 1e9;
        assert!((secs - 1.048e-3).abs() < 1e-4, "got {secs}");
        assert_eq!(pfs.bytes_written(), 4 << 20);
    }

    #[test]
    fn client_bandwidth_caps_transfer() {
        let cfg = PfsConfig { client_bandwidth: 0.5e9, ..fast_meta_cfg() };
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(cfg);
        let t = Arc::new(AtomicU64::new(0));
        let (p2, t2) = (pfs.clone(), t.clone());
        sim.spawn("w", move |ctx| {
            p2.write_striped(ctx, 4 << 20);
            t2.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        sim.run_expect();
        // 4 MB at 0.5 GB/s client link = ~8.4 ms despite fast OSTs.
        let secs = t.load(Ordering::SeqCst) as f64 / 1e9;
        assert!(secs > 8e-3, "client link must cap, got {secs}");
    }

    #[test]
    fn shared_writes_fully_serialize() {
        const N: usize = 8;
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(fast_meta_cfg());
        let t = Arc::new(AtomicU64::new(0));
        for i in 0..N {
            let (p2, t2) = (pfs.clone(), t.clone());
            sim.spawn(format!("w{i}"), move |ctx| {
                p2.write_shared(ctx, 1 << 20); // ~1 ms each + 10us pointer
                t2.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
            });
        }
        sim.run_expect();
        let secs = t.load(Ordering::SeqCst) as f64 / 1e9;
        let serial = N as f64 * ((1 << 20) as f64 / 1e9 + 10e-6);
        assert!(secs >= serial * 0.99, "shared writes must serialize: {secs} vs {serial}");
        assert_eq!(pfs.shared_writes(), N as u64);
    }

    #[test]
    fn shared_pointer_is_granted_fifo() {
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(fast_meta_cfg());
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4usize {
            let (p2, o2) = (pfs.clone(), order.clone());
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.advance(SimDuration::from_nanos(i as u64 * 10));
                p2.write_shared(ctx, 1000);
                o2.lock().push(i);
            });
        }
        sim.run_expect();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn metadata_server_serializes_view_updates() {
        const N: usize = 16;
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(fast_meta_cfg());
        let t = Arc::new(AtomicU64::new(0));
        for i in 0..N {
            let (p2, t2) = (pfs.clone(), t.clone());
            sim.spawn(format!("m{i}"), move |ctx| {
                p2.meta_op(ctx);
                t2.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
            });
        }
        sim.run_expect();
        // 16 clients x 100us serialized = 1.6 ms.
        assert_eq!(t.load(Ordering::SeqCst), 1_600_000);
        assert_eq!(pfs.meta_ops(), N as u64);
    }

    #[test]
    fn reads_account_separately_from_writes() {
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(fast_meta_cfg());
        let p2 = pfs.clone();
        sim.spawn("rw", move |ctx| {
            p2.read_striped(ctx, 1000);
            p2.write_striped(ctx, 500);
        });
        sim.run_expect();
        assert_eq!(pfs.bytes_read(), 1000);
        assert_eq!(pfs.bytes_written(), 500);
        assert_eq!(pfs.writes(), 1);
    }

    #[test]
    fn zero_byte_write_is_cheap_but_counted() {
        let mut sim = Simulation::new(SimConfig::default());
        let pfs = Pfs::new(fast_meta_cfg());
        let p2 = pfs.clone();
        sim.spawn("w", move |ctx| {
            let before = ctx.now();
            p2.write_striped(ctx, 0);
            assert!(ctx.now().since(before) < SimDuration::from_micros(1));
        });
        sim.run_expect();
        assert_eq!(pfs.writes(), 1);
        assert_eq!(pfs.bytes_written(), 0);
    }

    #[test]
    fn aggregated_writes_beat_many_small_shared_writes() {
        // The mechanism behind Fig. 8: one buffered writer flushing 16 MB
        // beats 16 ranks each shared-writing 1 MB.
        fn run(shared: bool) -> f64 {
            let mut sim = Simulation::new(SimConfig::default());
            let pfs = Pfs::new(PfsConfig::default());
            let t = Arc::new(AtomicU64::new(0));
            if shared {
                for i in 0..16 {
                    let (p2, t2) = (pfs.clone(), t.clone());
                    sim.spawn(format!("w{i}"), move |ctx| {
                        p2.write_shared(ctx, 1 << 20);
                        t2.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
                    });
                }
            } else {
                let (p2, t2) = (pfs.clone(), t.clone());
                sim.spawn("agg", move |ctx| {
                    p2.write_striped(ctx, 16 << 20);
                    t2.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
                });
            }
            sim.run_expect();
            t.load(Ordering::SeqCst) as f64 / 1e9
        }
        let t_shared = run(true);
        let t_agg = run(false);
        assert!(
            t_agg * 2.0 < t_shared,
            "aggregated {t_agg} should be well under shared {t_shared}"
        );
    }
}
