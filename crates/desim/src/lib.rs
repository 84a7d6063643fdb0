//! # desim — deterministic discrete-event simulation engine
//!
//! The execution substrate for the `mpistream-rs` reproduction of
//! *"Preparing HPC Applications for the Exascale Era: A Decoupling
//! Strategy"* (Peng et al., ICPP 2017).
//!
//! Simulated processes are written as ordinary imperative Rust closures and
//! run as fibers — stackful coroutines, each on a stack of its own — on the
//! thread that calls [`Simulation::run`]. The kernel executes **exactly one
//! at a time** in virtual-time order, handing the CPU from one process to
//! the next with a user-space stack switch (sequential DES). This gives:
//!
//! - **Determinism** — equal-time events fire in schedule order, every
//!   process has a seed-derived RNG, so a run is a pure function of its
//!   configuration. Scaling experiments are exactly reproducible.
//! - **Scale** — tens of thousands of simulated MPI ranks on a single host
//!   core, with no OS thread per rank; virtual time is decoupled from wall
//!   time.
//! - **Real data** — processes exchange real values through simulated
//!   communication, so the applications built on top are numerically
//!   genuine; only *timing* is modelled.
//!
//! ## Quick example
//!
//! A process blocks with [`Ctx::suspend`] and is woken by an event that
//! some process scheduled for it with [`Kernel::schedule_at`]. Wake-ups
//! may be spurious, so the sleeper re-checks its condition every time.
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use desim::{Simulation, SimConfig, SimDuration};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let inbox: Arc<Mutex<Vec<u64>>> = Arc::default();
//! let tx = inbox.clone();
//! sim.spawn("producer", move |ctx| {
//!     for i in 0..3 {
//!         ctx.advance(SimDuration::from_micros(5)); // "compute"
//!         tx.lock().unwrap().push(i);
//!         ctx.kernel().schedule_at(ctx.now(), 1); // wake the consumer (pid 1)
//!     }
//! });
//! sim.spawn("consumer", move |ctx| {
//!     let (mut sum, mut seen) = (0, 0);
//!     loop {
//!         for v in inbox.lock().unwrap().drain(..) {
//!             sum += v;
//!             seen += 1;
//!         }
//!         if seen == 3 {
//!             break;
//!         }
//!         ctx.suspend("waiting for the producer");
//!     }
//!     assert_eq!(sum, 3);
//! });
//! let out = sim.run_expect();
//! assert_eq!(out.end_time.as_nanos(), 15_000);
//! ```

#![warn(clippy::disallowed_types)] // see clippy.toml: determinism as a lint

pub mod fault;
mod fiber;
pub mod kernel;
pub mod resource;
pub mod sim;
pub mod sweep;
pub mod time;
pub mod trace;

pub use fault::{FaultAction, FaultKind, FaultPlan, LinkDisposition, LinkFault};
pub use kernel::{EventStats, Kernel, Pid};
pub use resource::{FifoServer, LinkClock};
pub use sim::{Ctx, ProcStats, SimConfig, SimError, SimOutcome, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{Span, Trace, TraceSink};
