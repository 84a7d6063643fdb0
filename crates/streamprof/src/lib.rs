//! # streamprof — backend-agnostic observability for stream programs
//!
//! Figure 2 of the paper is an HPCToolkit *trace*: observability is how
//! the decoupling strategy is demonstrated. This crate is that instrument
//! for `mpistream` programs, working identically over every
//! [`Transport`](mpistream::Transport) backend:
//!
//! - [`ProfSink`] — a shared span/counter recorder. Clone one per rank;
//!   spans carry the backend's own clock ([`Clock::Virtual`] nanoseconds
//!   on the simulator, [`Clock::Wall`] monotonic nanoseconds on the
//!   native threaded backend).
//! - [`Profiled`] — a transparent `Transport` wrapper that times every
//!   call: `compute`, `send`, blocking receives (classified into
//!   *wait-for-data* vs *wait-for-credit* from the wire tag alone), and
//!   the collective subset. Stream-level counters (elements/bytes,
//!   credit-window occupancy) and application spans arrive as the
//!   [`Event`](mpistream::Event)s the stream runtime reports through
//!   `Transport::observe` on any transport.
//! - [`Trace`] — the finished recording: per-rank stall breakdowns
//!   ([`StallBreakdown`]), per-stream [`StreamMetrics`], and exporters —
//!   `chrome://tracing` JSON ([`Trace::to_chrome_json`]), CSV, and the
//!   ASCII Gantt chart — the only exporters the workspace has;
//!   [`Trace::from_desim`] adapts the simulator's `desim::Trace` to them.
//! - [`mod@fit`] — estimators that recover the paper's Eq. 4 parameters
//!   (per-element overhead `o`, pipelining fraction β(S), imbalance Tσ)
//!   from a recorded trace and report the residual against the
//!   `perfmodel` prediction; [`synth`] generates traces from known
//!   parameters to validate the estimators.
//!
//! ## Profiling a stream program
//!
//! ```
//! use mpisim::{MachineConfig, World};
//! use mpistream::{run_decoupled, ChannelConfig, GroupSpec, Transport};
//! use streamprof::{Clock, ProfSink, Profiled};
//!
//! let sink = ProfSink::new(Clock::Virtual);
//! let s2 = sink.clone();
//! let world = World::new(MachineConfig::default());
//! world.run_expect(8, move |rank| {
//!     let mut rank = Profiled::new(rank, s2.clone());
//!     let comm = rank.world_group();
//!     run_decoupled::<u64, _, _, _>(
//!         &mut rank,
//!         &comm,
//!         GroupSpec { every: 8 },
//!         ChannelConfig::default(),
//!         |rank, p| {
//!             for step in 0..10 {
//!                 rank.compute(1e-4);
//!                 p.stream.isend(rank, step);
//!             }
//!         },
//!         |rank, c| {
//!             c.stream.operate(rank, |_, _w| {});
//!         },
//!     );
//! });
//! let trace = sink.take();
//! assert!(!trace.spans().is_empty());
//! let json = trace.to_chrome_json();
//! streamprof::validate_chrome(&json).unwrap();
//! ```

pub mod chrome;
pub mod fit;
pub mod profiled;
pub mod sink;
pub mod synth;
pub mod trace;

pub use chrome::{validate_chrome, ChromeStats};
pub use fit::{fit, fit_beta_curve, residual, FitReport, ModelResidual};
pub use profiled::Profiled;
pub use sink::{Clock, ProfSink, Span, StreamMetrics};
pub use synth::{synthesize, SynthSpec};
pub use trace::{StallBreakdown, Trace};
